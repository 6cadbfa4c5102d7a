//! Extension bench: full next-address (fetch-redirect) accuracy —
//! direction prediction (AT), a 512-entry branch target buffer, and a
//! 16-entry return-address stack working together, per §4's branch
//! classification.
//!
//! Run with `cargo bench --bench ext_fetch`.

use tlat_core::{TwoLevelAdaptive, TwoLevelConfig};
use tlat_sim::{simulate_fetch, FetchOptions, Report};

fn main() {
    tlat_bench::run_report("ext_fetch", |harness| {
        let traces = harness.test_traces();
        let mut report = Report::new(
            "Extension: fetch-redirect accuracy (direction + BTB target + RAS)",
            vec![
                "cond".to_owned(),
                "return".to_owned(),
                "uncond-imm".to_owned(),
                "uncond-reg".to_owned(),
                "overall".to_owned(),
            ],
        );
        for (w, trace) in harness.workloads().iter().zip(&traces) {
            let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
            let out = simulate_fetch(&mut p, trace, FetchOptions::default());
            let cell = |s: tlat_sim::PredictionStats| {
                if s.predicted == 0 {
                    None
                } else {
                    Some(s.accuracy())
                }
            };
            report.push_row(
                w.name,
                vec![
                    cell(out.conditional),
                    cell(out.returns),
                    cell(out.uncond_imm),
                    cell(out.uncond_reg),
                    Some(out.overall()),
                ],
            );
        }
        report.push_note(
            "conditional redirect requires direction AND (when taken) a correct \
             BTB target; immediate unconditionals resolve at decode (§4)"
                .to_owned(),
        );
        report.to_string()
    });
}
