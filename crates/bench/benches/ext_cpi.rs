//! Extension bench: *measured* cycles per instruction.
//!
//! Unlike `ext_cost` (analytic CPI from miss rates), this replays the
//! recorded instruction stream through a pipeline timing model and
//! charges each individual misprediction its flush — producing the
//! performance numbers the paper's introduction motivates.
//!
//! Run with `cargo bench --bench ext_cpi`.

use tlat_core::{
    AlwaysTaken, AutomatonKind, LeeSmithBtb, LeeSmithConfig, Predictor, TwoLevelAdaptive,
    TwoLevelConfig,
};
use tlat_sim::{simulate_timing, Report, TimingModel};

fn main() {
    tlat_bench::run_report("ext_cpi", |harness| {
        let traces = harness.test_traces();
        let model = TimingModel::scalar_with_btb();
        let mut report = Report::new_raw(
            "Extension: measured CPI x100 (scalar pipeline, 5-cycle flush, 512-entry BTB)",
            harness
                .workloads()
                .iter()
                .map(|w| w.name.to_owned())
                .collect(),
        );
        let mut speedups = Vec::new();
        for scheme in ["AT", "LS", "AlwaysTaken"] {
            let mut row = Vec::new();
            for trace in &traces {
                let mut predictor: Box<dyn Predictor> = match scheme {
                    "AT" => Box::new(TwoLevelAdaptive::new(TwoLevelConfig::paper_default())),
                    "LS" => Box::new(LeeSmithBtb::new(LeeSmithConfig {
                        automaton: AutomatonKind::A2,
                        ..LeeSmithConfig::paper_default()
                    })),
                    _ => Box::new(AlwaysTaken),
                };
                let out = simulate_timing(predictor.as_mut(), trace, model);
                if scheme == "AT" {
                    speedups.push(out);
                }
                row.push(Some(out.cpi() * 100.0));
            }
            report.push_row(scheme, row);
        }
        report.push_note("values are CPI x 100 (e.g. 126 = 1.26 cycles/instruction)".to_owned());

        // Headline: AT's measured speedup over the counter BTB.
        let mut speedup_report = Report::new_raw(
            "Measured speedup of AT over LS(A2) x100",
            harness
                .workloads()
                .iter()
                .map(|w| w.name.to_owned())
                .collect(),
        );
        let mut row = Vec::new();
        for (at_out, trace) in speedups.iter().zip(&traces) {
            let mut ls = LeeSmithBtb::new(LeeSmithConfig::paper_default());
            let ls_out = simulate_timing(&mut ls, trace, model);
            row.push(Some(at_out.speedup_over(&ls_out) * 100.0));
        }
        speedup_report.push_row("AT vs LS", row);
        speedup_report.push_note("104 = 4 % faster end-to-end".to_owned());
        format!("{report}\n{speedup_report}")
    });
}
