//! Ablation: outcome-resolution delay (§3.2's second mechanism).
//!
//! The paper's accuracy figures assume a branch's outcome trains the
//! predictor before its next occurrence. §3.2 notes a deep-pipelined
//! superscalar machine can need a prediction *before the previous
//! instance resolves* and prescribes predicting taken in that case.
//! This bench measures the accuracy cost of that mechanism as the
//! resolution delay grows.
//!
//! Run with `cargo bench --bench ablate_delay`.

use tlat_core::TwoLevelConfig;
use tlat_sim::{simulate_delayed, DelayOptions, Report};

fn main() {
    tlat_bench::run_report("ablate_delay", |harness| {
        let traces = harness.test_traces();
        let delays = [0usize, 1, 2, 4, 8, 16];
        let mut report = Report::new(
            "Ablation: prediction accuracy vs outcome-resolution delay (AT, AHRT 512, 12SR, A2)",
            harness
                .workloads()
                .iter()
                .map(|w| w.name.to_owned())
                .collect(),
        );
        for delay in delays {
            let mut row = Vec::new();
            for trace in &traces {
                let mut p = tlat_core::TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
                let out = simulate_delayed(
                    &mut p,
                    trace,
                    DelayOptions {
                        resolve_delay: delay,
                        ras_entries: 16,
                    },
                );
                row.push(Some(out.result.accuracy()));
            }
            report.push_row(format!("delay {delay:>2} branches"), row);
        }
        report.push_note(
            "delay 0 is the idealized model of the paper's figures; unresolved \
             same-branch predictions are forced taken per §3.2"
                .to_owned(),
        );
        report.to_string()
    });
}
