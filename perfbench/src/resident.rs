//! `resident-figures`: repeated passes over all seven registered sweeps
//! through one harness whose traces and compiled streams are already in
//! memory. Nearly all of the work is the gang walk, the pool and the
//! harness; the interpreter, codec, disk and HTTP do none. Each sweep
//! run is one request.

use std::time::Instant;

use tlat_sim::{sweep_specs, Harness, SweepSpec};

use crate::util::{probed, reset_peak_rss, EndToEnd, Metrics, Rng};
use crate::{batch_bytes, harness, millis, predictions, secs, timed_setups, Ctx, Tally};

/// A harness with every trace and compiled stream resident, after one
/// warm-up pass over every sweep.
pub struct Resident {
    pub harness: Harness,
    /// Predictions one run of each sweep computes.
    pub predictions: Vec<u64>,
}

impl Resident {
    /// Generates every trace, compiles every test stream, and runs one
    /// warm-up pass over `specs`, checking each report.
    pub fn build(specs: &[SweepSpec], tally: &mut Tally) -> Resident {
        let harness = harness(None);
        harness.prewarm();
        let predictions = specs
            .iter()
            .map(|spec| {
                let report = harness.run_sweep(spec);
                tally.check_report(spec.name, &batch_bytes(&report));
                predictions(&harness, spec)
            })
            .collect();
        Resident {
            harness,
            predictions,
        }
    }
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Metrics, String> {
    let specs = sweep_specs();
    let (resident, setup_s) = timed_setups(|_| Resident::build(&specs, tally));
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut e2e = EndToEnd::new(setup_s);
    let start = Instant::now();
    while e2e.wants_more(start, ctx.seconds) {
        rng.shuffle(&mut order);
        reset_peak_rss();
        let ((rate, requests), slowdown) = probed(|| {
            let pass = Instant::now();
            let mut predictions = 0;
            let mut requests = Vec::with_capacity(order.len());
            for &i in &order {
                let request = Instant::now();
                let bytes = batch_bytes(&resident.harness.run_sweep(&specs[i]));
                requests.push((specs[i].name, millis(request)));
                tally.check_report(specs[i].name, &bytes);
                predictions += resident.predictions[i];
            }
            (predictions as f64 / secs(pass), requests)
        });
        e2e.operation(slowdown, rate, requests);
    }
    Ok(e2e.metrics())
}
