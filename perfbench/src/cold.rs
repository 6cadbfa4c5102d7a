//! `cold-start`: a user's first `tlat fig 10` over an empty trace cache
//! (interpret, TLA3 encode and write, compile, walk), then reruns over
//! the now-warm cache (TLA3 read and streaming decode, then walk), each
//! through a fresh harness. Each fig10 run is one request.

use std::path::Path;
use std::time::Instant;

use tlat_sim::{sweep_spec, SweepSpec};

use crate::util::{probed, reset_peak_rss, EndToEnd, Metrics};
use crate::{batch_bytes, harness, millis, predictions, secs, timed_setups, Ctx, Tally};

/// Reruns over the warm cache per cold run. With two, reruns are two
/// thirds of all requests, so the request median falls among the
/// reruns and the tail among the cold runs, never between the two.
const RERUNS: usize = 2;

/// One operation: fig10 over an empty cache directory, then [`RERUNS`]
/// more times over the same directory. Returns each run's kind and
/// latency in milliseconds, and the predictions one fig10 run computes.
fn cold_then_reruns(
    spec: &SweepSpec,
    dir: &Path,
    tally: &mut Tally,
) -> (Vec<(&'static str, f64)>, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut computed = 0;
    let mut fig10 = |kind| {
        let start = Instant::now();
        let harness = harness(Some(dir));
        let report = harness.run_sweep(spec);
        let bytes = batch_bytes(&report);
        let ms = millis(start);
        tally.check_report(spec.name, &bytes);
        computed = predictions(&harness, spec);
        (kind, ms)
    };
    let mut requests = vec![fig10("cold_fig10")];
    for _ in 0..RERUNS {
        requests.push(fig10("rerun_fig10"));
    }
    let _ = std::fs::remove_dir_all(dir);
    (requests, computed)
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Metrics, String> {
    let spec = sweep_spec("fig10").ok_or("fig10 is not registered")?;
    let dir = ctx.scratch.join("cold-cache");
    // Set-up is one unmeasured operation, which also faults in the
    // program's code and the allocator's arenas.
    let ((), setup_s) = timed_setups(|_| {
        cold_then_reruns(&spec, &dir, tally);
    });
    let mut e2e = EndToEnd::new(setup_s);
    let start = Instant::now();
    while e2e.wants_more(start, ctx.seconds) {
        reset_peak_rss();
        let (((requests, computed), seconds), slowdown) = probed(|| {
            let op = Instant::now();
            let result = cold_then_reruns(&spec, &dir, tally);
            (result, secs(op))
        });
        let rate = (computed * requests.len() as u64) as f64 / seconds;
        e2e.operation(slowdown, rate, requests);
    }
    Ok(e2e.metrics())
}
