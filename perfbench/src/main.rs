//! The repository benchmark.
//!
//! Runs one workload against the `tlat-sim` library at the default
//! 500 k-branch budget and prints every metric by name, ending with one
//! JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resident-figures --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with program telemetry
//! off (except where `Server::bind` turns it on). `--trace 1` repeats
//! the workload with telemetry on and then runs the layer probe
//! ([`layers`]), which times calls into each layer's public functions
//! and reads the program's own counters and spans. METRICS.md documents
//! every workload and metric.
//!
//! `--record-digests` prints the reference digest of every registered
//! sweep's batch report; its output is `digests.txt`, against which
//! every report the benchmark sees is checked.

mod cold;
mod layers;
mod resident;
mod serve;
mod util;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tlat_sim::{metrics, Harness, SweepSpec, TraceStore};
use util::{fnv64, Dist, Metrics};

/// Conditional branches per trace: the program's default budget.
pub const BUDGET: u64 = tlat_sim::DEFAULT_BRANCH_LIMIT;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Reference digests of every sweep's batch report at [`BUDGET`].
const DIGESTS: &str = include_str!("../digests.txt");

/// The workloads, in the order METRICS.md describes them.
const WORKLOADS: [&str; 3] = ["resident-figures", "cold-start", "serve-restart"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Permutes operation order; never changes the data sets.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Per-run scratch directory (removed when the run ends).
    pub scratch: PathBuf,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed, and why.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// Adds another tally's counts (a client thread's) to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Counts one operation whose result is the batch report of
    /// `sweep`: it fails on a `✗` cell or a digest that differs from
    /// the reference.
    pub fn check_report(&mut self, sweep: &str, bytes: &[u8]) {
        match report_problem(sweep, bytes) {
            None => self.ok(),
            Some(why) => self.fail(why),
        }
    }
}

/// Why a sweep's report bytes are wrong, or `None` when they match the
/// reference digest.
fn report_problem(sweep: &str, bytes: &[u8]) -> Option<String> {
    if String::from_utf8_lossy(bytes).contains('✗') {
        return Some(format!("{sweep}: report has a failed cell"));
    }
    let expected = DIGESTS
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(name, _)| *name == sweep)
        .map(|(_, digest)| digest.trim());
    let actual = format!("{:016x}", fnv64(bytes));
    match expected {
        Some(digest) if digest == actual => None,
        Some(digest) => Some(format!("{sweep}: digest {actual}, expected {digest}")),
        None => Some(format!("{sweep}: no reference digest")),
    }
}

/// The exact bytes `tlat sweep <name>` prints: the report and a newline.
pub fn batch_bytes(report: &tlat_sim::Report) -> Vec<u8> {
    let mut bytes = report.to_string().into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Predictions one run of `spec` computes: for each cell that is not
/// blank, the conditional branches of its workload's test trace, read
/// from the compiled streams `harness` holds or loads. A cell is blank
/// where a Diff-trained scheme meets a workload with no training data
/// set (the paper's Table 3 exclusions).
pub fn predictions(harness: &Harness, spec: &SweepSpec) -> u64 {
    harness
        .workloads()
        .iter()
        .map(|w| {
            let cells = spec
                .configs
                .iter()
                .filter(|c| !(c.wants_diff_training() && w.train_input().is_none()))
                .count();
            cells as u64 * harness.store().test_compiled(w).len() as u64
        })
        .sum()
}

/// A fresh harness over an in-memory store at [`BUDGET`], with an
/// optional trace cache directory. Built explicitly so no `TLAT_*`
/// variable can change what is measured.
pub fn harness(cache: Option<&std::path::Path>) -> Harness {
    let store = TraceStore::new(BUDGET);
    Harness::over(match cache {
        Some(dir) => store.with_disk_cache(dir),
        None => store,
    })
}

/// Seconds since `start`, as a float.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`, as a float.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUPS`] times, keeping the last result, and returns
/// it with the median set-up time in seconds, each divided by the host
/// slowdown measured around it. Each earlier result is dropped before
/// the next set-up starts.
pub fn timed_setups<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let ((value, seconds), slowdown) = util::probed(|| {
            let start = Instant::now();
            let value = setup(i);
            (value, secs(start))
        });
        kept = Some(value);
        times.push(seconds / slowdown);
    }
    let kept = kept.expect("SETUPS is positive");
    (kept, Dist::new(times).median())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn record_digests() {
    let harness = harness(None);
    for spec in tlat_sim::sweep_specs() {
        let bytes = batch_bytes(&harness.run_sweep(&spec));
        println!("{} {:016x}", spec.name, fnv64(&bytes));
    }
}

fn main() {
    // Hermetic: no TLAT_* variable (budget, cache, faults, resume,
    // threads, serve backlog) may change what is measured. Removed
    // before any thread starts.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TLAT_") {
            std::env::remove_var(key);
        }
    }
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("--record-digests") {
        record_digests();
        return;
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_scratch");
    let scratch = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        scratch: scratch.clone(),
    };
    let result = run(&args, &ctx, &root);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, ctx: &Ctx, state_root: &std::path::Path) -> Result<(), String> {
    let width = tlat_sim::threads_from_env();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} budget={BUDGET} pool_width={width}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    if args.trace {
        metrics::set_enabled(true);
    }
    let before = metrics::Snapshot::now();
    let e2e = match args.workload.as_str() {
        "resident-figures" => resident::run(ctx, &mut tally)?,
        "cold-start" => cold::run(ctx, &mut tally)?,
        _ => serve::run(ctx, &mut tally)?,
    };
    let reported = if args.trace {
        // The workload's own end-to-end figures, measured with program
        // telemetry on: traced minus untraced is the tracing overhead.
        e2e.print("traced ");
        let mut per_layer = Metrics::default();
        per_layer.push("traced.setup_s", e2e.value("setup_s"), "s");
        layers::run(ctx, state_root, &mut per_layer, &mut tally)?;
        let spans = metrics::Snapshot::now().since(&before);
        for phase in metrics::Phase::ALL {
            let (ns, _) = spans.span(phase);
            per_layer.push(&format!("span.{}_ms", phase.name()), ns as f64 / 1e6, "ms");
        }
        per_layer
    } else {
        e2e
    };
    reported.print("");
    for why in &tally.reasons {
        eprintln!("perfbench: failed: {why}");
    }
    println!(
        "operations attempted={} failed={}",
        tally.attempted, tally.failed
    );
    println!("{}", reported.json(&tally));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig10_reference() -> String {
        DIGESTS
            .lines()
            .find(|l| l.starts_with("fig10 "))
            .expect("fig10 has a reference digest")
            .to_owned()
    }

    #[test]
    fn a_wrong_digest_counts_as_a_failed_operation() {
        let mut tally = Tally::default();
        tally.check_report("fig10", b"not the fig10 report\n");
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.reasons[0].contains("digest"), "{:?}", tally.reasons);
        assert!(fig10_reference().len() > "fig10 ".len());
    }

    #[test]
    fn failed_cells_and_unknown_sweeps_count_as_failures() {
        let mut tally = Tally::default();
        tally.check_report("fig10", "AT ✗\n".as_bytes());
        tally.check_report("no-such-sweep", b"x");
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload cold-start --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
    }
}
