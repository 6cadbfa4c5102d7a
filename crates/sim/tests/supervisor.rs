//! Supervised multi-process sweep integration tests: shard slicing,
//! crash-restart under injected abort faults, strike-limit exhaustion,
//! heartbeat-timeout kills, and journal checksum recovery — end to end
//! through real worker processes.
//!
//! Worker processes are this same test binary re-executed with a
//! libtest filter selecting [`worker_entry`], which does nothing
//! unless the `SUP_IT_CACHE` marker variable is set. All worker
//! configuration travels through `Command::env`, never through
//! in-process `set_var`, so the suite stays safe under parallel test
//! execution.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;
use tlat_sim::{supervisor, Faults, Harness, SchemeConfig, Shard, SupervisorOptions, TraceStore};

const BUDGET: u64 = 20_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlat-sup-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn configs() -> Vec<SchemeConfig> {
    // Cheap, training-free schemes: the supervision machinery under
    // test is identical for every lane kind.
    vec![SchemeConfig::AlwaysTaken, SchemeConfig::Btfn]
}

fn cached_harness(cache: &Path) -> Harness {
    Harness::over(TraceStore::new(BUDGET).with_disk_cache(cache))
}

fn journaled_harness(cache: &Path) -> Harness {
    cached_harness(cache).with_resume_root(cache.join("sweeps"))
}

/// Builds the worker `Command` factory for a supervised test: the
/// current test binary, filtered down to [`worker_entry`], configured
/// entirely through its environment.
fn worker_factory<'a>(
    cache: &'a Path,
    title: &'a str,
    faults: Option<&'a str>,
    hang: bool,
) -> impl FnMut(Shard) -> Command + 'a {
    let exe = std::env::current_exe().expect("test binary path");
    move |shard: Shard| {
        let mut cmd = Command::new(&exe);
        cmd.args(["worker_entry", "--exact", "--nocapture"]);
        cmd.env("SUP_IT_CACHE", cache);
        cmd.env("SUP_IT_TITLE", title);
        cmd.env(supervisor::SHARD_ENV, shard.to_string());
        cmd.env_remove(supervisor::WORKERS_ENV);
        // One pool worker keeps the cell-evaluation order (and with it
        // the abort fault's landing point) deterministic per attempt.
        cmd.env("TLAT_THREADS", "1");
        match faults {
            Some(plan) => cmd.env("TLAT_FAULTS", plan),
            None => cmd.env_remove("TLAT_FAULTS"),
        };
        if hang {
            cmd.env("SUP_IT_HANG", "1");
        } else {
            cmd.env_remove("SUP_IT_HANG");
        }
        cmd.stdout(Stdio::null());
        cmd.stderr(Stdio::null());
        cmd
    }
}

/// Fast-cadence options so restart/backoff tests finish in
/// milliseconds, not the production 50 ms / 2 s schedule.
fn quick_opts(workers: u32) -> SupervisorOptions {
    let mut opts = SupervisorOptions::new(workers);
    opts.backoff_base = Duration::from_millis(1);
    opts.backoff_cap = Duration::from_millis(20);
    opts.poll = Duration::from_millis(5);
    opts.worker_timeout = None;
    opts
}

/// Re-exec entry point, not a test of its own: computes one shard of a
/// sweep when spawned by a supervised test, returns immediately in a
/// normal suite run.
#[test]
fn worker_entry() {
    let Ok(cache) = std::env::var("SUP_IT_CACHE") else {
        return;
    };
    if std::env::var("SUP_IT_HANG").is_ok() {
        // Simulated hang: never heartbeat, never exit; the supervisor
        // must kill this process on liveness timeout.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let title = std::env::var("SUP_IT_TITLE").expect("SUP_IT_TITLE set by the spawning test");
    let shard = Shard::from_env().expect("TLAT_SHARD set by the spawning test");
    let cache = PathBuf::from(cache);
    let harness = journaled_harness(&cache)
        .with_shard(shard)
        .with_faults(Faults::from_env());
    harness.accuracy_table(&title, &configs());
}

#[test]
fn every_cell_is_admitted_by_exactly_one_shard() {
    let cache = scratch_dir("partition");
    let harness = journaled_harness(&cache);
    let journal = harness
        .sweep_journal("partition-smoke", &configs())
        .expect("journaled harness always has a sweep journal");
    let fingerprint = journal.fingerprint();
    let n_cells = (configs().len() * harness.workloads().len()) as u64;
    for count in [1u32, 2, 3, 5] {
        for cell in 0..n_cells {
            let admitted: Vec<u32> = (0..count)
                .filter(|&index| Shard { index, count }.admits(fingerprint, cell))
                .collect();
            assert_eq!(
                admitted.len(),
                1,
                "cell {cell} over {count} shards admitted by {admitted:?}"
            );
            assert_eq!(admitted[0], supervisor::shard_of(fingerprint, cell, count));
        }
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn supervised_run_with_aborting_workers_matches_the_clean_run() {
    let title = "supervised-smoke";
    let cache = scratch_dir("supervised");
    // Clean single-process baseline; this also warms the trace cache
    // so worker attempts spend their time on simulation, not codegen.
    let clean = cached_harness(&cache)
        .accuracy_table(title, &configs())
        .to_string();

    // Every worker hard-exits (no unwind, no journal flush beyond what
    // already landed) at its third cell evaluation of each attempt.
    // Batches are two cells at most, so each attempt still lands at
    // least one workload batch: crash-restart converges.
    let harness = journaled_harness(&cache);
    let mut make_worker = worker_factory(&cache, title, Some("abort@2:7"), false);
    let (report, outcomes) = supervisor::run_supervised(
        &harness,
        title,
        &configs(),
        &mut make_worker,
        &quick_opts(2),
    )
    .expect("journaled harness supervises");

    assert_eq!(
        report.to_string(),
        clean,
        "supervised report must be byte-identical to the clean run"
    );
    assert!(
        report.failed_cells().is_empty(),
        "no cell may fail: {:?}",
        report.failed_cells()
    );
    for o in &outcomes {
        assert!(!o.exhausted, "shard {} exhausted: {o:?}", o.shard);
        assert!(
            o.restarts >= 1,
            "every worker must die at least once under abort@2: {o:?}"
        );
        assert!(o.landed > 0, "shard {} landed nothing: {o:?}", o.shard);
    }
    let total_landed: usize = outcomes.iter().map(|o| o.landed).sum();
    assert_eq!(
        total_landed,
        configs().len() * harness.workloads().len(),
        "shards must jointly land every cell exactly once"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn strike_limit_exhaustion_degrades_to_failed_cells() {
    let title = "exhaust-smoke";
    let cache = scratch_dir("exhaust");
    // Warm the trace cache so worker attempts are cheap.
    cached_harness(&cache).accuracy_table(title, &configs());

    // abort@0 kills each worker at its very first evaluation: nothing
    // ever lands, strikes never reset, and the lone shard burns
    // through the limit.
    let harness = journaled_harness(&cache);
    let mut make_worker = worker_factory(&cache, title, Some("abort@0:7"), false);
    let mut opts = quick_opts(1);
    opts.strike_limit = 2;
    let (report, outcomes) =
        supervisor::run_supervised(&harness, title, &configs(), &mut make_worker, &opts)
            .expect("journaled harness supervises");

    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].exhausted, "shard must exhaust: {outcomes:?}");
    assert_eq!(outcomes[0].spawns, opts.strike_limit, "{outcomes:?}");
    let failed = report.failed_cells();
    assert_eq!(
        failed.len(),
        configs().len() * harness.workloads().len(),
        "every cell must render failed: {failed:?}"
    );
    assert!(
        failed.iter().all(|(_, _, m)| m.contains("exhausted")),
        "footnotes must name the exhausted shard: {failed:?}"
    );
    let rendered = report.to_string();
    assert!(
        rendered.contains('✗'),
        "degraded cells render ✗:\n{rendered}"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn hung_workers_are_killed_on_heartbeat_timeout() {
    let title = "hang-smoke";
    let cache = scratch_dir("hang");
    cached_harness(&cache).accuracy_table(title, &configs());

    // The worker sleeps forever without ever heartbeating; the
    // supervisor must kill it on staleness, and since every restart
    // hangs the same way, the shard exhausts through timeout kills.
    let harness = journaled_harness(&cache);
    let mut make_worker = worker_factory(&cache, title, None, true);
    let mut opts = quick_opts(1);
    opts.strike_limit = 2;
    opts.worker_timeout = Some(Duration::from_millis(250));
    let (report, outcomes) =
        supervisor::run_supervised(&harness, title, &configs(), &mut make_worker, &opts)
            .expect("journaled harness supervises");

    assert!(outcomes[0].exhausted, "{outcomes:?}");
    assert_eq!(
        outcomes[0].timeouts, opts.strike_limit,
        "every death must be a timeout kill: {outcomes:?}"
    );
    assert!(!report.failed_cells().is_empty());
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_corrupted_journal_cell_is_evicted_and_recomputed() {
    let title = "corrupt-smoke";
    let cache = scratch_dir("corrupt");
    let first = journaled_harness(&cache);
    let report = first.accuracy_table(title, &configs()).to_string();

    // Flip payload bytes of one landed record (checksum now stale) —
    // the bit-rot a crash mid-write or a bad disk leaves behind.
    let journal_dir = std::fs::read_dir(cache.join("sweeps"))
        .expect("journal root")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("one sweep journal");
    let victim = journal_dir.join("c0-w1.cell");
    let mut bytes = std::fs::read(&victim).expect("landed cell");
    bytes[2] ^= 0x55;
    std::fs::write(&victim, &bytes).expect("rewrite cell");

    let resumed = journaled_harness(&cache);
    let replayed = resumed.accuracy_table(title, &configs()).to_string();
    assert_eq!(replayed, report, "recovery must be byte-invisible");
    assert_eq!(
        resumed.gang_walks(),
        1,
        "only the workload with the evicted cell may walk"
    );
    assert!(
        !victim.exists() || std::fs::read(&victim).expect("cell").ne(&bytes),
        "the corrupt record must not survive"
    );
    let _ = std::fs::remove_dir_all(&cache);
}
