//! Fault-injection and crash-resume integration tests: the ISSUE's
//! acceptance scenarios, end to end through the public harness API.
//!
//! Each test uses its own scratch cache directory and an explicit
//! in-process fault plan (never the environment), so the suite stays
//! deterministic under any test ordering or parallelism.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tlat_sim::{Faults, Harness, SchemeConfig, TraceStore};

const BUDGET: u64 = 20_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlat-faults-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn configs() -> Vec<SchemeConfig> {
    // Cheap, training-free schemes: the resilience machinery under test
    // is identical for every lane kind.
    vec![SchemeConfig::AlwaysTaken, SchemeConfig::Btfn]
}

fn cached_harness(cache: &Path) -> Harness {
    Harness::over(TraceStore::new(BUDGET).with_disk_cache(cache))
}

#[test]
fn recovered_cache_faults_leave_the_report_byte_identical() {
    let cache = scratch_dir("cache");
    // Warm the disk cache, then take the clean baseline from a fresh
    // harness that reads every trace back from disk.
    cached_harness(&cache).accuracy_table("fig10-smoke", &configs());
    let clean = cached_harness(&cache)
        .accuracy_table("fig10-smoke", &configs())
        .to_string();

    // One corrupted entry (evict + regenerate) and one transient I/O
    // error (bounded retry): recovery must be invisible in the output.
    let plan = Arc::new(Faults::parse("corrupt@0,io@1:7").unwrap());
    let faulted_harness = cached_harness(&cache).with_faults(plan);
    let faulted = faulted_harness.accuracy_table("fig10-smoke", &configs());
    assert!(
        faulted.failed_cells().is_empty(),
        "recovered faults must not fail cells: {:?}",
        faulted.failed_cells()
    );
    assert_eq!(
        faulted.to_string(),
        clean,
        "recovery must be byte-invisible"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn an_injected_panic_fails_exactly_its_own_cell() {
    let configs = configs();
    let clean = Harness::new(BUDGET).accuracy_table("panic-smoke", &configs);

    // Stable cell id 3 = workload 1 × 2 configs + config 1.
    let plan = Arc::new(Faults::parse("panic@3:42").unwrap());
    let harness = Harness::new(BUDGET).with_faults(plan);
    let faulted = harness.accuracy_table("panic-smoke", &configs);

    let failed = faulted.failed_cells();
    let workload = harness.workloads()[1].name;
    assert_eq!(failed.len(), 1, "exactly one cell must fail: {failed:?}");
    let (row, column, message) = failed[0];
    assert_eq!(row, configs[1].label());
    assert_eq!(column, workload);
    assert!(message.contains("injected fault"), "payload: {message}");
    assert!(message.contains("seed 42"), "payload: {message}");

    // The untouched row is bit-identical to the clean run; in the
    // panicked row only the failed cell and the (now blank) geometric
    // means may differ.
    assert_eq!(faulted.rows[0], clean.rows[0]);
    let n_workloads = harness.workloads().len();
    for wi in (0..n_workloads).filter(|&wi| wi != 1) {
        assert_eq!(faulted.rows[1].values[wi], clean.rows[1].values[wi]);
    }
    // Means over a set containing the failed cell go blank; the other
    // kind's mean is untouched.
    let failed_kind = harness.workloads()[1].kind;
    for (offset, kind) in [
        Some(tlat_workloads::WorkloadKind::Integer),
        Some(tlat_workloads::WorkloadKind::FloatingPoint),
        None,
    ]
    .into_iter()
    .enumerate()
    {
        let cell = &faulted.rows[1].values[n_workloads + offset];
        if kind.is_none() || kind == Some(failed_kind) {
            assert_eq!(*cell, tlat_sim::Cell::Blank, "mean column {offset}");
        } else {
            assert_eq!(*cell, clean.rows[1].values[n_workloads + offset]);
        }
    }
}

#[test]
fn a_tournament_whose_twin_failed_runs_whole() {
    // The taxonomy's tournament (config 6) takes its component guesses
    // from its fresh AT (config 4) and gshare (config 5) twins. Failing
    // the AT lane at build time on one workload leaves the tournament
    // there without a twin, so it runs whole and must score exactly as
    // in the clean run.
    let configs = tlat_sim::taxonomy();
    let clean = Harness::new(BUDGET).accuracy_table("twin-smoke", &configs);
    let wi = 2;
    let cell = wi * configs.len() + 4;
    let plan = Arc::new(Faults::parse(&format!("panic@{cell}:5")).unwrap());
    let harness = Harness::new(BUDGET).with_faults(plan);
    let faulted = harness.accuracy_table("twin-smoke", &configs);

    let failed = faulted.failed_cells();
    assert_eq!(failed.len(), 1, "exactly one cell must fail: {failed:?}");
    assert_eq!(failed[0].0, configs[4].label());
    assert_eq!(failed[0].1, harness.workloads()[wi].name);
    assert_eq!(faulted.to_string().matches('✗').count(), 1);
    assert_eq!(faulted.rows[6], clean.rows[6]);
}

#[test]
fn a_fully_journaled_sweep_resumes_with_zero_work() {
    let cache = scratch_dir("resume-full");
    let sweeps = cache.join("sweeps");
    let first = cached_harness(&cache).with_resume_root(&sweeps);
    let report = first.accuracy_table("resume-smoke", &configs()).to_string();
    assert_eq!(first.gang_walks(), first.workloads().len() as u64);

    let resumed = cached_harness(&cache).with_resume_root(&sweeps);
    let replayed = resumed
        .accuracy_table("resume-smoke", &configs())
        .to_string();
    assert_eq!(replayed, report, "replay must be byte-identical");
    assert_eq!(resumed.gang_walks(), 0, "no walk may re-run");
    assert_eq!(
        resumed.store().generations(),
        0,
        "no trace may be regenerated"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_killed_sweep_resumes_recomputing_only_the_missing_cells() {
    let cache = scratch_dir("resume-partial");
    let sweeps = cache.join("sweeps");
    let first = cached_harness(&cache).with_resume_root(&sweeps);
    let report = first.accuracy_table("kill-smoke", &configs()).to_string();

    // Simulate a kill mid-sweep: drop the journal records of three
    // cells across two workloads (exactly the on-disk state a crash
    // between atomic cell writes leaves behind).
    let journal_dir = std::fs::read_dir(&sweeps)
        .expect("journal root")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("one sweep journal");
    for name in ["c0-w3.cell", "c1-w3.cell", "c0-w5.cell"] {
        std::fs::remove_file(journal_dir.join(name)).expect(name);
    }

    let resumed = cached_harness(&cache).with_resume_root(&sweeps);
    let replayed = resumed.accuracy_table("kill-smoke", &configs()).to_string();
    assert_eq!(replayed, report, "resumed report must be byte-identical");
    assert_eq!(
        resumed.gang_walks(),
        2,
        "only the two workloads with missing cells may walk"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn resume_and_fault_injection_compose() {
    // A corrupted trace-cache entry during a resumed sweep: the evict +
    // regenerate path and the journal replay path must not interfere.
    let cache = scratch_dir("resume-faulted");
    let sweeps = cache.join("sweeps");
    let first = cached_harness(&cache).with_resume_root(&sweeps);
    let report = first
        .accuracy_table("compose-smoke", &configs())
        .to_string();

    let journal_dir = std::fs::read_dir(&sweeps)
        .expect("journal root")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("one sweep journal");
    std::fs::remove_file(journal_dir.join("c0-w2.cell")).unwrap();
    std::fs::remove_file(journal_dir.join("c1-w2.cell")).unwrap();

    let plan = Arc::new(Faults::parse("corrupt@0:3").unwrap());
    let resumed = cached_harness(&cache)
        .with_resume_root(&sweeps)
        .with_faults(plan);
    let replayed = resumed.accuracy_table("compose-smoke", &configs());
    assert!(replayed.failed_cells().is_empty());
    assert_eq!(replayed.to_string(), report);
    assert_eq!(resumed.gang_walks(), 1);
    let _ = std::fs::remove_dir_all(&cache);
}
