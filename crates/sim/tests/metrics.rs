//! Sweep-level telemetry tests: the observability layer's acceptance
//! scenarios, end to end through the public harness API.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one mutex and leaves recording disabled and zeroed on exit. This
//! integration binary runs as its own process, so toggling the switch
//! cannot race the unit tests of the library crate.

use std::sync::Mutex;
use tlat_core::{AutomatonKind, HrtConfig};
use tlat_sim::metrics::{self, Counter};
use tlat_sim::{DiskCache, Harness, SchemeConfig, TraceKey, TrainingData};
use tlat_workloads::DataSet;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small sweep exercising every cell-outcome class the telemetry
/// distinguishes: computed cells everywhere, plus Diff training for
/// the paper's Table 3 blanks.
fn configs() -> Vec<SchemeConfig> {
    vec![
        SchemeConfig::at(HrtConfig::ahrt(512), 8, AutomatonKind::A2),
        SchemeConfig::st(HrtConfig::Ideal, 8, TrainingData::Diff),
        SchemeConfig::Btfn,
    ]
}

#[test]
fn recording_never_changes_report_output() {
    let _guard = lock();
    let harness = Harness::new(5_000);
    metrics::set_enabled(false);
    metrics::reset();
    let off = harness.accuracy_table("telemetry", &configs()).to_string();
    metrics::set_enabled(true);
    metrics::reset();
    let on = harness.accuracy_table("telemetry", &configs()).to_string();
    metrics::set_enabled(false);
    metrics::reset();
    assert_eq!(on, off, "a metrics-enabled sweep must render byte-identically");
}

#[test]
fn gang_and_sequential_agree_on_invariant_counters() {
    let _guard = lock();
    metrics::set_enabled(true);
    metrics::reset();
    // Fresh harnesses per engine, so each pays its own trace
    // generations instead of hitting the other's in-memory store.
    let gang_harness = Harness::new(5_000);
    let before = metrics::Snapshot::now();
    gang_harness.accuracy_table_on("invariant", &configs(), 2);
    let gang = metrics::Snapshot::now().since(&before);

    let seq_harness = Harness::new(5_000);
    let before = metrics::Snapshot::now();
    seq_harness.accuracy_table_sequential("invariant", &configs());
    let seq = metrics::Snapshot::now().since(&before);
    metrics::set_enabled(false);
    metrics::reset();

    assert_eq!(
        gang.invariant_counters(),
        seq.invariant_counters(),
        "engine-invariant counters must total identically across engines"
    );
    // The totals are real, not trivially zero.
    assert!(gang.counter(Counter::CellsComputed) > 0);
    assert!(gang.counter(Counter::CellsBlank) > 0, "Diff rows have Table 3 blanks");
    assert!(gang.counter(Counter::TraceGenerations) > 0);
    // The engine-dependent class really is engine-dependent: the gang
    // engine walks once per workload, the sequential path once per
    // computed cell.
    assert!(
        gang.counter(Counter::TraceWalks) < seq.counter(Counter::TraceWalks),
        "gang {} walks vs sequential {}",
        gang.counter(Counter::TraceWalks),
        seq.counter(Counter::TraceWalks)
    );
}

#[test]
fn emitted_file_round_trips_through_check_and_summarize() {
    let _guard = lock();
    metrics::set_enabled(true);
    metrics::reset();
    let harness = Harness::new(2_000);
    harness.accuracy_table("roundtrip", &configs());
    let path = std::env::temp_dir().join(format!(
        "tlat-metrics-it-{}.jsonl",
        std::process::id()
    ));
    metrics::write_jsonl(&path).expect("telemetry file must write");
    metrics::set_enabled(false);
    metrics::reset();

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let file = metrics::check(&text).expect("emitted telemetry must validate");
    assert_eq!(file.schema, metrics::SCHEMA_VERSION);
    assert!(file.counters["cells_computed"] > 0);
    assert!(file.counters["cells_blank"] > 0);
    // Cell records carry the (workload, family) grouping.
    assert!(file.cells.keys().any(|(w, f)| w == "gcc" && f == "AT"));
    let summary = metrics::summarize(&file);
    assert!(summary.contains("cells_computed"));
    assert!(summary.contains("gang_walk"));
    assert!(summary.contains("gcc"));
}

#[test]
fn disabled_recording_accumulates_nothing_across_a_sweep() {
    let _guard = lock();
    metrics::set_enabled(false);
    metrics::reset();
    let harness = Harness::new(2_000);
    harness.accuracy_table("off", &configs());
    let snap = metrics::Snapshot::now();
    for counter in Counter::ALL {
        assert_eq!(snap.counter(counter), 0, "{} accumulated while off", counter.name());
    }
}

#[test]
fn stale_tla2_entry_is_a_plain_miss() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("tlat-stale-entry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = DiskCache::new(&dir);
    let input = DataSet::new("unit", 9, 2);
    let key = TraceKey {
        workload: "synthetic",
        role: "test",
        input: &input,
        budget: 400,
    };
    // What an older build left behind: an (empty) TLA2 record file,
    // magic plus zeroed mix and record counts, under the old name.
    let stale = cache.path_for(&key).with_extension("tla2");
    let mut bytes = b"TLA2".to_vec();
    bytes.resize(4 + 6 * 8, 0);
    std::fs::write(&stale, &bytes).unwrap();

    metrics::set_enabled(true);
    metrics::reset();
    let before = metrics::Snapshot::now();
    assert!(cache.load(&key).is_none(), "a stale entry must not hit");
    let after_load = metrics::Snapshot::now();
    assert!(
        cache.load_compiled(&key).is_none(),
        "a stale entry must not hit"
    );
    let after_compiled = metrics::Snapshot::now();
    metrics::set_enabled(false);
    metrics::reset();

    for delta in [after_load.since(&before), after_compiled.since(&after_load)] {
        assert_eq!(delta.counter(Counter::CacheMisses), 1);
        assert_eq!(delta.counter(Counter::CacheHits), 0);
        assert_eq!(delta.counter(Counter::CacheBytesRead), 0);
    }
    assert_eq!(
        std::fs::read(&stale).unwrap(),
        bytes,
        "the stale file is left untouched"
    );
    assert!(!cache.path_for(&key).exists(), "nothing is migrated");
    let _ = std::fs::remove_dir_all(&dir);
}
