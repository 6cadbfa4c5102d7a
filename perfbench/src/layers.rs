//! The layer probe of a traced run: times calls into each layer's
//! public functions from this file, and reads the program's own
//! counters (`tlat_sim::metrics::Snapshot` deltas) around them. The
//! program itself gains no tracing.
//!
//! Layers, in pipeline order: `workloads` (program interpretation),
//! `trace` (TLA3 codec and stream compile), `diskcache`, `gang` (the
//! predictor walk), `pool` and `experiment` (the harness), `journal`,
//! and `serve`. Counts that must repeat exactly between runs are
//! collected as they are measured and checked against the first traced
//! run of the same build.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tlat_sim::gang::gang_simulate_compiled;
use tlat_sim::metrics::{Counter, Phase, Snapshot};
use tlat_sim::{
    sweep_specs, DiskCache, GangLane, Report, SchemeConfig, SimOptions, SweepJournal, SweepSpec,
    TraceKey,
};
use tlat_trace::{codec, CompiledTrace, Trace};
use tlat_workloads::Workload;

use crate::resident::Resident;
use crate::serve::{clients, post_sweep, Running};
use crate::util::{fnv64, probed, Dist, Metrics};
use crate::{batch_bytes, harness, millis, Ctx, Tally, BUDGET};

/// Passes over the codec measurements; each figure is their median.
const CODEC_REPS: usize = 3;

/// Passes over the gang walks; each figure is their minimum, and the
/// packing counts must agree between them.
const GANG_REPS: usize = 2;

/// Stores and loads of each cache entry; each time is the fastest of
/// them, and so is the codec time subtracted from it.
const DISK_REPS: usize = 3;

/// Renders per report for `experiment.render_us`.
const RENDER_REPS: usize = 20;

/// Memoized requests for `serve.memo_us`.
const MEMO_PROBE: usize = 100;

fn nanos(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// Exact counts of this run, by name.
type Counts = BTreeMap<String, String>;

/// Every test and training trace, and the compiled test streams.
struct Inputs {
    workloads: Vec<Workload>,
    tests: Vec<Trace>,
    trains: Vec<Option<Trace>>,
    compiled: Vec<CompiledTrace>,
}

pub fn run(
    ctx: &Ctx,
    state_root: &Path,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let specs = sweep_specs();
    let mut counts = Counts::new();
    let mut inputs = generate(out)?;
    trace_layer(&mut inputs, out, &mut counts, tally);
    let cache = ctx.scratch.join("probe-cache");
    disk_layer(&inputs, &cache, out, &mut counts, tally);
    gang_layer(&inputs, &specs, out, &mut counts, tally);
    drop(inputs);
    let reports = harness_layer(&specs, out, tally);
    journal_layer(ctx, &specs, &reports, out, tally);
    serve_layer(&specs, &cache, out, &mut counts, tally)?;
    check_counts(state_root, &counts, tally);
    let slowdowns = (0..5).map(|_| probed(|| ()).1).collect();
    out.push("host.slowdown", Dist::new(slowdowns).median(), "ratio");
    Ok(())
}

/// `workloads`: interpret every program at the budget.
fn generate(out: &mut Metrics) -> Result<Inputs, String> {
    let workloads = tlat_workloads::all();
    let (mut ns, mut records) = (0.0, 0u64);
    let mut tests = Vec::new();
    let mut trains = Vec::new();
    for w in &workloads {
        let fault = |e| format!("{}: {e:?}", w.name);
        let start = Instant::now();
        let test = w.trace_test(BUDGET).map_err(fault)?;
        ns += nanos(start);
        let start = Instant::now();
        let train = w.trace_train(BUDGET).map_err(fault)?;
        ns += nanos(start);
        records += (test.len() + train.as_ref().map_or(0, Trace::len)) as u64;
        tests.push(test);
        trains.push(train);
    }
    out.push("workloads.gen_ns_per_record", ns / records as f64, "ns");
    Ok(Inputs {
        workloads,
        tests,
        trains,
        compiled: Vec::new(),
    })
}

/// `trace`: compile, TLA3 encode, streaming decode, and decode followed
/// by compile, over the nine test traces; plus each stream's shape.
fn trace_layer(inputs: &mut Inputs, out: &mut Metrics, counts: &mut Counts, tally: &mut Tally) {
    let records: u64 = inputs.tests.iter().map(|t| t.len() as u64).sum();
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut bytes_total = 0u64;
    for rep in 0..CODEC_REPS {
        let mut pass = [0.0; 4];
        for test in &inputs.tests {
            let start = Instant::now();
            let compiled = CompiledTrace::compile(test);
            pass[0] += nanos(start);
            let start = Instant::now();
            let bytes = codec::encode_v3(test);
            pass[1] += nanos(start);
            let start = Instant::now();
            let streamed = codec::decode_compiled(&bytes);
            pass[2] += nanos(start);
            let start = Instant::now();
            let recompiled = codec::decode(&bytes).map(|t| CompiledTrace::compile(&t));
            pass[3] += nanos(start);
            if streamed.as_ref() == Ok(&compiled) && recompiled.as_ref() == Ok(&compiled) {
                tally.ok();
            } else {
                tally.fail("a decoded trace differs from its compiled source".to_owned());
            }
            if rep == 0 {
                bytes_total += bytes.len() as u64;
                inputs.compiled.push(compiled);
            }
        }
        for (series, t) in times.iter_mut().zip(pass) {
            series.push(t);
        }
    }
    let per_record = |series: &Vec<f64>| Dist::new(series.clone()).median() / records as f64;
    out.push("trace.compile_ns_per_record", per_record(&times[0]), "ns");
    out.push("trace.encode_ns_per_record", per_record(&times[1]), "ns");
    out.push("trace.decode_ns_per_record", per_record(&times[2]), "ns");
    out.push(
        "trace.decode_then_compile_ns_per_record",
        per_record(&times[3]),
        "ns",
    );
    out.push(
        "trace.bytes_per_record",
        bytes_total as f64 / records as f64,
        "B",
    );
    counts.insert("trace.bytes".to_owned(), bytes_total.to_string());
    for (w, c) in inputs.workloads.iter().zip(&inputs.compiled) {
        let sites = c.num_sites();
        let mean_run = c.len() as f64 / c.site_run_count().max(1) as f64;
        out.push(&format!("trace.sites.{}", w.name), sites as f64, "count");
        out.push(&format!("trace.mean_run.{}", w.name), mean_run, "events");
        counts.insert(format!("trace.sites.{}", w.name), sites.to_string());
        counts.insert(
            format!("trace.mean_run.{}", w.name),
            format!("{mean_run:?}"),
        );
    }
}

/// `diskcache`: a cold miss, then stores and streaming loads of every
/// trace, with the codec's share of store and load subtracted.
fn disk_layer(
    inputs: &Inputs,
    dir: &Path,
    out: &mut Metrics,
    counts: &mut Counts,
    tally: &mut Tally,
) {
    let _ = std::fs::remove_dir_all(dir);
    let cache = DiskCache::new(dir);
    let before = Snapshot::now();
    let (mut write_ns, mut read_ns) = (0.0, 0.0);
    for (wi, w) in inputs.workloads.iter().enumerate() {
        let roles = [
            ("test", Some(w.test_input()), Some(&inputs.tests[wi])),
            ("train", w.train_input(), inputs.trains[wi].as_ref()),
        ];
        for (role, input, trace) in roles {
            let (Some(input), Some(trace)) = (input, trace) else {
                continue;
            };
            let key = TraceKey {
                workload: w.name,
                role,
                input,
                budget: BUDGET,
            };
            let cold = cache.load_compiled(&key);
            let bytes = codec::encode_v3(trace);
            let decoded = codec::decode_compiled(&bytes).ok();
            let mut loaded = None;
            let mut best = [f64::INFINITY; 4];
            for _ in 0..DISK_REPS {
                let start = Instant::now();
                black_box(codec::encode_v3(trace));
                best[0] = best[0].min(nanos(start));
                let start = Instant::now();
                cache.store(&key, trace);
                best[1] = best[1].min(nanos(start));
                let start = Instant::now();
                black_box(codec::decode_compiled(&bytes).ok());
                best[2] = best[2].min(nanos(start));
                let start = Instant::now();
                loaded = cache.load_compiled(&key);
                best[3] = best[3].min(nanos(start));
            }
            write_ns += best[1] - best[0];
            read_ns += best[3] - best[2];
            if cold.is_none() && loaded.is_some() && loaded == decoded {
                tally.ok();
            } else {
                tally.fail(format!(
                    "{}/{role}: disk cache miss/store/load mismatch",
                    w.name
                ));
            }
        }
    }
    let delta = Snapshot::now().since(&before);
    out.push("diskcache.write_ms", write_ns / 1e6, "ms");
    out.push("diskcache.read_ms", read_ns / 1e6, "ms");
    for (name, counter, unit) in [
        ("hits", Counter::CacheHits, "count"),
        ("misses", Counter::CacheMisses, "count"),
        ("bytes_read", Counter::CacheBytesRead, "B"),
        ("bytes_written", Counter::CacheBytesWritten, "B"),
    ] {
        let value = delta.counter(counter);
        out.push(&format!("diskcache.{name}"), value as f64, unit);
        counts.insert(format!("diskcache.{name}"), value.to_string());
    }
}

/// The lane a sweep cell walks, built as `GangLane::from_config` builds
/// it: trained schemes train on the test trace, Diff training on the
/// training trace (no lane where the workload has none).
fn lane(config: &SchemeConfig, test: &Trace, train: Option<&Trace>) -> Option<GangLane> {
    let training = match (config.needs_training(), config.wants_diff_training()) {
        (false, _) => None,
        (true, false) => Some(test),
        (true, true) => Some(train?),
    };
    Some(GangLane::from_config(config, training))
}

/// `gang`: every sweep's lanes walked over every compiled stream by the
/// entry point the harness uses, single-threaded, lane building
/// excluded.
fn gang_layer(
    inputs: &Inputs,
    specs: &[SweepSpec],
    out: &mut Metrics,
    counts: &mut Counts,
    tally: &mut Tally,
) {
    let n = inputs.workloads.len();
    let mut per_event = vec![f64::INFINITY; specs.len()];
    let mut fig10_walks = vec![f64::INFINITY; n];
    let mut packing: Vec<Vec<[u64; 3]>> = vec![Vec::new(); specs.len()];
    for _ in 0..GANG_REPS {
        for (si, spec) in specs.iter().enumerate() {
            let before = Snapshot::now();
            let (mut ns, mut lane_events) = (0.0, 0u64);
            for (wi, (test, compiled)) in inputs.tests.iter().zip(&inputs.compiled).enumerate() {
                let mut lanes: Vec<GangLane> = spec
                    .configs
                    .iter()
                    .filter_map(|c| lane(c, test, inputs.trains[wi].as_ref()))
                    .collect();
                let start = Instant::now();
                let results =
                    gang_simulate_compiled(&mut lanes, compiled, Some(test), SimOptions::default());
                let walk = nanos(start);
                black_box(results);
                ns += walk;
                lane_events += (lanes.len() * compiled.len()) as u64;
                if spec.name == "fig10" {
                    fig10_walks[wi] = fig10_walks[wi].min(walk);
                }
            }
            per_event[si] = per_event[si].min(ns / lane_events as f64);
            let delta = Snapshot::now().since(&before);
            packing[si].push([
                delta.counter(Counter::LanesPacked),
                delta.counter(Counter::AtPacksFormed),
                delta.counter(Counter::LsPacksFormed),
            ]);
        }
    }
    for (si, spec) in specs.iter().enumerate() {
        out.push(
            &format!("gang.ns_per_lane_event.{}", spec.name),
            per_event[si],
            "ns",
        );
    }
    for (w, walk) in inputs.workloads.iter().zip(fig10_walks) {
        out.push(&format!("gang.walk_ms.{}", w.name), walk / 1e6, "ms");
    }
    for (spec, reps) in specs.iter().zip(&packing) {
        if reps.windows(2).all(|pair| pair[0] == pair[1]) {
            tally.ok();
        } else {
            tally.fail(format!(
                "{}: packing counts differ between walks",
                spec.name
            ));
        }
        let names = ["lanes_packed", "at_packs", "ls_packs"];
        for (name, value) in names.iter().zip(reps[0]) {
            out.push(&format!("gang.{name}.{}", spec.name), value as f64, "count");
            counts.insert(format!("gang.{name}.{}", spec.name), value.to_string());
        }
    }
}

/// `pool` and `experiment`: each sweep through a resident harness on one
/// thread and on the pool, the harness's time outside the walks, and
/// the report render. Returns the pooled reports.
fn harness_layer(specs: &[SweepSpec], out: &mut Metrics, tally: &mut Tally) -> Vec<Report> {
    let resident = Resident::build(specs, tally);
    let harness = &resident.harness;
    let width = tlat_sim::threads_from_env();
    let walk_ns = |since: &Snapshot| Snapshot::now().since(since).span(Phase::GangWalk).0 as f64;
    let (mut outside_ms, mut busy_ns, mut pooled_ms, mut render_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut reports = Vec::new();
    for spec in specs {
        let before = Snapshot::now();
        let start = Instant::now();
        let single = harness.accuracy_table_on(spec.title, &spec.configs, 1);
        let single_ms = millis(start);
        outside_ms += single_ms - walk_ns(&before) / 1e6;
        if single.failed_cells().is_empty() {
            tally.ok();
        } else {
            tally.fail(format!("{}: failed cells on one thread", spec.name));
        }
        let before = Snapshot::now();
        let start = Instant::now();
        let report = harness.run_sweep(spec);
        let pool_ms = millis(start);
        busy_ns += walk_ns(&before);
        pooled_ms += pool_ms;
        tally.check_report(spec.name, &batch_bytes(&report));
        out.push(
            &format!("pool.speedup.{}", spec.name),
            single_ms / pool_ms,
            "x",
        );
        let start = Instant::now();
        for _ in 0..RENDER_REPS {
            black_box(report.to_string());
        }
        render_ns += nanos(start);
        reports.push(report);
    }
    let sweeps = specs.len() as f64;
    out.push("pool.width", width as f64, "threads");
    out.push(
        "pool.busy_share",
        busy_ns / 1e6 / (width as f64 * pooled_ms),
        "ratio",
    );
    out.push("experiment.overhead_ms", outside_ms / sweeps, "ms");
    out.push(
        "experiment.render_us",
        render_ns / 1e3 / (sweeps * RENDER_REPS as f64),
        "us",
    );
    reports
}

/// `journal`: every cell of every sweep recorded (each write fsync'd),
/// then each sweep's journal replayed.
fn journal_layer(
    ctx: &Ctx,
    specs: &[SweepSpec],
    reports: &[Report],
    out: &mut Metrics,
    tally: &mut Tally,
) {
    let root = ctx.scratch.join("probe-journal");
    let names: Vec<&str> = tlat_workloads::all().iter().map(|w| w.name).collect();
    let (mut record_ns, mut records, mut load_ns) = (0.0, 0usize, 0.0);
    for (spec, report) in specs.iter().zip(reports) {
        let labels: Vec<String> = spec.configs.iter().map(SchemeConfig::label).collect();
        let journal = SweepJournal::open(&root, spec.title, &labels, &names, BUDGET);
        let mut recorded = 0;
        for (ci, row) in report.rows.iter().enumerate() {
            for (wi, cell) in row.values.iter().take(names.len()).enumerate() {
                let start = Instant::now();
                journal.record(ci, wi, cell);
                record_ns += nanos(start);
                recorded += 1;
            }
        }
        records += recorded;
        let start = Instant::now();
        let replayed = journal.load();
        load_ns += nanos(start);
        if replayed.len() == recorded {
            tally.ok();
        } else {
            tally.fail(format!(
                "{}: journal replayed {} of {recorded}",
                spec.name,
                replayed.len()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    out.push("journal.record_us", record_ns / 1e3 / records as f64, "us");
    out.push("journal.load_ms", load_ns / 1e6 / specs.len() as f64, "ms");
}

/// `serve`: each sweep batch-run by a fresh harness and then requested
/// from a fresh server over the same warm cache (the difference is the
/// serving overhead), memoized requests, and the coalesced share of two
/// clients requesting every sweep from another fresh server.
fn serve_layer(
    specs: &[SweepSpec],
    cache: &Path,
    out: &mut Metrics,
    counts: &mut Counts,
    tally: &mut Tally,
) -> Result<(), String> {
    let batch = harness(Some(cache));
    let batch_ms: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let start = Instant::now();
            let bytes = batch_bytes(&batch.run_sweep(spec));
            let ms = millis(start);
            tally.check_report(spec.name, &bytes);
            ms
        })
        .collect();
    drop(batch);
    let server = Running::start(cache, None)?;
    let mut overhead_ms = 0.0;
    for (spec, batch) in specs.iter().zip(&batch_ms) {
        overhead_ms += post_sweep(server.addr, spec, tally).0 - batch;
    }
    let memo: Vec<f64> = (0..MEMO_PROBE)
        .map(|i| post_sweep(server.addr, &specs[i % specs.len()], tally).0 * 1e3)
        .collect();
    server.stop()?;
    out.push("serve.memo_us", Dist::new(memo).median(), "us");
    out.push(
        "serve.sweep_overhead_ms",
        overhead_ms / specs.len() as f64,
        "ms",
    );

    let server = Running::start(cache, None)?;
    let before = Snapshot::now();
    clients(tally, |_, tally| {
        for spec in specs {
            post_sweep(server.addr, spec, tally);
        }
    });
    let coalesced = Snapshot::now()
        .since(&before)
        .counter(Counter::RequestsCoalesced);
    server.stop()?;
    let requests = specs.len() * crate::serve::CLIENTS;
    out.push(
        "serve.coalesced_share",
        coalesced as f64 / requests as f64,
        "ratio",
    );
    counts.insert("serve.coalesced".to_owned(), coalesced.to_string());
    Ok(())
}

/// Checks this run's exact counts against the first traced run of the
/// same build (keyed by the executable's digest), recording them when
/// this run is the first.
fn check_counts(state_root: &Path, counts: &Counts, tally: &mut Tally) {
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv64(&bytes));
    let path = state_root.join(format!("counts-{build:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => {
            println!(
                "exact counts: {} repeat those of an earlier traced run",
                counts.len()
            );
            tally.ok();
        }
        Ok(earlier) => {
            let differ: Vec<&str> = text
                .lines()
                .filter(|line| !earlier.lines().any(|e| e == *line))
                .collect();
            tally.fail(format!("exact counts changed between runs: {differ:?}"));
        }
        Err(_) => {
            let _ = std::fs::write(&path, text);
            println!(
                "exact counts: {} recorded for later traced runs",
                counts.len()
            );
            tally.ok();
        }
    }
}
