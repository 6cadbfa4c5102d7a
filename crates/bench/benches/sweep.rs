//! Sweep throughput: the Figure 10 head-to-head sweep through the
//! single-pass gang engine (with and without the worker pool) against
//! the per-configuration baseline that walks the trace once per cell,
//! plus the Figure 5 automaton sweep — four Two-Level lanes on one
//! AHRT geometry, each walking the stream alone on one shared probe
//! log.
//!
//! Run with `cargo bench --bench sweep`. Five BENCHJSON lines are
//! emitted (`fig10_per_config_baseline`, `fig10_gang_1thread`,
//! `fig10_gang_pool`, `fig5_per_config_baseline`, `fig5_gang_pool`)
//! plus derived speedup lines; `scripts/ci.sh` captures them into
//! `target/ci-bench/BENCH_sweep.json` in smoke mode.

use tlat_bench::runner::Runner;
use tlat_core::{AutomatonKind, HrtConfig};
use tlat_sim::{SchemeConfig, TrainingData};

fn main() {
    let harness = tlat_bench::harness("sweep");
    // Trace generation is not what this bench measures.
    harness.prewarm();

    // The Figure 10 sweep: the paper's head-to-head comparison.
    let configs = vec![
        SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        SchemeConfig::st(HrtConfig::ahrt(512), 12, TrainingData::Same),
        SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
        SchemeConfig::Profile,
        SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
    ];
    let cells = (configs.len() * harness.workloads().len()) as u64;

    let mut group = Runner::new("sweep");
    group.plan(1, 5);
    let baseline = group
        .throughput(cells)
        .bench("fig10_per_config_baseline", || {
            harness
                .accuracy_table_sequential("fig10", &configs)
                .to_string()
                .len()
        });
    group.plan(1, 5);
    let gang = group.throughput(cells).bench("fig10_gang_1thread", || {
        harness
            .accuracy_table_on("fig10", &configs, 1)
            .to_string()
            .len()
    });
    group.plan(1, 5);
    let pooled = group.throughput(cells).bench("fig10_gang_pool", || {
        harness.accuracy_table("fig10", &configs).to_string().len()
    });

    // The Figure 5 sweep: four state-transition automata of the
    // paper's AT scheme at one history length on one AHRT geometry.
    // The geometry's engine probes each stream once into a log, and
    // each of the four lanes walks the stream alone, reading its slots
    // from that log: the sweep-level measure of several scalar
    // Two-Level walks sharing one probe log.
    let fig5_configs: Vec<SchemeConfig> = [
        AutomatonKind::A2,
        AutomatonKind::A3,
        AutomatonKind::A4,
        AutomatonKind::LastTime,
    ]
    .into_iter()
    .map(|a| SchemeConfig::at(HrtConfig::ahrt(512), 12, a))
    .collect();
    let fig5_cells = (fig5_configs.len() * harness.workloads().len()) as u64;
    group.plan(1, 5);
    let fig5_baseline = group
        .throughput(fig5_cells)
        .bench("fig5_per_config_baseline", || {
            harness
                .accuracy_table_sequential("fig5", &fig5_configs)
                .to_string()
                .len()
        });
    group.plan(1, 5);
    let fig5_pooled = group.throughput(fig5_cells).bench("fig5_gang_pool", || {
        harness
            .accuracy_table("fig5", &fig5_configs)
            .to_string()
            .len()
    });

    let speedup = |fast: &tlat_bench::runner::Measurement| {
        if fast.median_ns > 0.0 {
            baseline.median_ns / fast.median_ns
        } else {
            0.0
        }
    };
    println!(
        "[sweep] gang engine (1 thread) vs per-config baseline: {:.2}x",
        speedup(&gang)
    );
    println!(
        "[sweep] gang engine + worker pool vs per-config baseline: {:.2}x",
        speedup(&pooled)
    );
    if fig5_pooled.median_ns > 0.0 {
        println!(
            "[sweep] fig5 gang + pool vs per-config baseline: {:.2}x",
            fig5_baseline.median_ns / fig5_pooled.median_ns
        );
    }
    if !tlat_bench::is_test_pass() && speedup(&pooled) < 2.0 {
        eprintln!(
            "[sweep] WARNING: gang+pool sweep below the 2x target \
             (baseline {:.1} ms, gang+pool {:.1} ms)",
            baseline.median_ns / 1e6,
            pooled.median_ns / 1e6
        );
    }
}
