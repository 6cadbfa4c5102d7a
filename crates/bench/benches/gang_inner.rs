//! Gang inner-loop throughput: the compiled event-stream walk against
//! the reference walk, over the same lanes and trace. The reference
//! (every `*_record` line) drives each lane alone over the raw records
//! through `simulate_with`'s predict-then-update cycle, lane by lane.
//!
//! This isolates the tentpole win of the stream compiler — site-interned
//! SoA events plus per-site resolved table coordinates — from the sweep
//! bench's other effects (trace generation, training, the worker pool).
//! The compiled walk is timed over a stream compiled once up front,
//! matching the harness (which memoizes one [`CompiledTrace`] per
//! workload); the once-per-workload compile cost is reported separately
//! as `stream_compile`. Run with `cargo bench --bench gang_inner`;
//! fifteen BENCHJSON lines are emitted (`inner_record_walk`,
//! `inner_compiled_walk`, `stream_compile`, `inner_ls_st_record`,
//! `inner_ls_st_walk`, `inner_at_grid_record`,
//! `inner_at_grid_walk`, `inner_fig5_record`, `inner_fig5_walk`,
//! `inner_taxonomy_record`, `inner_taxonomy_walk`,
//! `inner_fig6_record`, `inner_fig6_walk`,
//! `inner_loop_heavy_record`, `inner_loop_heavy_walk`) plus derived
//! speedup lines.
//!
//! Lanes of one member kind on one table walk as one group, stepping
//! one history register per slot (or one global register) for all of
//! them. The LS/ST pair measures five Lee & Smith lanes, one group, and
//! a Static Training lane on one geometry, the two groups reading that
//! geometry's shared probe log; the AT-grid pair measures a variant ×
//! history-length Two-Level grid, one group of 20 lanes probing inline;
//! the fig5 pair measures fig5's four automaton variants, one group
//! probing inline; the taxonomy pair measures the scalar lanes of the
//! taxonomy sweep — GAg, GAs and gshare one group on the global
//! register, PAg and PAs a group beside the AT lane on one shared probe
//! log — whose tournament replays only its chooser over its twins'
//! guesses; the fig6 pair measures five Two-Level lanes, one per HRT
//! organization, five groups of one, each walking the stream alone with
//! its own slot source: the no-group control. Each isolates its walk
//! from the mixed-lane set above. The loop-heavy pair walks fig6's
//! lanes over a stream of long same-outcome loop runs, as matrix300's
//! inner loops are, where every walk credits each run's tail past its
//! group's bound without stepping it.

use tlat_bench::runner::Runner;
use tlat_core::{AutomatonKind, HrtConfig, StaticTraining, StaticTrainingConfig, TrainingProfile};
use tlat_sim::gang::{gang_simulate_compiled, GangLane};
use tlat_sim::{simulate_with, SchemeConfig, SimOptions, SimResult};
use tlat_trace::{BranchRecord, Trace};
use tlat_workloads::SyntheticStream;

/// `branches` conditional branches shaped like matrix300's inner
/// loops: each visit to one of 64 sites is a loop of 20–60 trips, taken
/// until its exit.
fn loop_heavy(branches: u64) -> Trace {
    let mut trace = Trace::new();
    let mut visit = 0u32;
    while (trace.len() as u64) < branches {
        let pc = 0x4000 + (visit * 37 % 64) * 4;
        let trips = 20 + visit * 13 % 41;
        for trip in 1..=trips {
            trace.push(BranchRecord::conditional(pc, pc - 0x40, trip < trips));
        }
        visit += 1;
    }
    trace
}

/// The reference walk: each of `lanes` alone over `trace`'s records.
fn simulate_each(lanes: &mut [GangLane], trace: &Trace) -> Vec<SimResult> {
    (lanes.iter_mut())
        .map(|lane| simulate_with(lane, trace, SimOptions::default()))
        .collect()
}

fn main() {
    let branches: u64 = if tlat_bench::is_test_pass() {
        tlat_bench::SMOKE_BRANCH_LIMIT
    } else {
        500_000
    };
    println!("[gang_inner] walking {branches} synthetic branches per iteration");
    let trace = SyntheticStream::mixed(0x9a1, 512).generate(branches);

    // The Figure 10 monomorphized lanes: the walk is all fast-path, so
    // the two engines differ only in how the stream reaches them.
    let configs = vec![
        SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
        SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
        SchemeConfig::at(HrtConfig::hhrt(512), 12, AutomatonKind::A2),
    ];
    let lanes = || -> Vec<GangLane> {
        configs
            .iter()
            .map(|c| GangLane::from_config(c, Some(&trace)))
            .collect()
    };
    let events = trace.conditional_len() as u64 * configs.len() as u64;

    let mut group = Runner::new("gang_inner");
    group.plan(1, 7);
    let records = group.throughput(events).bench("inner_record_walk", || {
        let mut lanes = lanes();
        simulate_each(&mut lanes, &trace).len()
    });
    let stream = tlat_trace::CompiledTrace::compile(&trace);
    group.plan(1, 7);
    let compiled = group.throughput(events).bench("inner_compiled_walk", || {
        let mut lanes = lanes();
        gang_simulate_compiled(&mut lanes, &stream, Some(&trace), SimOptions::default()).len()
    });
    // The once-per-workload compile cost on its own (per conditional,
    // not per lane-event), so regressions in interning show up directly.
    group.plan(1, 7);
    group
        .throughput(trace.conditional_len())
        .bench("stream_compile", || {
            tlat_trace::CompiledTrace::compile(&trace).len()
        });

    if compiled.median_ns > 0.0 {
        println!(
            "[gang_inner] compiled stream vs record stream: {:.2}x",
            records.median_ns / compiled.median_ns
        );
    }

    // All five automata as Lee & Smith lanes plus the paper's Static
    // Training lane on one shared geometry: one engine probes the
    // stream into a log, and the LS group and the ST lane each walk the
    // stream, reading their slots from that log. The ST profile is
    // collected once, outside the timed walks.
    let st = StaticTrainingConfig::paper_default();
    let st_profile = TrainingProfile::collect(&trace, st.history_bits);
    let ls_st_lanes = || -> Vec<GangLane> {
        AutomatonKind::ALL
            .iter()
            .map(|&a| GangLane::from_config(&SchemeConfig::ls(st.hrt, a), None))
            .chain([GangLane::StaticTraining(StaticTraining::with_profile(
                st.clone(),
                &st_profile,
            ))])
            .collect()
    };
    let ls_st_events = trace.conditional_len() as u64 * (AutomatonKind::ALL.len() as u64 + 1);
    group.plan(1, 7);
    let ls_st_records = group
        .throughput(ls_st_events)
        .bench("inner_ls_st_record", || {
            let mut lanes = ls_st_lanes();
            simulate_each(&mut lanes, &trace).len()
        });
    group.plan(1, 7);
    let ls_st_walk = group
        .throughput(ls_st_events)
        .bench("inner_ls_st_walk", || {
            let mut lanes = ls_st_lanes();
            gang_simulate_compiled(&mut lanes, &stream, Some(&trace), SimOptions::default()).len()
        });
    if ls_st_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] LS/ST walk vs record stream: {:.2}x",
            ls_st_records.median_ns / ls_st_walk.median_ns
        );
    }

    // A Two-Level grid — every automaton variant crossed with four
    // history lengths on one shared AHRT organization: the 20 lanes
    // walk as one group, probing inline, each member reading its own
    // low bits of one 12-bit register per slot.
    let at_configs: Vec<SchemeConfig> = AutomatonKind::ALL
        .iter()
        .flat_map(|&a| {
            [6u8, 8, 10, 12]
                .into_iter()
                .map(move |bits| SchemeConfig::at(HrtConfig::ahrt(512), bits, a))
        })
        .collect();
    let at_lanes = || -> Vec<GangLane> {
        at_configs
            .iter()
            .map(|c| GangLane::from_config(c, Some(&trace)))
            .collect()
    };
    let at_events = trace.conditional_len() as u64 * at_configs.len() as u64;
    group.plan(1, 7);
    let at_records = group
        .throughput(at_events)
        .bench("inner_at_grid_record", || {
            let mut lanes = at_lanes();
            simulate_each(&mut lanes, &trace).len()
        });
    group.plan(1, 7);
    let at_grid = group.throughput(at_events).bench("inner_at_grid_walk", || {
        let mut lanes = at_lanes();
        gang_simulate_compiled(&mut lanes, &stream, Some(&trace), SimOptions::default()).len()
    });
    if at_grid.median_ns > 0.0 {
        println!(
            "[gang_inner] AT grid vs record stream: {:.2}x",
            at_records.median_ns / at_grid.median_ns
        );
    }

    // Figure 5: the paper's AT lane under each of four automata on one
    // AHRT, one group probing inline: one register per slot stepped
    // once per event, then each member's pattern table.
    let fig5 = tlat_sim::sweep_spec("fig5")
        .expect("fig5 is registered")
        .configs;
    let fig5_lanes = || -> Vec<GangLane> {
        fig5.iter()
            .map(|c| GangLane::from_config(c, None))
            .collect()
    };
    let fig5_events = trace.conditional_len() as u64 * fig5.len() as u64;
    group.plan(1, 7);
    let fig5_records = group
        .throughput(fig5_events)
        .bench("inner_fig5_record", || {
            let mut lanes = fig5_lanes();
            simulate_each(&mut lanes, &trace).len()
        });
    group.plan(1, 7);
    let fig5_walk = group.throughput(fig5_events).bench("inner_fig5_walk", || {
        let mut lanes = fig5_lanes();
        gang_simulate_compiled(&mut lanes, &stream, None, SimOptions::default()).len()
    });
    if fig5_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] fig5 walk vs record stream: {:.2}x",
            fig5_records.median_ns / fig5_walk.median_ns
        );
    }

    // The taxonomy sweep: GAg, GAs, PAg and PAs, the paper's scheme,
    // gshare and the AT+gshare tournament on this churny stream. GAg,
    // GAs and gshare walk as one group on the global register; the
    // PAg/PAs group and the AT lane read one shared probe log of their
    // AHRT. The tournament derives its component guesses from the AT
    // and gshare lanes and steps only its chooser.
    let taxonomy = tlat_sim::taxonomy();
    let tax_lanes = || -> Vec<GangLane> {
        taxonomy
            .iter()
            .map(|c| GangLane::from_config(c, None))
            .collect()
    };
    let tax_events = trace.conditional_len() as u64 * taxonomy.len() as u64;
    group.plan(1, 7);
    let tax_records = group
        .throughput(tax_events)
        .bench("inner_taxonomy_record", || {
            let mut lanes = tax_lanes();
            simulate_each(&mut lanes, &trace).len()
        });
    group.plan(1, 7);
    let tax_walk = group
        .throughput(tax_events)
        .bench("inner_taxonomy_walk", || {
            let mut lanes = tax_lanes();
            gang_simulate_compiled(&mut lanes, &stream, None, SimOptions::default()).len()
        });
    if tax_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] taxonomy walk vs record stream: {:.2}x",
            tax_records.median_ns / tax_walk.median_ns
        );
    }

    // Figure 6: the paper's AT lane on each of the five HRT
    // organizations, five groups of one: the control with no group.
    // None shares an engine, so each walks alone: the ideal table by
    // site, the hashed ones by their per-site slot, the associative
    // ones probing inline.
    let fig6 = tlat_sim::sweep_spec("fig6")
        .expect("fig6 is registered")
        .configs;
    let fig6_lanes = || -> Vec<GangLane> {
        fig6.iter()
            .map(|c| GangLane::from_config(c, None))
            .collect()
    };
    let fig6_events = trace.conditional_len() as u64 * fig6.len() as u64;
    group.plan(1, 7);
    let fig6_records = group
        .throughput(fig6_events)
        .bench("inner_fig6_record", || {
            let mut lanes = fig6_lanes();
            simulate_each(&mut lanes, &trace).len()
        });
    group.plan(1, 7);
    let fig6_walk = group.throughput(fig6_events).bench("inner_fig6_walk", || {
        let mut lanes = fig6_lanes();
        gang_simulate_compiled(&mut lanes, &stream, None, SimOptions::default()).len()
    });
    if fig6_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] fig6 walk vs record stream: {:.2}x",
            fig6_records.median_ns / fig6_walk.median_ns
        );
    }

    // The same five lanes over long same-outcome loop runs.
    let loops = loop_heavy(branches);
    let loop_stream = tlat_trace::CompiledTrace::compile(&loops);
    let loop_events = loops.conditional_len() as u64 * fig6.len() as u64;
    group.plan(1, 7);
    let loop_records = group
        .throughput(loop_events)
        .bench("inner_loop_heavy_record", || {
            let mut lanes = fig6_lanes();
            simulate_each(&mut lanes, &loops).len()
        });
    group.plan(1, 7);
    let loop_walk = group
        .throughput(loop_events)
        .bench("inner_loop_heavy_walk", || {
            let mut lanes = fig6_lanes();
            gang_simulate_compiled(&mut lanes, &loop_stream, None, SimOptions::default()).len()
        });
    if loop_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] loop-heavy walk vs record stream: {:.2}x",
            loop_records.median_ns / loop_walk.median_ns
        );
    }
}
