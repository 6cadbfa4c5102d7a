//! End-to-end integration tests: workloads → traces → predictors →
//! accuracy, spanning every crate in the workspace.

use two_level_adaptive::core::{
    AutomatonKind, HrtConfig, LeeSmithBtb, LeeSmithConfig, Predictor, TwoLevelAdaptive,
    TwoLevelConfig,
};
use two_level_adaptive::sim::{simulate, Harness, SchemeConfig, TrainingData};
use two_level_adaptive::trace::codec;
use two_level_adaptive::workloads::{all, by_name};

/// Small per-test budget: orderings hold long before the full budget.
const BUDGET: u64 = 150_000;

#[test]
fn every_workload_traces_deterministically() {
    for w in all() {
        let a = w.trace_test(5_000).expect("workload runs");
        let b = w.trace_test(5_000).expect("workload runs");
        assert_eq!(a, b, "{} must be deterministic", w.name);
        assert!(a.conditional_len() > 0, "{} produced no branches", w.name);
    }
}

#[test]
fn traces_roundtrip_through_the_codec() {
    let w = by_name("li").unwrap();
    let trace = w.trace_test(10_000).unwrap();
    let decoded = codec::decode(&codec::encode_v3(&trace)).unwrap();
    assert_eq!(trace, decoded);
}

#[test]
fn two_level_beats_the_btb_on_every_benchmark() {
    // The paper's headline: at equal table cost, the two-level scheme
    // outperforms Lee & Smith's counter BTB on all nine benchmarks.
    for w in all() {
        let trace = w.trace_test(BUDGET).unwrap();
        let mut at = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let mut ls = LeeSmithBtb::new(LeeSmithConfig::paper_default());
        let at_acc = simulate(&mut at, &trace).accuracy();
        let ls_acc = simulate(&mut ls, &trace).accuracy();
        // Tiny slack: at short trace budgets the two-level scheme is
        // still warming its 4096-entry pattern table (the paper runs
        // twenty million branches per benchmark).
        assert!(
            at_acc >= ls_acc - 0.005,
            "{}: AT {at_acc:.4} < LS {ls_acc:.4}",
            w.name
        );
    }
}

#[test]
fn two_level_is_highly_accurate_on_loop_bound_fp() {
    // matrix300/tomcatv analogues: near-perfect, as in the paper.
    for name in ["matrix300", "tomcatv"] {
        let w = by_name(name).unwrap();
        let trace = w.trace_test(BUDGET).unwrap();
        let mut at = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let acc = simulate(&mut at, &trace).accuracy();
        assert!(acc > 0.97, "{name}: accuracy {acc}");
    }
}

#[test]
fn ihrt_upper_bounds_practical_tables() {
    // Figure 6's premise: the ideal table bounds both practical
    // organizations from above (no history interference).
    let harness = Harness::new(BUDGET);
    let gcc = by_name("gcc").unwrap();
    let acc = |hrt| {
        let config = SchemeConfig::at(hrt, 12, AutomatonKind::A2);
        harness.run_one(&config, &gcc).unwrap().accuracy()
    };
    let ideal = acc(HrtConfig::Ideal);
    let ahrt = acc(HrtConfig::ahrt(512));
    let hhrt = acc(HrtConfig::hhrt(512));
    assert!(ideal >= ahrt, "IHRT {ideal} < AHRT {ahrt}");
    assert!(ideal >= hhrt, "IHRT {ideal} < HHRT {hhrt}");
}

#[test]
fn longer_history_helps_on_the_suite() {
    // Figure 7's trend, end to end, on an irregular benchmark.
    let harness = Harness::new(BUDGET);
    let espresso = by_name("espresso").unwrap();
    let acc = |bits| {
        let config = SchemeConfig::at(HrtConfig::ahrt(512), bits, AutomatonKind::A2);
        harness.run_one(&config, &espresso).unwrap().accuracy()
    };
    assert!(acc(12) > acc(4), "12-bit should beat 4-bit history");
}

#[test]
fn static_training_same_beats_diff() {
    // Figure 8's point: profiling on a different data set costs
    // accuracy.
    let harness = Harness::new(BUDGET);
    for name in ["li", "doduc"] {
        let w = by_name(name).unwrap();
        let same = harness
            .run_one(
                &SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same),
                &w,
            )
            .unwrap()
            .accuracy();
        let diff = harness
            .run_one(
                &SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Diff),
                &w,
            )
            .unwrap()
            .accuracy();
        assert!(same > diff, "{name}: Same {same} <= Diff {diff}");
    }
}

#[test]
fn returns_predict_well_through_the_ras() {
    // eqntott (recursive quicksort) and li (interpreter) exercise the
    // return-address stack heavily; nested call/return predicts well.
    for name in ["eqntott", "li"] {
        let w = by_name(name).unwrap();
        let trace = w.trace_test(BUDGET).unwrap();
        let mut at = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let result = simulate(&mut at, &trace);
        assert!(result.ras.predictions > 100, "{name}: no returns simulated");
        assert!(
            result.ras.accuracy() > 0.9,
            "{name}: RAS accuracy {}",
            result.ras.accuracy()
        );
    }
}

#[test]
fn full_table2_runs_on_a_real_benchmark() {
    // Every configuration in the paper's Table 2 must build and
    // simulate cleanly over a real workload trace.
    let harness = Harness::new(5_000);
    let espresso = by_name("espresso").unwrap();
    for config in two_level_adaptive::sim::table2() {
        let result = harness.run_one(&config, &espresso);
        if config.wants_diff_training() {
            assert!(result.is_some(), "{} should have Diff data", config.label());
        }
        if let Some(result) = result {
            let acc = result.accuracy();
            assert!(
                (0.0..=1.0).contains(&acc),
                "{}: accuracy {acc} out of range",
                config.label()
            );
            assert!(
                acc > 0.5,
                "{}: implausibly low accuracy {acc}",
                config.label()
            );
        }
    }
}

#[test]
fn facade_reexports_are_usable_together() {
    // The facade's modules interoperate without importing the
    // underlying crates directly.
    let mut predictor = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
    let branch = two_level_adaptive::trace::BranchRecord::conditional(0x1000, 0x800, true);
    let _ = predictor.predict(&branch);
    predictor.update(&branch);
    assert!(predictor.name().starts_with("AT("));
}
