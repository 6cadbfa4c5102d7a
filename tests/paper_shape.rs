//! Paper-shape regression tests: the qualitative claims of Yeh & Patt's
//! evaluation must hold on the reproduction — who wins, by roughly what
//! factor, and where the orderings fall.
//!
//! These use a moderate trace budget, 60,000 conditional branches per
//! trace, so they are slower than unit tests but still complete in
//! seconds in release/test profiles. `TLAT_BRANCH_LIMIT` overrides the
//! budget, so the same claims can be checked at the default 500,000.

use two_level_adaptive::core::{AutomatonKind, HrtConfig};
use two_level_adaptive::sim::{Harness, SchemeConfig, TrainingData};

/// The trace budget: `TLAT_BRANCH_LIMIT` when set, 60,000 otherwise.
fn budget() -> u64 {
    match std::env::var("TLAT_BRANCH_LIMIT") {
        Ok(_) => two_level_adaptive::sim::branch_limit_from_env(),
        Err(_) => 60_000,
    }
}

fn mean(harness: &Harness, config: &SchemeConfig) -> f64 {
    let report = harness.accuracy_table("t", std::slice::from_ref(config));
    report
        .cell(&config.label(), "Tot G Mean")
        .expect("complete data")
}

#[test]
fn figure10_ordering_holds() {
    let harness = Harness::new(budget());
    let at = mean(
        &harness,
        &SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
    );
    let ls = mean(
        &harness,
        &SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
    );
    let lt = mean(
        &harness,
        &SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
    );
    // The paper's top-line: AT leads, the counter BTB trails by several
    // points, per-branch last-time trails further.
    assert!(at > ls + 0.01, "AT {at} should lead LS {ls} clearly");
    assert!(ls > lt + 0.01, "LS {ls} should lead last-time {lt}");
    assert!(at > 0.9, "AT mean accuracy {at} too low");
}

#[test]
fn miss_rate_improvement_is_large() {
    // "More than a 100 percent improvement in reducing the number of
    // pipeline flushes": the best other scheme's miss rate should be
    // well above the two-level scheme's.
    let harness = Harness::new(budget());
    let at_miss = 1.0
        - mean(
            &harness,
            &SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        );
    let ls_miss = 1.0
        - mean(
            &harness,
            &SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
        );
    assert!(
        ls_miss > at_miss * 1.3,
        "LS miss {ls_miss:.4} vs AT miss {at_miss:.4}: improvement too small"
    );
}

#[test]
fn figure5_automata_ordering() {
    let harness = Harness::new(budget());
    let a2 = mean(
        &harness,
        &SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
    );
    let lt = mean(
        &harness,
        &SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::LastTime),
    );
    // A2 performs best; Last-Time pattern automata lose about a point.
    assert!(a2 > lt, "A2 {a2} should beat LT {lt}");
    assert!(a2 - lt < 0.06, "LT should only trail by a small margin");
}

#[test]
fn figure6_hrt_ordering() {
    let harness = Harness::new(budget());
    let acc = |hrt| mean(&harness, &SchemeConfig::at(hrt, 12, AutomatonKind::A2));
    let ideal = acc(HrtConfig::Ideal);
    let ahrt512 = acc(HrtConfig::ahrt(512));
    let ahrt256 = acc(HrtConfig::ahrt(256));
    assert!(ideal > ahrt512, "IHRT {ideal} vs AHRT512 {ahrt512}");
    assert!(
        ahrt512 > ahrt256 - 0.002,
        "AHRT512 {ahrt512} vs AHRT256 {ahrt256}"
    );
}

#[test]
fn figure7_history_length_trend() {
    let harness = Harness::new(budget());
    let acc = |bits| {
        mean(
            &harness,
            &SchemeConfig::at(HrtConfig::ahrt(512), bits, AutomatonKind::A2),
        )
    };
    let (b6, b8, b10, b12) = (acc(6), acc(8), acc(10), acc(12));
    assert!(b12 > b6, "12 bits {b12} should beat 6 bits {b6}");
    // Allow tiny non-monotonic wiggles between adjacent points but
    // require the overall climb.
    assert!(b12 >= b10 - 0.003 && b10 >= b8 - 0.003 && b8 >= b6 - 0.003);
}

#[test]
fn btfn_is_bimodal_like_the_paper() {
    // BTFN: ~98 % on loop-bound FP benchmarks, poor elsewhere, low
    // mean.
    let harness = Harness::new(budget());
    let report = harness.accuracy_table("btfn", &[SchemeConfig::Btfn]);
    let matrix = report.cell("BTFN", "matrix300").unwrap();
    let tomcatv = report.cell("BTFN", "tomcatv").unwrap();
    let total = report.cell("BTFN", "Tot G Mean").unwrap();
    assert!(matrix > 0.95, "matrix300 BTFN {matrix}");
    assert!(tomcatv > 0.95, "tomcatv BTFN {tomcatv}");
    assert!(total < 0.8, "BTFN mean {total} should be poor");
}

#[test]
fn always_taken_matches_taken_rate_ballpark() {
    let harness = Harness::new(budget());
    let total = mean(&harness, &SchemeConfig::AlwaysTaken);
    // The paper reports ~60 %.
    assert!((0.5..0.8).contains(&total), "Always Taken mean {total}");
}

#[test]
fn static_training_diff_degrades_li_most() {
    // Figure 8: li shows the largest Same->Diff drop (~5 % in the
    // paper).
    let harness = Harness::new(budget());
    let same = SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same);
    let diff = SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Diff);
    let report = harness.accuracy_table("st", &[same.clone(), diff.clone()]);
    let li_drop =
        report.cell(&same.label(), "li").unwrap() - report.cell(&diff.label(), "li").unwrap();
    assert!(li_drop > 0.02, "li Same->Diff drop {li_drop} too small");
}
