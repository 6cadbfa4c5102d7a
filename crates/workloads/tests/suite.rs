//! Suite-wide workload invariants: properties every benchmark analogue
//! must satisfy, checked over real traces.

use std::collections::HashSet;
use tlat_trace::{BranchClass, InstClass};
use tlat_workloads::{all, WorkloadKind};

const WINDOW: u64 = 25_000;

#[test]
fn every_workload_produces_its_budget_or_halts() {
    for w in all() {
        let trace = w.trace_test(WINDOW).expect("workload runs");
        // Either the full budget was produced or the program halted
        // (gcc/fpppp may halt early at tiny scales, but not at their
        // standard inputs within this window).
        assert_eq!(trace.conditional_len(), WINDOW, "{} under-produced", w.name);
    }
}

#[test]
fn taken_rates_are_plausible() {
    // The paper reports ~60 % taken across the suite; each analogue
    // must stay in a physically plausible band.
    let mut rates = Vec::new();
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        let rate = trace.stats().taken_rate;
        assert!((0.2..0.99).contains(&rate), "{}: taken rate {rate}", w.name);
        rates.push(rate);
    }
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    assert!((0.4..0.8).contains(&mean), "suite mean taken rate {mean}");
}

#[test]
fn fp_workloads_use_fp_and_integer_workloads_do_not() {
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        let fp = trace.inst_mix().get(InstClass::FpAlu);
        match w.kind {
            WorkloadKind::FloatingPoint => {
                assert!(fp > 0, "{} should execute FP instructions", w.name)
            }
            WorkloadKind::Integer => {
                assert_eq!(fp, 0, "{} should be integer-only", w.name)
            }
        }
    }
}

#[test]
fn integer_workloads_are_branchier_than_fp() {
    // Figure 3's headline: integer codes are far branchier.
    let frac = |kind: WorkloadKind| {
        let (mut sum, mut n) = (0.0, 0);
        for w in all().into_iter().filter(|w| w.kind == kind) {
            let trace = w.trace_test(WINDOW).unwrap();
            sum += trace.inst_mix().fraction(InstClass::Branch);
            n += 1;
        }
        sum / n as f64
    };
    let int = frac(WorkloadKind::Integer);
    let fp = frac(WorkloadKind::FloatingPoint);
    assert!(int > fp, "integer {int} should exceed fp {fp}");
}

#[test]
fn conditional_branches_dominate_every_benchmark() {
    // Figure 4: conditionals are the dominant class everywhere.
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        let dist = trace.stats().class_distribution;
        let share = dist.fraction(BranchClass::Conditional);
        assert!(share > 0.5, "{}: conditional share {share}", w.name);
    }
}

#[test]
fn calls_and_returns_balance() {
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        let calls = trace.iter().filter(|b| b.call).count() as i64;
        let rets = trace
            .iter()
            .filter(|b| b.class == BranchClass::Return)
            .count() as i64;
        // The trace window may cut inside a call; allow the cut depth.
        assert!(
            (calls - rets).abs() <= 64,
            "{}: calls {calls} vs returns {rets}",
            w.name
        );
    }
}

#[test]
fn branch_targets_are_consistent_per_site() {
    // Direct conditional branches have a fixed target; a site whose
    // target changes would indicate interpreter pc bookkeeping bugs.
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        let mut targets: std::collections::HashMap<u32, u32> = Default::default();
        for b in trace.iter() {
            if b.class != BranchClass::Conditional {
                continue;
            }
            let prior = targets.insert(b.pc, b.target);
            if let Some(prior) = prior {
                assert_eq!(
                    prior, b.target,
                    "{}: conditional at {:#x} changed target",
                    w.name, b.pc
                );
            }
        }
    }
}

#[test]
fn pcs_are_aligned_and_in_code_range() {
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        for b in trace.iter() {
            assert_eq!(b.pc % 4, 0, "{}: unaligned pc {:#x}", w.name, b.pc);
            assert!(b.pc >= 0x1000, "{}: pc below base {:#x}", w.name, b.pc);
        }
    }
}

#[test]
fn distinct_workloads_have_distinct_branch_behaviour() {
    // No two benchmarks may accidentally share a generator
    // configuration: their (static sites, taken rate) signatures must
    // differ.
    let mut signatures = HashSet::new();
    for w in all() {
        let trace = w.trace_test(WINDOW).unwrap();
        let stats = trace.stats();
        let signature = (
            stats.static_conditional_branches,
            (stats.taken_rate * 10_000.0) as u64,
        );
        assert!(
            signatures.insert(signature),
            "{} duplicates another workload's signature {signature:?}",
            w.name
        );
    }
}

#[test]
fn extra_li_guest_runs_on_the_same_vm() {
    // The Fibonacci exploration guest (not part of Table 3) shares the
    // interpreter program with the paper's guests and traces cleanly.
    let fib = tlat_workloads::build_li_vm(&tlat_workloads::li_fibonacci_input());
    let canonical = tlat_workloads::by_name("li")
        .unwrap()
        .build(tlat_workloads::by_name("li").unwrap().test_input());
    assert_eq!(fib.program, canonical.program);
    let trace = tlat_workloads::run_trace(&fib, 10_000).unwrap();
    assert_eq!(trace.conditional_len(), 10_000);
}

/// FNV-1a digests of `codec::encode_v3` over every workload trace at
/// ci.sh's 20,000-branch smoke budget: the nine test traces, then the
/// five train traces. A mismatch means one of two things. Either the
/// TLA3 encoder now writes different bytes for the same trace, which
/// is a cache-format break, or the interpreter now produces a different
/// trace, which is a codegen change and needs a
/// `tlat_workloads::CODEGEN_VERSION` bump so fingerprinted cache
/// entries miss instead of serving the old traces.
const TLA3_DIGESTS: [(&str, &str, u64); 14] = [
    ("eqntott", "test", 0x11a2_e628_f86e_735b),
    ("espresso", "test", 0xb002_f1c9_c868_e757),
    ("gcc", "test", 0xf4d4_e8bd_17d4_db78),
    ("li", "test", 0x0424_532b_1b97_aeb7),
    ("doduc", "test", 0x9f96_b5bd_956b_e439),
    ("fpppp", "test", 0x1da1_d4a0_9198_9394),
    ("matrix300", "test", 0xc14e_8357_25df_2461),
    ("spice2g6", "test", 0x8dfe_bfa9_a80d_d07c),
    ("tomcatv", "test", 0xb4f5_95bc_c1ab_a961),
    ("espresso", "train", 0xb90c_1777_d767_222a),
    ("gcc", "train", 0x09b4_510a_d358_6403),
    ("li", "train", 0x4d51_e271_4799_408d),
    ("doduc", "train", 0x747e_6e34_4247_7532),
    ("spice2g6", "train", 0xa7fc_6ff2_8162_b207),
];

#[test]
fn tla3_bytes_of_every_workload_trace_are_pinned() {
    use tlat_check::fnv1a;
    use tlat_trace::codec;

    const BUDGET: u64 = 20_000;
    let mut actual = Vec::new();
    for w in all() {
        let test = w.trace_test(BUDGET).expect("workload runs");
        actual.push((w.name, "test", fnv1a(&codec::encode_v3(&test))));
    }
    for w in all() {
        if let Some(train) = w.trace_train(BUDGET).expect("workload runs") {
            actual.push((w.name, "train", fnv1a(&codec::encode_v3(&train))));
        }
    }
    assert_eq!(actual, TLA3_DIGESTS, "TLA3 digests changed");
}

#[test]
fn trace_generation_is_deterministic_across_runs_and_threads() {
    // Every workload is a pure function of (program, input, budget):
    // regenerating a trace — in this thread, again in this thread, or
    // concurrently from a worker thread — must produce byte-identical
    // encodings. The parallel prewarm/experiment paths depend on this.
    use std::sync::Mutex;
    use tlat_check::fnv1a;
    use tlat_trace::codec;

    fn hash_of(w: &tlat_workloads::Workload) -> u64 {
        fnv1a(&codec::encode_v3(&w.trace_test(5_000).unwrap()))
    }

    let workloads = all();
    let reference: Vec<u64> = workloads.iter().map(hash_of).collect();
    for (w, &expected) in workloads.iter().zip(&reference) {
        assert_eq!(hash_of(w), expected, "{}: rerun diverged", w.name);
    }

    let parallel = Mutex::new(vec![0u64; workloads.len()]);
    std::thread::scope(|scope| {
        for (i, w) in workloads.iter().enumerate() {
            let parallel = &parallel;
            scope.spawn(move || {
                parallel.lock().unwrap()[i] = hash_of(w);
            });
        }
    });
    let parallel = parallel.into_inner().unwrap();
    for ((w, &expected), &got) in workloads.iter().zip(&reference).zip(&parallel) {
        assert_eq!(got, expected, "{}: parallel generation diverged", w.name);
    }
}
