//! Full next-address (fetch-redirect) simulation.
//!
//! Direction accuracy is the paper's metric, but the fetch unit must
//! produce the complete next instruction address: direction for
//! conditionals, a target for everything taken, and return addresses
//! for subroutine returns (§4's branch classification exists precisely
//! to route each class to the right mechanism). This engine combines a
//! direction predictor, a [`TargetBuffer`] and a return-address stack
//! and scores the *next-address* correctness per branch class.

use crate::stats::PredictionStats;
use tlat_core::{HrtConfig, Predictor, TargetBuffer};
use tlat_trace::{BranchClass, ReturnAddressStack, Trace};

/// Options for fetch simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOptions {
    /// Target-buffer organization.
    pub btb: HrtConfig,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl Default for FetchOptions {
    fn default() -> Self {
        FetchOptions {
            btb: HrtConfig::ahrt(512),
            ras_entries: 16,
        }
    }
}

/// Per-class and overall fetch-redirect accuracy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchResult {
    /// Conditional branches: direction and (when taken) target must both
    /// be right.
    pub conditional: PredictionStats,
    /// Subroutine returns: the RAS-predicted address must match.
    pub returns: PredictionStats,
    /// Immediate unconditional branches: target known at decode, missed
    /// only on a cold/evicted BTB before decode completes.
    pub uncond_imm: PredictionStats,
    /// Register-indirect unconditional branches: BTB last-target.
    pub uncond_reg: PredictionStats,
}

impl FetchResult {
    /// Overall fetch-redirect accuracy across every branch class.
    pub fn overall(&self) -> f64 {
        let mut all = PredictionStats::default();
        for s in [
            self.conditional,
            self.returns,
            self.uncond_imm,
            self.uncond_reg,
        ] {
            all.merge(&s);
        }
        all.accuracy()
    }
}

/// Simulates next-address prediction over `trace`.
///
/// The direction `predictor` handles conditional branches; the target
/// buffer provides targets for conditionals and register-indirect
/// branches; immediate unconditionals resolve at decode (scored
/// correct, as the paper's §4 treats their targets as immediately
/// generable); returns go through the return-address stack.
pub fn simulate_fetch(
    predictor: &mut dyn Predictor,
    trace: &Trace,
    options: FetchOptions,
) -> FetchResult {
    let mut result = FetchResult::default();
    let mut btb = TargetBuffer::new(options.btb);
    let mut ras = ReturnAddressStack::new(options.ras_entries.max(1));
    for branch in trace.iter() {
        match branch.class {
            BranchClass::Conditional => {
                let direction = predictor.predict(branch);
                let redirect_ok = if direction && branch.taken {
                    // Taken and predicted taken: the target must come
                    // from the BTB in time.
                    btb.predict_target(branch.pc) == Some(branch.target)
                } else {
                    // Not-taken path needs no target.
                    direction == branch.taken
                };
                result.conditional.record(redirect_ok);
                predictor.update(branch);
            }
            BranchClass::Return => {
                let correct = ras.predict_and_verify(branch.target);
                result.returns.record(correct);
            }
            BranchClass::ImmediateUnconditional => {
                // Target encoded in the instruction: generable
                // immediately (§4).
                result.uncond_imm.record(true);
            }
            BranchClass::RegisterUnconditional => {
                let ok = btb.predict_target(branch.pc) == Some(branch.target);
                result.uncond_reg.record(ok);
            }
        }
        btb.update(branch);
        if branch.call {
            ras.push(branch.fall_through());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlat_core::{AlwaysTaken, TwoLevelAdaptive, TwoLevelConfig};
    use tlat_trace::BranchRecord;

    #[test]
    fn stable_targets_are_learned_after_one_visit() {
        let mut trace = Trace::new();
        for _ in 0..100 {
            trace.push(BranchRecord::conditional(0x1000, 0x2000, true));
        }
        let out = simulate_fetch(&mut AlwaysTaken, &trace, FetchOptions::default());
        // Only the first (cold-BTB) redirect misses.
        assert_eq!(out.conditional.predicted, 100);
        assert_eq!(out.conditional.correct, 99);
    }

    #[test]
    fn not_taken_conditionals_need_no_target() {
        let mut trace = Trace::new();
        for _ in 0..200 {
            trace.push(BranchRecord::conditional(0x1000, 0x2000, false));
        }
        let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let out = simulate_fetch(&mut p, &trace, FetchOptions::default());
        // Warmup walks the biased-taken initialization down through ~12
        // fresh history patterns; after that the not-taken path needs
        // no BTB target and every redirect is correct.
        assert!(out.conditional.accuracy() > 0.9, "{:?}", out.conditional);
    }

    #[test]
    fn indirect_branches_with_changing_targets_miss() {
        let mut trace = Trace::new();
        for i in 0..100u32 {
            // Target changes every visit: last-target prediction always
            // stale after the first.
            trace.push(BranchRecord::unconditional_reg(0x1000, 0x2000 + i * 4));
        }
        let out = simulate_fetch(&mut AlwaysTaken, &trace, FetchOptions::default());
        assert_eq!(out.uncond_reg.correct, 0);
        // A stable indirect target is learned after one visit.
        let mut stable = Trace::new();
        for _ in 0..100 {
            stable.push(BranchRecord::unconditional_reg(0x1000, 0x2000));
        }
        let out = simulate_fetch(&mut AlwaysTaken, &stable, FetchOptions::default());
        assert_eq!(out.uncond_reg.correct, 99);
    }

    #[test]
    fn immediate_unconditionals_are_free() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::unconditional_imm(0x1000, 0x2000));
        let out = simulate_fetch(&mut AlwaysTaken, &trace, FetchOptions::default());
        assert_eq!(out.uncond_imm.correct, 1);
    }

    #[test]
    fn returns_route_through_the_ras() {
        let mut trace = Trace::new();
        for _ in 0..10 {
            trace.push(BranchRecord::call_imm(0x1000, 0x8000));
            trace.push(BranchRecord::subroutine_return(0x8004, 0x1004));
        }
        let out = simulate_fetch(&mut AlwaysTaken, &trace, FetchOptions::default());
        assert_eq!(out.returns.predicted, 10);
        assert_eq!(out.returns.correct, 10);
    }

    #[test]
    fn overall_combines_all_classes() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::unconditional_imm(0x1000, 0x2000)); // correct
        trace.push(BranchRecord::unconditional_reg(0x1004, 0x3000)); // cold miss
        let out = simulate_fetch(&mut AlwaysTaken, &trace, FetchOptions::default());
        assert!((out.overall() - 0.5).abs() < 1e-12);
    }
}
