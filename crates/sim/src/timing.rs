//! Measured pipeline timing simulation.
//!
//! Where [`PipelineModel`](crate::PipelineModel) converts a miss *rate*
//! into CPI analytically, this module replays the actual instruction
//! stream (traces record the non-branch instruction gap before every
//! branch) and charges every individual misprediction its flush
//! penalty — the machine-level consequence the paper's introduction
//! describes: "a prediction miss requires flushing of the speculative
//! execution already in progress".

use crate::stats::PredictionStats;
use tlat_core::{HrtConfig, Predictor, TargetBuffer};
use tlat_trace::{BranchClass, ReturnAddressStack, Trace};

/// Parameters of the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingModel {
    /// Instructions the front end can deliver per cycle when streaming.
    pub fetch_width: u32,
    /// Cycles lost per mispredicted fetch redirect.
    pub flush_penalty: u64,
    /// Return-address-stack depth.
    pub ras_entries: usize,
    /// Target buffer for taken-branch redirects; `None` scores
    /// direction only (targets assumed magically available).
    pub btb: Option<HrtConfig>,
}

impl TimingModel {
    /// A scalar in-order pipeline of the paper's era: one instruction
    /// per cycle, five-cycle flush, direction-only.
    pub fn scalar() -> Self {
        TimingModel {
            fetch_width: 1,
            flush_penalty: 5,
            ras_entries: 16,
            btb: None,
        }
    }

    /// The same pipeline with a 512-entry BTB supplying taken-branch
    /// targets.
    pub fn scalar_with_btb() -> Self {
        TimingModel {
            btb: Some(HrtConfig::ahrt(512)),
            ..TimingModel::scalar()
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::scalar()
    }
}

/// Result of a timing simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingResult {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Total instructions retired (branches + recorded gaps).
    pub instructions: u64,
    /// Fetch redirects that flushed the pipeline.
    pub flushes: u64,
    /// Conditional-branch direction counters (for cross-checking with
    /// the accuracy engine).
    pub conditional: PredictionStats,
}

impl TimingResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Speedup of this run over `other` (same trace assumed).
    pub fn speedup_over(&self, other: &TimingResult) -> f64 {
        other.cpi() / self.cpi()
    }
}

/// Replays `trace` through a pipeline with `predictor` steering the
/// front end and returns measured cycle counts.
pub fn simulate_timing(
    predictor: &mut dyn Predictor,
    trace: &Trace,
    model: TimingModel,
) -> TimingResult {
    let width = model.fetch_width.max(1) as u64;
    let mut result = TimingResult::default();
    let mut ras = ReturnAddressStack::new(model.ras_entries.max(1));
    let mut btb = model.btb.map(TargetBuffer::new);

    for (branch, &gap) in trace.iter().zip(trace.gaps()) {
        // The gap instructions plus the branch itself stream through
        // the front end.
        let block = gap as u64 + 1;
        result.instructions += block;
        result.cycles += block.div_ceil(width);

        // Did the front end redirect to the right next address?
        let mut redirect_ok = true;
        match branch.class {
            BranchClass::Conditional => {
                let guess = predictor.predict(branch);
                result.conditional.record(guess == branch.taken);
                redirect_ok = guess == branch.taken;
                if redirect_ok && branch.taken {
                    if let Some(btb) = &mut btb {
                        redirect_ok = btb.predict_target(branch.pc) == Some(branch.target);
                    }
                }
                predictor.update(branch);
            }
            BranchClass::Return => {
                redirect_ok = ras.predict_and_verify(branch.target);
            }
            BranchClass::ImmediateUnconditional => {
                // Decode-time target (§4): no redirect risk.
            }
            BranchClass::RegisterUnconditional => {
                if let Some(btb) = &mut btb {
                    redirect_ok = btb.predict_target(branch.pc) == Some(branch.target);
                }
            }
        }
        if let Some(btb) = &mut btb {
            btb.update(branch);
        }
        if branch.call {
            ras.push(branch.fall_through());
        }
        if !redirect_ok {
            result.flushes += 1;
            result.cycles += model.flush_penalty;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use tlat_core::{AlwaysNotTaken, AlwaysTaken, TwoLevelAdaptive, TwoLevelConfig};
    use tlat_trace::{BranchRecord, InstClass};

    /// A loop body of `gap` instructions ending in a back-edge taken
    /// `iters - 1` times.
    fn loop_trace(iters: usize, gap: u32) -> Trace {
        let mut t = Trace::new();
        for i in 0..iters {
            for _ in 0..gap {
                t.count_instruction(InstClass::IntAlu);
            }
            t.push(BranchRecord::conditional(0x1000, 0x0f00, i != iters - 1));
        }
        t
    }

    #[test]
    fn perfect_prediction_reaches_base_cpi() {
        let trace = loop_trace(1000, 4);
        // Always-taken is right on every iteration except the exit.
        let out = simulate_timing(&mut AlwaysTaken, &trace, TimingModel::scalar());
        assert_eq!(out.instructions, 5000);
        // One flush: 5000 cycles + 5.
        assert_eq!(out.flushes, 1);
        assert_eq!(out.cycles, 5005);
        assert!((out.cpi() - 1.001).abs() < 1e-12);
    }

    #[test]
    fn every_miss_costs_the_penalty() {
        let trace = loop_trace(100, 4);
        let out = simulate_timing(&mut AlwaysNotTaken, &trace, TimingModel::scalar());
        // 99 taken iterations all mispredicted.
        assert_eq!(out.flushes, 99);
        assert_eq!(out.cycles, 500 + 99 * 5);
    }

    #[test]
    fn timing_direction_counters_match_the_accuracy_engine() {
        let trace = loop_trace(2000, 3);
        let mut a = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let mut b = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let timing = simulate_timing(&mut a, &trace, TimingModel::scalar());
        let engine = simulate(&mut b, &trace);
        assert_eq!(timing.conditional, engine.conditional);
    }

    #[test]
    fn wider_fetch_lowers_cpi_and_raises_flush_share() {
        let trace = loop_trace(1000, 7);
        let narrow = simulate_timing(
            &mut AlwaysNotTaken,
            &trace,
            TimingModel {
                fetch_width: 1,
                ..TimingModel::scalar()
            },
        );
        let wide = simulate_timing(
            &mut AlwaysNotTaken,
            &trace,
            TimingModel {
                fetch_width: 4,
                ..TimingModel::scalar()
            },
        );
        assert!(wide.cycles < narrow.cycles);
        // The flush count is identical; its *relative* cost grows with
        // width — the paper's motivation for better prediction on
        // superscalar machines.
        assert_eq!(wide.flushes, narrow.flushes);
        let narrow_share = narrow.flushes as f64 * 5.0 / narrow.cycles as f64;
        let wide_share = wide.flushes as f64 * 5.0 / wide.cycles as f64;
        assert!(wide_share > narrow_share);
    }

    #[test]
    fn btb_cold_misses_add_flushes() {
        let trace = loop_trace(100, 4);
        let direction_only = simulate_timing(&mut AlwaysTaken, &trace, TimingModel::scalar());
        let with_btb = simulate_timing(&mut AlwaysTaken, &trace, TimingModel::scalar_with_btb());
        // The first taken redirect lacks a BTB target.
        assert_eq!(with_btb.flushes, direction_only.flushes + 1);
    }

    #[test]
    fn better_predictor_means_measured_speedup() {
        // Period-3 pattern: AT learns it, a counter BTB cannot.
        let mut trace = Trace::new();
        for i in 0..6000 {
            for _ in 0..3 {
                trace.count_instruction(InstClass::IntAlu);
            }
            trace.push(BranchRecord::conditional(0x1000, 0x800, i % 3 != 2));
        }
        let mut at = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        let at_out = simulate_timing(&mut at, &trace, TimingModel::scalar());
        let mut nt = AlwaysNotTaken;
        let nt_out = simulate_timing(&mut nt, &trace, TimingModel::scalar());
        let speedup = at_out.speedup_over(&nt_out);
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let out = simulate_timing(&mut AlwaysTaken, &Trace::new(), TimingModel::scalar());
        assert_eq!(out.cycles, 0);
        assert_eq!(out.cpi(), 0.0);
    }
}
