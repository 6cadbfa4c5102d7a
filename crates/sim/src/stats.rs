//! Prediction-accuracy statistics.
//!
//! These are the *scientific* results of a simulation — how well a
//! predictor predicted. The *operational* telemetry of the harness
//! itself (counters, phase timings) lives in [`crate::metrics`].

use tlat_trace::RasStats;

/// Accuracy counters for one predictor on one trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Conditional branches predicted.
    pub predicted: u64,
    /// Predictions that matched the resolved outcome.
    pub correct: u64,
}

impl PredictionStats {
    /// Records one prediction result.
    pub fn record(&mut self, was_correct: bool) {
        self.predicted += 1;
        self.correct += was_correct as u64;
    }

    /// Prediction accuracy in `[0, 1]`; 1.0 for an empty run.
    pub fn accuracy(&self) -> f64 {
        if self.predicted == 0 {
            1.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }

    /// Miss rate (`1 - accuracy`): the paper's headline metric, since
    /// every miss flushes speculative work.
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &PredictionStats) {
        self.predicted += other.predicted;
        self.correct += other.correct;
    }
}

/// Full result of simulating one predictor over one trace.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Conditional-branch direction prediction counters.
    pub conditional: PredictionStats,
    /// Return-address-stack statistics for subroutine returns.
    pub ras: RasStats,
}

impl SimResult {
    /// Conditional-branch prediction accuracy (the paper's vertical
    /// axis).
    pub fn accuracy(&self) -> f64 {
        self.conditional.accuracy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_miss_rate() {
        let mut s = PredictionStats::default();
        for i in 0..10 {
            s.record(i < 9);
        }
        assert!((s.accuracy() - 0.9).abs() < 1e-12);
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_perfect() {
        let s = PredictionStats::default();
        assert_eq!(s.accuracy(), 1.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PredictionStats {
            predicted: 10,
            correct: 9,
        };
        let b = PredictionStats {
            predicted: 10,
            correct: 5,
        };
        a.merge(&b);
        assert_eq!(a.predicted, 20);
        assert_eq!(a.correct, 14);
    }
}
