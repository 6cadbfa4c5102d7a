//! Pipeline-flush cost model.
//!
//! The paper's motivation (§1) is that "a prediction miss requires
//! flushing of the speculative execution already in progress", so the
//! relevant metric is the miss rate and its product with flush cost.
//! This module turns measured miss rates into cycles-per-instruction
//! and speedups for a parameterized pipeline, quantifying the paper's
//! "this reduction can lead directly to a large performance gain".

/// A simple in-order pipeline cost model.
///
/// `CPI = base_cpi + f_cond · miss_rate · flush_penalty`, where
/// `f_cond` is the fraction of dynamic instructions that are
/// conditional branches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    /// Cycles per instruction with perfect prediction.
    pub base_cpi: f64,
    /// Cycles lost per mispredicted conditional branch (the depth of
    /// speculative work flushed).
    pub flush_penalty: f64,
}

impl PipelineModel {
    /// A deep pipeline of the era the paper targets (the penalty
    /// roughly matches a fetch-to-resolve distance of five stages).
    pub fn deep() -> Self {
        PipelineModel {
            base_cpi: 1.0,
            flush_penalty: 5.0,
        }
    }

    /// An aggressive superscalar-era model where flushes cost more.
    pub fn superscalar() -> Self {
        PipelineModel {
            base_cpi: 0.5,
            flush_penalty: 10.0,
        }
    }

    /// Cycles per instruction given a conditional-branch instruction
    /// fraction and a direction miss rate.
    ///
    /// # Panics
    ///
    /// Panics if `cond_fraction` or `miss_rate` is outside `[0, 1]`.
    pub fn cpi(&self, cond_fraction: f64, miss_rate: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&cond_fraction),
            "conditional fraction must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&miss_rate),
            "miss rate must be in [0, 1]"
        );
        self.base_cpi + cond_fraction * miss_rate * self.flush_penalty
    }

    /// Speedup of a predictor with `new_miss` over one with
    /// `old_miss`, at the same branch fraction.
    pub fn speedup(&self, cond_fraction: f64, old_miss: f64, new_miss: f64) -> f64 {
        self.cpi(cond_fraction, old_miss) / self.cpi(cond_fraction, new_miss)
    }
}

impl Default for PipelineModel {
    fn default() -> Self {
        PipelineModel::deep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_base_cpi() {
        let m = PipelineModel::deep();
        assert!((m.cpi(0.2, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpi_grows_linearly_with_misses() {
        let m = PipelineModel::deep();
        // 20 % branches, 10 % misses, 5-cycle flush: +0.1 CPI.
        assert!((m.cpi(0.2, 0.1) - 1.1).abs() < 1e-12);
        assert!((m.cpi(0.2, 0.2) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn halving_misses_gives_the_papers_gain() {
        // The paper's framing: 7 % miss -> 3 % miss on a deep pipeline
        // with ~24 % conditional branches.
        let m = PipelineModel::deep();
        let speedup = m.speedup(0.24, 0.07, 0.03);
        assert!(speedup > 1.04, "speedup {speedup}");
        // And on an aggressive machine the gain is larger.
        let s2 = PipelineModel::superscalar().speedup(0.24, 0.07, 0.03);
        assert!(s2 > speedup, "superscalar {s2} vs deep {speedup}");
    }

    #[test]
    #[should_panic(expected = "miss rate")]
    fn invalid_miss_rate_panics() {
        PipelineModel::deep().cpi(0.2, 1.5);
    }

    #[test]
    #[should_panic(expected = "conditional fraction")]
    fn invalid_fraction_panics() {
        PipelineModel::deep().cpi(-0.1, 0.5);
    }
}
