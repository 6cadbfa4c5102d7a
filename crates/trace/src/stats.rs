//! Derived trace statistics backing Table 1 and Figures 3–4.

use crate::branch::{BranchClass, InstClass};
use crate::trace::Trace;
use std::collections::HashSet;

/// Dynamic instruction mix counters (Figure 3 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstMix {
    counts: [u64; 5],
}

impl InstMix {
    /// Adds one instruction of the given class.
    pub fn count(&mut self, class: InstClass) {
        self.counts[Self::index(class)] += 1;
    }

    /// The number of instructions of the given class.
    pub fn get(&self, class: InstClass) -> u64 {
        self.counts[Self::index(class)]
    }

    /// Total instructions across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the total belonging to `class`, or 0 for an empty mix.
    pub fn fraction(&self, class: InstClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    /// Merges another mix into this one.
    pub fn merge(&mut self, other: &InstMix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    pub(crate) fn set_raw(&mut self, class: InstClass, value: u64) {
        self.counts[Self::index(class)] = value;
    }

    fn index(class: InstClass) -> usize {
        match class {
            InstClass::IntAlu => 0,
            InstClass::FpAlu => 1,
            InstClass::Mem => 2,
            InstClass::Branch => 3,
            InstClass::Other => 4,
        }
    }
}

/// Distribution of dynamic branches over the four branch classes
/// (Figure 4 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassDistribution {
    counts: [u64; 4],
}

impl ClassDistribution {
    /// Adds one branch of the given class.
    pub fn count(&mut self, class: BranchClass) {
        self.counts[Self::index(class)] += 1;
    }

    /// The number of branches of the given class.
    pub fn get(&self, class: BranchClass) -> u64 {
        self.counts[Self::index(class)]
    }

    /// Total branches across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the total belonging to `class`, or 0 when empty.
    pub fn fraction(&self, class: BranchClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    fn index(class: BranchClass) -> usize {
        match class {
            BranchClass::Conditional => 0,
            BranchClass::Return => 1,
            BranchClass::ImmediateUnconditional => 2,
            BranchClass::RegisterUnconditional => 3,
        }
    }
}

/// Statistics derived from a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Number of distinct conditional-branch sites (Table 1).
    pub static_conditional_branches: usize,
    /// Number of distinct branch sites of any class.
    pub static_branches: usize,
    /// Dynamic conditional branches executed.
    pub dynamic_conditional_branches: u64,
    /// Dynamic branch-class distribution (Figure 4).
    pub class_distribution: ClassDistribution,
    /// Dynamic instruction mix (Figure 3).
    pub inst_mix: InstMix,
    /// Fraction of dynamic conditional branches that were taken.
    pub taken_rate: f64,
}

impl TraceStats {
    /// Computes statistics from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut static_cond = HashSet::new();
        let mut static_all = HashSet::new();
        let mut dist = ClassDistribution::default();
        let mut cond_dynamic = 0u64;
        let mut cond_taken = 0u64;
        for b in trace.iter() {
            static_all.insert(b.pc);
            dist.count(b.class);
            if b.class == BranchClass::Conditional {
                static_cond.insert(b.pc);
                cond_dynamic += 1;
                cond_taken += b.taken as u64;
            }
        }
        TraceStats {
            static_conditional_branches: static_cond.len(),
            static_branches: static_all.len(),
            dynamic_conditional_branches: cond_dynamic,
            class_distribution: dist,
            inst_mix: *trace.inst_mix(),
            taken_rate: if cond_dynamic == 0 {
                0.0
            } else {
                cond_taken as f64 / cond_dynamic as f64
            },
        }
    }

    /// Fraction of dynamic instructions that are branches (any class).
    pub fn branch_fraction(&self) -> f64 {
        self.inst_mix.fraction(InstClass::Branch)
    }
}

/// Geometric mean of a slice of values.
///
/// The paper reports "Tot G Mean", "Int G Mean" and "FP G Mean" columns;
/// this is the helper behind them. Returns `None` for an empty slice or
/// any non-positive value.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchRecord;

    #[test]
    fn inst_mix_counts_and_fractions() {
        let mut mix = InstMix::default();
        mix.count(InstClass::IntAlu);
        mix.count(InstClass::IntAlu);
        mix.count(InstClass::Branch);
        mix.count(InstClass::FpAlu);
        assert_eq!(mix.total(), 4);
        assert_eq!(mix.get(InstClass::IntAlu), 2);
        assert!((mix.fraction(InstClass::IntAlu) - 0.5).abs() < 1e-12);
        assert_eq!(InstMix::default().fraction(InstClass::Mem), 0.0);
    }

    #[test]
    fn inst_mix_merge() {
        let mut a = InstMix::default();
        a.count(InstClass::Mem);
        let mut b = InstMix::default();
        b.count(InstClass::Mem);
        b.count(InstClass::Other);
        a.merge(&b);
        assert_eq!(a.get(InstClass::Mem), 2);
        assert_eq!(a.get(InstClass::Other), 1);
    }

    #[test]
    fn class_distribution_counts() {
        let mut d = ClassDistribution::default();
        d.count(BranchClass::Conditional);
        d.count(BranchClass::Conditional);
        d.count(BranchClass::Return);
        assert_eq!(d.total(), 3);
        assert!((d.fraction(BranchClass::Conditional) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            ClassDistribution::default().fraction(BranchClass::Return),
            0.0
        );
    }

    #[test]
    fn trace_stats_from_trace() {
        let mut t = Trace::new();
        // Two sites, three dynamic conditionals (2 taken), one return.
        t.push(BranchRecord::conditional(0x10, 0x20, true));
        t.push(BranchRecord::conditional(0x10, 0x20, true));
        t.push(BranchRecord::conditional(0x14, 0x04, false));
        t.push(BranchRecord::subroutine_return(0x18, 0x20));
        t.count_instruction(InstClass::IntAlu);
        let s = t.stats();
        assert_eq!(s.static_conditional_branches, 2);
        assert_eq!(s.static_branches, 3);
        assert_eq!(s.dynamic_conditional_branches, 3);
        assert!((s.taken_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.class_distribution.get(BranchClass::Return), 1);
        assert!((s.branch_fraction() - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::new().stats();
        assert_eq!(s.static_conditional_branches, 0);
        assert_eq!(s.taken_rate, 0.0);
        assert_eq!(s.branch_fraction(), 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let single = geometric_mean(&[0.97]).unwrap();
        assert!((single - 0.97).abs() < 1e-12);
    }
}
