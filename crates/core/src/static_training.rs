//! Lee & Smith's Static Training scheme (scheme `ST`).
//!
//! Static Training keeps the same two-level structure as the adaptive
//! scheme — per-branch history registers indexing a pattern table — but
//! the pattern table holds *preset prediction bits* computed by
//! profiling a training run, instead of automata updated on the fly.
//! At execution time only the history registers change; given the same
//! history pattern the prediction is always the same.
//!
//! The paper evaluates the scheme trained on the same data set it is
//! tested on (`Same`, the scheme's best case) and trained on a different
//! data set (`Diff`, the realistic case, where accuracy drops).

use crate::history::HistoryRegister;
use crate::hrt::{AnyHrt, HistoryTable, HrtConfig, HrtStats};
use crate::predictor::Predictor;
use crate::walk::{Member, Walk};
use tlat_trace::{BranchClass, BranchRecord, CompiledTrace, SiteId, Trace};

/// Configuration of a [`StaticTraining`] predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticTrainingConfig {
    /// History register length k.
    pub history_bits: u8,
    /// History-register-table organization.
    pub hrt: HrtConfig,
    /// `"Same"` or `"Diff"` — which data set the pattern table was
    /// trained on, relative to the test run (only used in the label).
    pub data: String,
}

impl StaticTrainingConfig {
    /// The paper's standard configuration trained and tested on the same
    /// data set: `ST(AHRT(512,12SR),PT(2^12,PB),Same)`.
    pub fn paper_default() -> Self {
        StaticTrainingConfig {
            history_bits: 12,
            hrt: HrtConfig::ahrt(512),
            data: "Same".to_owned(),
        }
    }

    /// The paper's naming convention for this configuration.
    pub fn label(&self) -> String {
        let hrt = match self.hrt {
            HrtConfig::Ideal => format!("IHRT(,{}SR)", self.history_bits),
            HrtConfig::Associative { entries, .. } => {
                format!("AHRT({entries},{}SR)", self.history_bits)
            }
            HrtConfig::Hashed { entries } => format!("HHRT({entries},{}SR)", self.history_bits),
        };
        format!("ST({hrt},PT(2^{},PB),{})", self.history_bits, self.data)
    }
}

/// Statistics gathered while profiling a training trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainingProfile {
    taken: Vec<u64>,
    total: Vec<u64>,
}

impl TrainingProfile {
    /// Profiles `trace`, collecting per-pattern taken/not-taken counts
    /// with ideal (per-branch, unbounded) history tracking, as the
    /// paper's off-line software accounting would.
    pub fn collect(trace: &Trace, history_bits: u8) -> Self {
        let size = 1usize << history_bits;
        let mut profile = TrainingProfile {
            taken: vec![0; size],
            total: vec![0; size],
        };
        let mut histories: std::collections::HashMap<u32, HistoryRegister> =
            std::collections::HashMap::new();
        for branch in trace.iter() {
            if branch.class != BranchClass::Conditional {
                continue;
            }
            let hr = histories
                .entry(branch.pc)
                .or_insert_with(|| HistoryRegister::new(history_bits));
            let pattern = hr.pattern();
            profile.total[pattern] += 1;
            profile.taken[pattern] += branch.taken as u64;
            hr.shift(branch.taken);
        }
        profile
    }

    /// [`collect`](TrainingProfile::collect) over a compiled event
    /// stream. Sites intern one-to-one with branch addresses in
    /// first-appearance order, so per-site history registers observe
    /// exactly the per-pc sequences of the record walk and the profile
    /// is identical (pinned by tests) — without ever materializing
    /// per-record vectors.
    pub fn collect_compiled(compiled: &CompiledTrace, history_bits: u8) -> Self {
        let size = 1usize << history_bits;
        let mut profile = TrainingProfile {
            taken: vec![0; size],
            total: vec![0; size],
        };
        let mut histories = vec![HistoryRegister::new(history_bits); compiled.num_sites()];
        for (site, taken) in compiled.events() {
            let hr = &mut histories[site as usize];
            let pattern = hr.pattern();
            profile.total[pattern] += 1;
            profile.taken[pattern] += taken as u64;
            hr.shift(taken);
        }
        profile
    }

    /// The preset prediction bit for each pattern: the majority
    /// direction, with unseen patterns and ties predicting taken (the
    /// global bias of §4.2).
    pub fn preset_bits(&self) -> Vec<bool> {
        self.taken
            .iter()
            .zip(&self.total)
            .map(|(&t, &n)| 2 * t >= n)
            .collect()
    }
}

/// One HRT entry for Static Training: just the history register.
type StEntry = HistoryRegister;

/// The Static Training predictor.
///
/// Constructed by [`StaticTraining::train`], which profiles a training
/// trace; there is no learning at test time.
///
/// # Examples
///
/// ```
/// use tlat_core::{Predictor, StaticTraining, StaticTrainingConfig};
/// use tlat_trace::{BranchRecord, Trace};
///
/// let mut training: Trace = (0..100)
///     .map(|i| BranchRecord::conditional(0x1000, 0x800, i % 2 == 0))
///     .collect();
/// let mut st = StaticTraining::train(StaticTrainingConfig::paper_default(), &training);
/// // The alternating pattern was learned from the profile.
/// let b = BranchRecord::conditional(0x1000, 0x800, true);
/// st.predict(&b);
/// ```
#[derive(Debug, Clone)]
pub struct StaticTraining {
    config: StaticTrainingConfig,
    hrt: AnyHrt<StEntry>,
    preset: Vec<bool>,
}

impl StaticTraining {
    /// Profiles `training_trace` and builds the predictor.
    ///
    /// # Panics
    ///
    /// Panics when the configuration carries invalid table geometry.
    pub fn train(config: StaticTrainingConfig, training_trace: &Trace) -> Self {
        let profile = TrainingProfile::collect(training_trace, config.history_bits);
        Self::with_profile(config, &profile)
    }

    /// Builds the predictor from an already-collected profile.
    ///
    /// # Panics
    ///
    /// Panics when the profile size does not match `config.history_bits`
    /// or the table geometry is invalid.
    pub fn with_profile(config: StaticTrainingConfig, profile: &TrainingProfile) -> Self {
        let preset = profile.preset_bits();
        assert_eq!(
            preset.len(),
            1usize << config.history_bits,
            "profile size does not match history length"
        );
        let hrt = AnyHrt::build(config.hrt, HistoryRegister::new(config.history_bits));
        StaticTraining {
            config,
            hrt,
            preset,
        }
    }

    /// Folds the access statistics of probing done on this predictor's
    /// behalf, by a compiled walk's slot source, into its HRT (see
    /// [`AnyHrt::adopt_probe_stats`](crate::AnyHrt::adopt_probe_stats)).
    pub fn adopt_probe_stats(&mut self, stats: HrtStats) {
        self.hrt.adopt_probe_stats(stats);
    }

    /// This predictor's configuration.
    pub fn config(&self) -> &StaticTrainingConfig {
        &self.config
    }

    /// History-register-table access statistics.
    pub fn hrt_stats(&self) -> HrtStats {
        self.hrt.stats()
    }

    /// The preset prediction bit for a pattern.
    pub fn preset(&self, pattern: usize) -> bool {
        self.preset[pattern]
    }

    /// This fresh predictor's [`Walk`] over a table of `slots` slots,
    /// a group of one, each pre-warmed as the predictor's own table is:
    /// an all-ones register.
    pub fn walker(&self, slots: usize) -> Walk<StaticTrainingMember, [StaticTrainingMember; 1]> {
        let member = StaticTrainingMember {
            preset: self.preset.clone(),
            mask: HistoryRegister::new(self.config.history_bits).pattern() as u16,
        };
        Walk::fresh([member], slots)
    }
}

impl Predictor for StaticTraining {
    fn name(&self) -> String {
        self.config.label()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        let bits = self.config.history_bits;
        let (hr, _) = self
            .hrt
            .get_or_allocate(branch.pc, || HistoryRegister::new(bits));
        self.preset[hr.pattern()]
    }

    fn update(&mut self, branch: &BranchRecord) {
        let bits = self.config.history_bits;
        let hr = match self.hrt.peek(branch.pc) {
            Some(hr) => hr,
            None => {
                self.hrt
                    .get_or_allocate(branch.pc, || HistoryRegister::new(bits))
                    .0
            }
        };
        hr.shift(branch.taken);
    }

    fn predict_update(&mut self, branch: &BranchRecord) -> bool {
        // Fused cycle: one HRT search serves both phases; state and
        // stats match predict-then-update exactly.
        let bits = self.config.history_bits;
        let (hr, _) = self
            .hrt
            .get_or_allocate(branch.pc, || HistoryRegister::new(bits));
        let pattern = hr.pattern();
        hr.shift(branch.taken);
        self.preset[pattern]
    }
}

/// A [`StaticTraining`] predictor's preset bits, as a [`Walk`] member,
/// read with its low bits of the slot's register.
#[derive(Debug, Clone)]
pub struct StaticTrainingMember {
    preset: Vec<bool>,
    /// Its own history bits, the low bits of the walk's register.
    mask: u16,
}

impl Member for StaticTrainingMember {
    const REGISTER: bool = true;
    const STATE: bool = false;

    fn mask(&self) -> u16 {
        self.mask
    }

    /// Never ([`usize::MAX`]): once a run fills the register, every
    /// further event guesses the one preset bit that the run's pattern
    /// indexes, and a profile may set that bit against the run, so no
    /// tail is credited.
    fn run_bound(&self) -> usize {
        usize::MAX
    }

    /// [`StaticTraining`]'s fused cycle: the preset bit of the old
    /// pattern.
    #[inline(always)]
    fn cycle(&mut self, _: SiteId, old: u16, _: u16, _: bool, _: &mut u16) -> bool {
        self.preset[usize::from(old & self.mask)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u32, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, 0x800, taken)
    }

    fn periodic_trace(pc: u32, pattern: &[bool], reps: usize) -> Trace {
        let mut t = Trace::new();
        for _ in 0..reps {
            for &taken in pattern {
                t.push(cond(pc, taken));
            }
        }
        t
    }

    fn accuracy(p: &mut StaticTraining, trace: &Trace) -> f64 {
        let mut correct = 0u64;
        for b in trace.iter() {
            correct += (p.predict(b) == b.taken) as u64;
            p.update(b);
        }
        correct as f64 / trace.len() as f64
    }

    #[test]
    fn same_data_training_is_near_perfect_on_periodic_patterns() {
        let trace = periodic_trace(0x1000, &[true, true, false, true, false, false], 200);
        let mut st = StaticTraining::train(StaticTrainingConfig::paper_default(), &trace);
        let acc = accuracy(&mut st, &trace);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn different_data_degrades_accuracy() {
        // Train on one behaviour, test on the opposite.
        let train = periodic_trace(0x1000, &[true, true, true, false], 200);
        let test = periodic_trace(0x1000, &[false, false, false, true], 200);
        let config = StaticTrainingConfig {
            data: "Diff".to_owned(),
            ..StaticTrainingConfig::paper_default()
        };
        let mut st = StaticTraining::train(config, &train);
        let acc = accuracy(&mut st, &test);
        assert!(acc < 0.6, "accuracy {acc}");
    }

    #[test]
    fn predictions_are_fixed_per_pattern() {
        // Unlike the adaptive scheme, running the predictor does not
        // change what a given pattern predicts.
        let train = periodic_trace(0x1000, &[true, false], 100);
        let mut st = StaticTraining::train(StaticTrainingConfig::paper_default(), &train);
        let before: Vec<bool> = (0..16).map(|p| st.preset(p)).collect();
        let test = periodic_trace(0x1000, &[false, false, true], 100);
        let _ = accuracy(&mut st, &test);
        let after: Vec<bool> = (0..16).map(|p| st.preset(p)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn unseen_patterns_predict_taken() {
        let empty = Trace::new();
        let mut st = StaticTraining::train(StaticTrainingConfig::paper_default(), &empty);
        assert!(st.predict(&cond(0x1000, false)));
    }

    #[test]
    fn compiled_profile_collection_equals_record_collection() {
        // A multi-site trace with interleaved sites and mixed outcomes:
        // the streaming collector must reproduce the record collector's
        // per-pattern counts exactly.
        let mut trace = Trace::new();
        for i in 0..500u32 {
            let pc = 0x1000 + (i % 5) * 8;
            trace.push(cond(pc, i % 3 != 0));
            if i % 7 == 0 {
                trace.push(BranchRecord::subroutine_return(0x3000, 0x4000));
            }
        }
        let compiled = CompiledTrace::compile(&trace);
        for bits in [4u8, 8, 12] {
            assert_eq!(
                TrainingProfile::collect_compiled(&compiled, bits),
                TrainingProfile::collect(&trace, bits),
                "history_bits {bits}"
            );
        }
    }

    #[test]
    fn profile_ignores_non_conditional_branches() {
        let mut trace = Trace::new();
        for _ in 0..10 {
            trace.push(BranchRecord::subroutine_return(0x1000, 0x2000));
        }
        let profile = TrainingProfile::collect(&trace, 4);
        assert_eq!(profile.total.iter().sum::<u64>(), 0);
    }

    #[test]
    fn tie_breaks_toward_taken() {
        let mut trace = Trace::new();
        trace.push(cond(0x1000, true));
        trace.push(cond(0x1000, false));
        // Both outcomes observed under the all-ones pattern... first
        // occurrence pattern is all-ones, second is shifted. Build an
        // explicit tie instead: two occurrences of the same pattern.
        let profile = TrainingProfile::collect(&trace, 4);
        let preset = profile.preset_bits();
        // All-ones pattern saw exactly one taken of one total at first
        // occurrence; the pattern after shift(true) is still all-ones,
        // which then saw a not-taken: 1 taken / 2 total -> tie -> taken.
        assert!(preset[0b1111]);
    }

    #[test]
    fn label_matches_paper_convention() {
        assert_eq!(
            StaticTrainingConfig::paper_default().label(),
            "ST(AHRT(512,12SR),PT(2^12,PB),Same)"
        );
        let diff = StaticTrainingConfig {
            hrt: HrtConfig::Ideal,
            data: "Diff".to_owned(),
            ..StaticTrainingConfig::paper_default()
        };
        assert_eq!(diff.label(), "ST(IHRT(,12SR),PT(2^12,PB),Diff)");
    }

    #[test]
    #[should_panic(expected = "profile size")]
    fn mismatched_profile_panics() {
        let profile = TrainingProfile::collect(&Trace::new(), 4);
        let _ = StaticTraining::with_profile(StaticTrainingConfig::paper_default(), &profile);
    }
}
