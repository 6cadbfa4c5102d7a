//! The Two-Level Adaptive Training branch predictor — the paper's
//! contribution.
//!
//! Level one is a per-address table of k-bit branch-history shift
//! registers (the HRT); level two is a single global pattern table of
//! 2^k pattern-history automata. A branch is predicted by reading the
//! automaton indexed by the branch's current history pattern; when the
//! branch resolves, the outcome is shifted into its history register and
//! folded into the automaton that was indexed by the *old* pattern.
//!
//! The §3.2 latency optimization is also implemented: at update time,
//! the prediction for the *new* history pattern is computed and cached
//! in the HRT entry, so the next prediction of that branch is a single
//! table lookup.

use crate::automaton::AutomatonKind;
use crate::history::HistoryRegister;
use crate::hrt::{AnyHrt, HistoryTable, HrtConfig, HrtStats, Probe};
use crate::pattern::PatternTable;
use crate::predictor::Predictor;
use crate::walk::{Member, Walk};
use tlat_trace::{BranchRecord, SiteId};

/// Configuration of a [`TwoLevelAdaptive`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelConfig {
    /// History register length k (pattern table has 2^k entries).
    pub history_bits: u8,
    /// Pattern-history automaton used in the pattern table.
    pub automaton: AutomatonKind,
    /// History-register-table organization.
    pub hrt: HrtConfig,
    /// Use the §3.2 cached-prediction-bit optimization (the paper's
    /// implementation; also the default).
    pub cached_prediction: bool,
    /// Re-initialize a victim HRT entry on replacement (the paper does
    /// *not*; kept for ablation).
    pub reinit_on_replace: bool,
    /// Initialize pattern-table entries to the strongly-not-taken state
    /// instead of the paper's biased-taken state (ablation).
    pub init_not_taken: bool,
}

impl TwoLevelConfig {
    /// The paper's headline configuration:
    /// `AT(AHRT(512,12SR),PT(2^12,A2),)`.
    pub fn paper_default() -> Self {
        TwoLevelConfig {
            history_bits: 12,
            automaton: AutomatonKind::A2,
            hrt: HrtConfig::ahrt(512),
            cached_prediction: true,
            reinit_on_replace: false,
            init_not_taken: false,
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
        let mut label = format!(
            "AT({hrt},PT(2^{},{}),)",
            self.history_bits,
            self.automaton.name()
        );
        // Ablation flags (all default-off in the paper's configurations)
        // are appended so variant rows are distinguishable in reports.
        if !self.cached_prediction {
            label.push_str("[two-lookup]");
        }
        if self.reinit_on_replace {
            label.push_str("[reinit]");
        }
        if self.init_not_taken {
            label.push_str("[init-NT]");
        }
        label
    }
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        TwoLevelConfig::paper_default()
    }
}

/// One HRT entry: the branch's history register plus the cached
/// prediction bit of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AtEntry {
    history: HistoryRegister,
    prediction: bool,
}

/// The Two-Level Adaptive Training predictor (scheme `AT`).
///
/// # Examples
///
/// Learning an alternating branch that defeats simple counters:
///
/// ```
/// use tlat_core::{Predictor, TwoLevelAdaptive, TwoLevelConfig};
/// use tlat_trace::BranchRecord;
///
/// let mut at = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
/// let mut correct = 0;
/// for i in 0..200u32 {
///     let b = BranchRecord::conditional(0x1000, 0x800, i % 2 == 0);
///     correct += (at.predict(&b) == b.taken) as u32;
///     at.update(&b);
/// }
/// // After the 12-bit history warms up, every prediction is right.
/// assert!(correct > 180);
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelAdaptive {
    config: TwoLevelConfig,
    hrt: AnyHrt<AtEntry>,
    pattern_table: PatternTable,
}

impl TwoLevelAdaptive {
    /// Builds a predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration carries invalid geometry (history
    /// bits out of range, non-power-of-two table sizes).
    pub fn new(config: TwoLevelConfig) -> Self {
        let pattern_table = if config.init_not_taken {
            PatternTable::with_init(
                config.history_bits,
                config.automaton,
                config.automaton.init_not_taken(),
            )
        } else {
            PatternTable::new(config.history_bits, config.automaton)
        };
        // Pre-warmed entries: all-ones history, predicting whatever the
        // fresh pattern table says for the all-ones pattern.
        let history = HistoryRegister::new(config.history_bits);
        let fill = AtEntry {
            history,
            prediction: pattern_table.predict(history.pattern()),
        };
        let mut hrt = AnyHrt::build(config.hrt, fill);
        hrt.set_reinit_on_replace(config.reinit_on_replace);
        TwoLevelAdaptive {
            config,
            hrt,
            pattern_table,
        }
    }

    /// Folds the access statistics of probing done on this predictor's
    /// behalf, by a compiled walk's slot source, into its HRT (see
    /// [`AnyHrt::adopt_probe_stats`]).
    pub fn adopt_probe_stats(&mut self, stats: HrtStats) {
        self.hrt.adopt_probe_stats(stats);
    }

    /// This predictor's configuration.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.config
    }

    /// History-register-table access statistics.
    pub fn hrt_stats(&self) -> HrtStats {
        self.hrt.stats()
    }

    /// Read-only access to the global pattern table.
    pub fn pattern_table(&self) -> &PatternTable {
        &self.pattern_table
    }

    /// This fresh predictor's [`Walk`] over a table of `slots` slots,
    /// a group of one, each slot pre-warmed as the predictor's own table
    /// is: an all-ones register, caching what the fresh pattern table
    /// guesses for it.
    pub fn walker(&self, slots: usize) -> Walk<TwoLevelMember, [TwoLevelMember; 1]> {
        let member = TwoLevelMember {
            table: self.pattern_table.clone(),
            mask: HistoryRegister::new(self.config.history_bits).pattern() as u16,
            cached: self.config.cached_prediction,
            fresh: if self.config.reinit_on_replace {
                Probe::FILLED | Probe::REPLACED
            } else {
                Probe::FILLED
            },
        };
        Walk::fresh([member], slots)
    }

    fn fresh_entry(pattern_table: &PatternTable, bits: u8) -> AtEntry {
        let history = HistoryRegister::new(bits);
        AtEntry {
            history,
            prediction: pattern_table.predict(history.pattern()),
        }
    }
}

impl Predictor for TwoLevelAdaptive {
    fn name(&self) -> String {
        self.config.label()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        let pattern_table = &self.pattern_table;
        let bits = self.config.history_bits;
        let (entry, _hit) = self
            .hrt
            .get_or_allocate(branch.pc, || Self::fresh_entry(pattern_table, bits));
        if self.config.cached_prediction {
            entry.prediction
        } else {
            // Pure two-lookup prediction: read the pattern table now.
            self.pattern_table.predict(entry.history.pattern())
        }
    }

    fn update(&mut self, branch: &BranchRecord) {
        let taken = branch.taken;
        let pattern_table = &self.pattern_table;
        let bits = self.config.history_bits;
        // Normally the entry exists (predict ran first); peek avoids
        // perturbing hit statistics, falling back to allocation for
        // robustness when update is called cold.
        let (old_pattern, new_pattern) = {
            let entry = match self.hrt.peek(branch.pc) {
                Some(entry) => entry,
                None => {
                    self.hrt
                        .get_or_allocate(branch.pc, || Self::fresh_entry(pattern_table, bits))
                        .0
                }
            };
            let old = entry.history.pattern();
            entry.history.shift(taken);
            (old, entry.history.pattern())
        };
        // δ on the entry indexed by the *old* pattern.
        self.pattern_table.update(old_pattern, taken);
        // §3.2: cache the prediction for the updated history.
        let prediction = self.pattern_table.predict(new_pattern);
        if let Some(entry) = self.hrt.peek(branch.pc) {
            entry.prediction = prediction;
        }
    }

    fn predict_update(&mut self, branch: &BranchRecord) -> bool {
        // Fused cycle: predict + update repeat the same HRT search
        // three times between them; here the entry is found once and
        // held across the whole cycle. State and statistics end up
        // exactly as the two-phase path leaves them (the single
        // `get_or_allocate` is the one predict would have counted).
        let taken = branch.taken;
        let pattern_table = &self.pattern_table;
        let bits = self.config.history_bits;
        let (entry, _hit) = self
            .hrt
            .get_or_allocate(branch.pc, || Self::fresh_entry(pattern_table, bits));
        let old_pattern = entry.history.pattern();
        let guess = if self.config.cached_prediction {
            entry.prediction
        } else {
            pattern_table.predict(old_pattern)
        };
        entry.history.shift(taken);
        let new_pattern = entry.history.pattern();
        self.pattern_table.update(old_pattern, taken);
        entry.prediction = self.pattern_table.predict(new_pattern);
        guess
    }
}

/// A [`TwoLevelAdaptive`] predictor's level two, as a [`Walk`] member:
/// its pattern table, with its §3.2 cached guess as its state word.
#[derive(Debug, Clone)]
pub struct TwoLevelMember {
    table: PatternTable,
    /// Its own history bits, the low bits of the walk's register.
    mask: u16,
    cached: bool,
    /// The probe flags that re-initialize its slot: a fill, and under
    /// `reinit_on_replace` a replacement too.
    fresh: u32,
}

impl Member for TwoLevelMember {
    const REGISTER: bool = true;
    const STATE: bool = true;
    const REINIT: bool = true;

    fn mask(&self) -> u16 {
        self.mask
    }

    fn fresh(&self) -> u32 {
        self.fresh
    }

    /// What the member caches for a register reading `register`.
    #[inline(always)]
    fn state(&self, register: u16) -> u16 {
        u16::from(self.table.predict(usize::from(register & self.mask)))
    }

    /// [`TwoLevelAdaptive`]'s fused cycle: the guess is the cached bit
    /// (or, for a two-lookup member, its table's), the old pattern
    /// trains, and the bit caches the new pattern's guess.
    #[inline(always)]
    fn cycle(&mut self, _site: SiteId, old: u16, new: u16, taken: bool, cached: &mut u16) -> bool {
        let pattern = usize::from(old & self.mask);
        let guess = if self.cached {
            *cached != 0
        } else {
            self.table.predict(pattern)
        };
        self.table.update(pattern, taken);
        *cached = self.state(new);
        guess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u32, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, 0x800, taken)
    }

    fn run_pattern(config: TwoLevelConfig, pattern: &[bool], reps: usize) -> f64 {
        let mut p = TwoLevelAdaptive::new(config);
        let mut correct = 0u64;
        let mut total = 0u64;
        for _ in 0..reps {
            for &taken in pattern {
                let b = cond(0x1000, taken);
                correct += (p.predict(&b) == taken) as u64;
                p.update(&b);
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_periodic_patterns_perfectly_after_warmup() {
        // Period-6 pattern, impossible for a 2-bit counter alone.
        let pattern = [true, true, false, true, false, false];
        let acc = run_pattern(TwoLevelConfig::paper_default(), &pattern, 200);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn short_history_fails_on_long_period_patterns() {
        // A pattern whose disambiguation needs more than 2 bits of
        // history: 3 takens then 3 not-takens. After "TT" the next can
        // be T (inside run) or N (run end) — 2-bit history cannot tell.
        let pattern = [true, true, true, false, false, false];
        let short = run_pattern(
            TwoLevelConfig {
                history_bits: 2,
                ..TwoLevelConfig::paper_default()
            },
            &pattern,
            300,
        );
        let long = run_pattern(
            TwoLevelConfig {
                history_bits: 6,
                ..TwoLevelConfig::paper_default()
            },
            &pattern,
            300,
        );
        assert!(long > 0.97, "long-history accuracy {long}");
        assert!(long > short, "expected {long} > {short}");
    }

    #[test]
    fn cached_and_pure_prediction_agree_for_a_single_branch() {
        // For a single branch no other branch can touch the pattern
        // table between an update and the next prediction, so the §3.2
        // cached prediction bit must match the pure two-lookup result
        // exactly. (With multiple branches sharing pattern-table entries
        // the cached bit can go stale by design — that is the latency
        // trade-off the paper accepts.)
        let base = TwoLevelConfig {
            hrt: HrtConfig::Ideal,
            ..TwoLevelConfig::paper_default()
        };
        let mut cached = TwoLevelAdaptive::new(TwoLevelConfig {
            cached_prediction: true,
            ..base
        });
        let mut pure = TwoLevelAdaptive::new(TwoLevelConfig {
            cached_prediction: false,
            ..base
        });
        let mut x = 123456789u64;
        for i in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 17) & 3 != 0;
            let b = cond(0x1000, taken);
            assert_eq!(cached.predict(&b), pure.predict(&b), "branch {i}");
            cached.update(&b);
            pure.update(&b);
        }
    }

    #[test]
    fn first_prediction_is_taken() {
        // All-ones initialization plus biased-taken automata: a cold
        // branch predicts taken.
        let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        assert!(p.predict(&cond(0x1000, false)));
    }

    #[test]
    fn init_not_taken_ablation_flips_cold_prediction() {
        let mut p = TwoLevelAdaptive::new(TwoLevelConfig {
            init_not_taken: true,
            ..TwoLevelConfig::paper_default()
        });
        assert!(!p.predict(&cond(0x1000, true)));
    }

    #[test]
    fn label_matches_paper_convention() {
        assert_eq!(
            TwoLevelConfig::paper_default().label(),
            "AT(AHRT(512,12SR),PT(2^12,A2),)"
        );
        let ideal = TwoLevelConfig {
            hrt: HrtConfig::Ideal,
            history_bits: 10,
            automaton: AutomatonKind::A3,
            ..TwoLevelConfig::paper_default()
        };
        assert_eq!(ideal.label(), "AT(IHRT(,10SR),PT(2^10,A3),)");
        let hashed = TwoLevelConfig {
            hrt: HrtConfig::hhrt(256),
            ..TwoLevelConfig::paper_default()
        };
        assert_eq!(hashed.label(), "AT(HHRT(256,12SR),PT(2^12,A2),)");
    }

    #[test]
    fn hrt_stats_reflect_misses() {
        let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        for i in 0..100u32 {
            let b = cond(0x1000 + i * 4, true);
            p.predict(&b);
            p.update(&b);
        }
        let stats = p.hrt_stats();
        assert_eq!(stats.accesses, 100);
        assert_eq!(stats.misses, 100); // all distinct, all cold
                                       // Second pass: 100 distinct branches fit in 512 entries.
        for i in 0..100u32 {
            let b = cond(0x1000 + i * 4, true);
            p.predict(&b);
            p.update(&b);
        }
        assert_eq!(p.hrt_stats().misses, 100);
    }

    #[test]
    fn hashed_hrt_interference_degrades_accuracy() {
        // Many biased-but-noisy branches force real history
        // interference: with private registers each branch's history is
        // its own (mostly-ones or mostly-zeros) signature; when dozens
        // of branches share the few registers of a tiny HHRT the
        // patterns become scrambled noise.
        let mk = |hrt| TwoLevelConfig {
            hrt,
            history_bits: 8,
            ..TwoLevelConfig::paper_default()
        };
        let accuracy = |config: TwoLevelConfig| {
            let mut p = TwoLevelAdaptive::new(config);
            let mut correct = 0u32;
            let total = 40_000;
            let mut x = 0xdead_beefu64;
            for _ in 0..total {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Random visit order so colliding branches interleave
                // unpredictably in the shared history register.
                let site = ((x >> 23) % 64) as u32;
                let pc = 0x1000 + site * 4;
                // Low sites ~90 % taken, high sites ~10 % taken; every
                // HHRT slot mixes both kinds.
                let noise = (x >> 40) & 0x3ff;
                let taken = if site < 32 { noise < 922 } else { noise >= 922 };
                let b = cond(pc, taken);
                correct += (p.predict(&b) == taken) as u32;
                p.update(&b);
            }
            correct as f64 / total as f64
        };
        let ideal = accuracy(mk(HrtConfig::Ideal));
        let hashed = accuracy(mk(HrtConfig::hhrt(4)));
        assert!(ideal > 0.85, "ideal accuracy {ideal}");
        assert!(
            hashed < ideal - 0.02,
            "expected interference to hurt: hashed {hashed} vs ideal {ideal}"
        );
    }

    #[test]
    fn update_without_predict_is_safe() {
        let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
        p.update(&cond(0x1000, true));
        assert!(p.predict(&cond(0x1000, false)));
    }

    #[test]
    fn distinct_branches_with_ideal_hrt_do_not_share_history() {
        let mut p = TwoLevelAdaptive::new(TwoLevelConfig {
            hrt: HrtConfig::Ideal,
            ..TwoLevelConfig::paper_default()
        });
        // Branch A: always taken. Branch B: always not-taken.
        for _ in 0..50 {
            for (pc, taken) in [(0x1000, true), (0x2000, false)] {
                let b = cond(pc, taken);
                p.predict(&b);
                p.update(&b);
            }
        }
        assert!(p.predict(&cond(0x1000, true)));
        assert!(!p.predict(&cond(0x2000, false)));
    }
}
