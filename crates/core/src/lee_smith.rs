//! Lee & Smith's Branch Target Buffer designs (scheme `LS`).
//!
//! The comparison baseline of the paper: each branch gets one
//! pattern-history automaton directly in its buffer entry — there is no
//! second-level pattern table and no history register. A 2-bit
//! saturating counter per branch (automaton A2) is the classic design;
//! the Last-Time automaton degenerates to "predict what this branch did
//! last time".

use crate::automaton::{AnyAutomaton, AutomatonKind, CodeTables};
use crate::hrt::{AnyHrt, HistoryTable, HrtConfig, HrtStats};
use crate::predictor::Predictor;
use crate::walk::{Member, Walk};
use tlat_trace::{BranchRecord, SiteId};

/// Configuration of a [`LeeSmithBtb`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeeSmithConfig {
    /// Automaton stored per branch entry.
    pub automaton: AutomatonKind,
    /// Buffer organization.
    pub hrt: HrtConfig,
}

impl LeeSmithConfig {
    /// The classic design: 512-entry 4-way buffer of A2 counters.
    pub fn paper_default() -> Self {
        LeeSmithConfig {
            automaton: AutomatonKind::A2,
            hrt: HrtConfig::ahrt(512),
        }
    }

    /// The paper's naming convention, e.g. `LS(AHRT(512,A2),,)`.
    pub fn label(&self) -> String {
        let hrt = match self.hrt {
            HrtConfig::Ideal => format!("IHRT(,{})", self.automaton.name()),
            HrtConfig::Associative { entries, .. } => {
                format!("AHRT({entries},{})", self.automaton.name())
            }
            HrtConfig::Hashed { entries } => {
                format!("HHRT({entries},{})", self.automaton.name())
            }
        };
        format!("LS({hrt},,)")
    }
}

impl Default for LeeSmithConfig {
    fn default() -> Self {
        LeeSmithConfig::paper_default()
    }
}

/// Lee & Smith's Branch Target Buffer predictor.
///
/// # Examples
///
/// ```
/// use tlat_core::{LeeSmithBtb, LeeSmithConfig, Predictor};
/// use tlat_trace::BranchRecord;
///
/// let mut ls = LeeSmithBtb::new(LeeSmithConfig::paper_default());
/// let loop_branch = BranchRecord::conditional(0x1000, 0x0f00, true);
/// ls.predict(&loop_branch);
/// ls.update(&loop_branch);
/// // A counter-based entry predicts a mostly-taken branch correctly.
/// assert!(ls.predict(&loop_branch));
/// ```
#[derive(Debug, Clone)]
pub struct LeeSmithBtb {
    config: LeeSmithConfig,
    table: AnyHrt<AnyAutomaton>,
}

impl LeeSmithBtb {
    /// Builds a predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration carries invalid table geometry.
    pub fn new(config: LeeSmithConfig) -> Self {
        LeeSmithBtb {
            config,
            table: AnyHrt::build(config.hrt, config.automaton.init()),
        }
    }

    /// Folds the access statistics of probing done on this predictor's
    /// behalf, by a compiled walk's slot source, into its buffer (see
    /// [`AnyHrt::adopt_probe_stats`](crate::AnyHrt::adopt_probe_stats)).
    pub fn adopt_probe_stats(&mut self, stats: HrtStats) {
        self.table.adopt_probe_stats(stats);
    }

    /// This predictor's configuration.
    pub fn config(&self) -> &LeeSmithConfig {
        &self.config
    }

    /// Buffer access statistics.
    pub fn table_stats(&self) -> HrtStats {
        self.table.stats()
    }

    /// This fresh predictor's [`Walk`] over a buffer of `slots` slots,
    /// a group of one, each slot pre-warmed as the predictor's own
    /// buffer is: the automaton's initial state.
    pub fn walker(&self, slots: usize) -> Walk<LeeSmithMember, [LeeSmithMember; 1]> {
        let kind = self.config.automaton;
        let member = LeeSmithMember {
            codes: CodeTables::derive(kind),
            init: kind.init().state_bits(),
        };
        Walk::fresh([member], slots)
    }
}

impl Predictor for LeeSmithBtb {
    fn name(&self) -> String {
        self.config.label()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        let kind = self.config.automaton;
        let (entry, _) = self.table.get_or_allocate(branch.pc, || kind.init());
        entry.predict()
    }

    fn update(&mut self, branch: &BranchRecord) {
        let kind = self.config.automaton;
        let entry = match self.table.peek(branch.pc) {
            Some(entry) => entry,
            None => self.table.get_or_allocate(branch.pc, || kind.init()).0,
        };
        *entry = entry.update(branch.taken);
    }
}

/// A [`LeeSmithBtb`] predictor's automaton, as a [`Walk`] member: its
/// state word is the automaton's state code in the slot. A Lee & Smith
/// buffer keeps no history register, so its members share only the
/// slot, and its run bound is [`CodeTables::CONVERGENCE`] alone.
#[derive(Debug, Clone)]
pub struct LeeSmithMember {
    /// Its λ and δ.
    codes: CodeTables,
    /// Its initial state code.
    init: u8,
}

impl Member for LeeSmithMember {
    const REGISTER: bool = false;
    const STATE: bool = true;

    fn mask(&self) -> u16 {
        0
    }

    fn state(&self, _register: u16) -> u16 {
        u16::from(self.init)
    }

    /// [`LeeSmithBtb`]'s predict-then-update cycle in one step, on the
    /// member's automaton in the slot.
    #[inline(always)]
    fn cycle(&mut self, _: SiteId, _: u16, _: u16, taken: bool, code: &mut u16) -> bool {
        let guess = self.codes.predict(*code as u8);
        *code = u16::from(self.codes.next(*code as u8, taken));
        guess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u32, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, 0x800, taken)
    }

    fn accuracy(config: LeeSmithConfig, stream: &[(u32, bool)]) -> f64 {
        let mut p = LeeSmithBtb::new(config);
        let mut correct = 0u64;
        for &(pc, taken) in stream {
            let b = cond(pc, taken);
            correct += (p.predict(&b) == taken) as u64;
            p.update(&b);
        }
        correct as f64 / stream.len() as f64
    }

    #[test]
    fn counter_misses_once_per_loop_exit() {
        // 9 taken + 1 not-taken, repeated: A2 mispredicts only the exit
        // (and the first iteration after it stays taken).
        let mut stream = Vec::new();
        for _ in 0..100 {
            for i in 0..10 {
                stream.push((0x1000, i != 9));
            }
        }
        let acc = accuracy(LeeSmithConfig::paper_default(), &stream);
        assert!((acc - 0.9).abs() < 0.02, "accuracy {acc}");
    }

    #[test]
    fn last_time_misses_twice_per_loop_exit() {
        let mut stream = Vec::new();
        for _ in 0..100 {
            for i in 0..10 {
                stream.push((0x1000, i != 9));
            }
        }
        let lt = accuracy(
            LeeSmithConfig {
                automaton: AutomatonKind::LastTime,
                ..LeeSmithConfig::paper_default()
            },
            &stream,
        );
        let a2 = accuracy(LeeSmithConfig::paper_default(), &stream);
        // LT pays two misses per iteration boundary, A2 pays one.
        assert!((lt - 0.8).abs() < 0.02, "LT accuracy {lt}");
        assert!(a2 > lt);
    }

    #[test]
    fn alternating_branch_defeats_the_btb() {
        // The motivating weakness: pattern TNTNTN is opaque to a
        // per-branch counter, but trivial for the two-level scheme.
        let stream: Vec<(u32, bool)> = (0..1000).map(|i| (0x1000, i % 2 == 0)).collect();
        let acc = accuracy(LeeSmithConfig::paper_default(), &stream);
        assert!(acc < 0.6, "accuracy {acc}");
    }

    #[test]
    fn cold_prediction_is_taken() {
        let mut p = LeeSmithBtb::new(LeeSmithConfig::paper_default());
        assert!(p.predict(&cond(0x9999_0000 & !3, false)));
    }

    #[test]
    fn label_matches_paper_convention() {
        assert_eq!(
            LeeSmithConfig::paper_default().label(),
            "LS(AHRT(512,A2),,)"
        );
        assert_eq!(
            LeeSmithConfig {
                automaton: AutomatonKind::LastTime,
                hrt: HrtConfig::Ideal,
            }
            .label(),
            "LS(IHRT(,LT),,)"
        );
        assert_eq!(
            LeeSmithConfig {
                automaton: AutomatonKind::A2,
                hrt: HrtConfig::hhrt(512),
            }
            .label(),
            "LS(HHRT(512,A2),,)"
        );
    }

    #[test]
    fn update_without_predict_is_safe() {
        let mut p = LeeSmithBtb::new(LeeSmithConfig::paper_default());
        p.update(&cond(0x1000, false));
        p.update(&cond(0x1000, false));
        p.update(&cond(0x1000, false));
        assert!(!p.predict(&cond(0x1000, false)));
    }
}
