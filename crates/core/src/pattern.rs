//! The global pattern table (the second level of the two-level scheme).
//!
//! Each entry is kept as its automaton's 2-bit state code (see
//! [`AnyAutomaton::state_bits`]), one byte per entry, and stepped
//! branchlessly: λ reads one bit of a per-table mask and δ one byte of
//! a per-table `(taken, state)` table. Both are derived once per table
//! from `automaton.rs` as [`CodeTables`], the codes the slot-major
//! replay steps too, so no transition is written here.

use crate::automaton::{AnyAutomaton, AutomatonKind, CodeTables};

/// The global pattern history table.
///
/// One entry per possible history pattern (2^k entries for k-bit history
/// registers); every history register indexes the same table. Each entry
/// is a pattern-history automaton updated by the state-transition
/// function δ and read by the prediction decision function λ.
///
/// # Examples
///
/// ```
/// use tlat_core::{AutomatonKind, PatternTable};
///
/// let mut pt = PatternTable::new(4, AutomatonKind::A2);
/// assert_eq!(pt.len(), 16);
/// assert!(pt.predict(0b1010)); // initialized biased-taken
/// pt.update(0b1010, false);
/// pt.update(0b1010, false);
/// assert!(!pt.predict(0b1010));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternTable {
    /// Each entry's state code.
    entries: Vec<u8>,
    kind: AutomatonKind,
    /// λ and δ of `kind` over the state codes (a function of `kind`, so
    /// equality still means same kind and same states).
    codes: CodeTables,
}

impl PatternTable {
    /// Creates a table for `history_bits`-bit patterns with all entries
    /// in the paper's initial (biased-taken) state.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is zero or greater than
    /// [`MAX_HISTORY_BITS`](crate::MAX_HISTORY_BITS).
    pub fn new(history_bits: u8, kind: AutomatonKind) -> Self {
        Self::with_init(history_bits, kind, kind.init())
    }

    /// Creates a table with every entry set to `init` (for
    /// initialization ablations).
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is out of range or `init` is not of
    /// kind `kind`.
    pub fn with_init(history_bits: u8, kind: AutomatonKind, init: AnyAutomaton) -> Self {
        assert!(
            history_bits > 0 && history_bits <= crate::MAX_HISTORY_BITS,
            "history length must be in 1..={}",
            crate::MAX_HISTORY_BITS
        );
        assert_eq!(init.kind(), kind, "init automaton of the wrong kind");
        PatternTable {
            entries: vec![init.state_bits(); 1usize << history_bits],
            kind,
            codes: CodeTables::derive(kind),
        }
    }

    /// Number of entries (2^k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `false`; the table always has at least two entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The automaton kind stored in the entries.
    pub fn kind(&self) -> AutomatonKind {
        self.kind
    }

    /// λ: the prediction for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[inline]
    pub fn predict(&self, pattern: usize) -> bool {
        self.codes.predict(self.entries[pattern])
    }

    /// δ: folds the resolved outcome into the entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[inline]
    pub fn update(&mut self, pattern: usize, taken: bool) {
        let entry = &mut self.entries[pattern];
        *entry = self.codes.next(*entry, taken);
    }

    /// The raw entry for `pattern` (for inspection and tests).
    pub fn entry(&self, pattern: usize) -> AnyAutomaton {
        self.kind.from_state_bits(self.entries[pattern])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_history_bits() {
        for bits in [1u8, 6, 8, 10, 12] {
            let pt = PatternTable::new(bits, AutomatonKind::A2);
            assert_eq!(pt.len(), 1usize << bits);
            assert!(!pt.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_bits_panics() {
        let _ = PatternTable::new(0, AutomatonKind::A2);
    }

    #[test]
    #[should_panic(expected = "wrong kind")]
    fn mismatched_init_kind_panics() {
        let _ = PatternTable::with_init(4, AutomatonKind::A2, AutomatonKind::A3.init());
    }

    #[test]
    fn entries_are_independent() {
        let mut pt = PatternTable::new(4, AutomatonKind::A2);
        pt.update(3, false);
        pt.update(3, false);
        assert!(!pt.predict(3));
        // Every other entry is untouched.
        for p in (0..16).filter(|&p| p != 3) {
            assert!(pt.predict(p), "pattern {p}");
        }
    }

    #[test]
    fn not_taken_init_ablation() {
        let pt = PatternTable::with_init(4, AutomatonKind::A2, AutomatonKind::A2.init_not_taken());
        for p in 0..16 {
            assert!(!pt.predict(p));
        }
    }

    #[test]
    fn kind_is_reported() {
        for kind in AutomatonKind::ALL {
            assert_eq!(PatternTable::new(2, kind).kind(), kind);
        }
    }
}
