//! The two-level predictor taxonomy (extension beyond the paper).
//!
//! The MICRO-24 paper fixes one design point: per-address history
//! registers indexing a single global pattern table. The follow-on work
//! it seeded (Yeh & Patt, ISCA 1992) names the whole family by history
//! scope × pattern-table scope:
//!
//! | name | level 1 (history) | level 2 (pattern tables) |
//! |---|---|---|
//! | **GAg** | one global register | one global table |
//! | **GAs** | one global register | per-set tables (pc-selected) |
//! | **PAg** | per-address registers | one global table — *the paper's scheme* |
//! | **PAs** | per-address registers | per-set tables |
//!
//! `PAp` (a pattern table per branch) is the `PAs` limit with as many
//! sets as branches; use a large `pattern_sets` to approximate it.
//!
//! Global history (GAg/GAs) captures *correlation between different
//! branches* — an `if (x)` followed by an `if (!x)` — which per-address
//! history cannot see; per-address history isolates each branch's own
//! periodicity. The [`variants`](self) module exists to measure that
//! trade-off on the paper's workloads (bench `ext_taxonomy`).

use crate::automaton::AutomatonKind;
use crate::history::HistoryRegister;
use crate::hrt::{AnyHrt, HistoryTable, HrtConfig, HrtStats, Probe, SiteResolver};
use crate::pattern::PatternTable;
use crate::predictor::{group_slots, run_bound, Predictor, Walker};
use tlat_trace::{BranchRecord, SiteId};

/// First-level (history) organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryScope {
    /// One global history register shared by all branches (`G..`).
    Global,
    /// Per-address history registers in the given table (`P..`).
    PerAddress(HrtConfig),
}

/// Second-level (pattern-table) organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternScope {
    /// One global pattern table (`..g`).
    Global,
    /// `sets` pattern tables selected by low branch-address bits
    /// (`..s`). Must be a power of two.
    PerSet {
        /// Number of pattern tables.
        sets: usize,
    },
}

/// Configuration of a [`TwoLevelVariant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantConfig {
    /// History register length k.
    pub history_bits: u8,
    /// Pattern-history automaton.
    pub automaton: AutomatonKind,
    /// Level-1 organization.
    pub history: HistoryScope,
    /// Level-2 organization.
    pub pattern: PatternScope,
}

impl VariantConfig {
    /// GAg: global history register, global pattern table.
    pub fn gag(history_bits: u8, automaton: AutomatonKind) -> Self {
        VariantConfig {
            history_bits,
            automaton,
            history: HistoryScope::Global,
            pattern: PatternScope::Global,
        }
    }

    /// GAs: global history register, `sets` pattern tables.
    pub fn gas(history_bits: u8, automaton: AutomatonKind, sets: usize) -> Self {
        VariantConfig {
            history_bits,
            automaton,
            history: HistoryScope::Global,
            pattern: PatternScope::PerSet { sets },
        }
    }

    /// PAg: per-address history, global pattern table — the paper's
    /// Two-Level Adaptive Training scheme.
    pub fn pag(history_bits: u8, automaton: AutomatonKind, hrt: HrtConfig) -> Self {
        VariantConfig {
            history_bits,
            automaton,
            history: HistoryScope::PerAddress(hrt),
            pattern: PatternScope::Global,
        }
    }

    /// PAs: per-address history, `sets` pattern tables.
    pub fn pas(history_bits: u8, automaton: AutomatonKind, hrt: HrtConfig, sets: usize) -> Self {
        VariantConfig {
            history_bits,
            automaton,
            history: HistoryScope::PerAddress(hrt),
            pattern: PatternScope::PerSet { sets },
        }
    }

    /// Taxonomy name, e.g. `GAg(12,A2)` or
    /// `PAs(AHRT(512),12,A2,16sets)`.
    pub fn label(&self) -> String {
        match (self.history, self.pattern) {
            (HistoryScope::Global, PatternScope::Global) => {
                format!("GAg({},{})", self.history_bits, self.automaton.name())
            }
            (HistoryScope::Global, PatternScope::PerSet { sets }) => format!(
                "GAs({},{},{sets}sets)",
                self.history_bits,
                self.automaton.name()
            ),
            (HistoryScope::PerAddress(hrt), PatternScope::Global) => format!(
                "PAg({},{},{})",
                hrt.label(),
                self.history_bits,
                self.automaton.name()
            ),
            (HistoryScope::PerAddress(hrt), PatternScope::PerSet { sets }) => format!(
                "PAs({},{},{},{sets}sets)",
                hrt.label(),
                self.history_bits,
                self.automaton.name()
            ),
        }
    }
}

enum Level1 {
    Global(HistoryRegister),
    PerAddress(AnyHrt<HistoryRegister>),
}

impl std::fmt::Debug for Level1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level1::Global(hr) => f.debug_tuple("Global").field(hr).finish(),
            Level1::PerAddress(_) => f.debug_tuple("PerAddress").finish(),
        }
    }
}

/// A predictor from the two-level taxonomy.
///
/// # Examples
///
/// A GAg predictor learning cross-branch correlation that per-address
/// history cannot express:
///
/// ```
/// use tlat_core::{AutomatonKind, Predictor, TwoLevelVariant, VariantConfig};
/// use tlat_trace::BranchRecord;
///
/// let mut gag = TwoLevelVariant::new(VariantConfig::gag(8, AutomatonKind::A2));
/// // Branch B's outcome always equals branch A's most recent outcome.
/// let mut correct = 0;
/// let mut a_last = true;
/// for i in 0..2000u32 {
///     let a = BranchRecord::conditional(0x1000, 0x800, i % 3 == 0);
///     gag.predict(&a);
///     gag.update(&a);
///     a_last = a.taken;
///     let b = BranchRecord::conditional(0x2000, 0x800, a_last);
///     correct += (gag.predict(&b) == b.taken) as u32;
///     gag.update(&b);
/// }
/// assert!(correct > 1800, "GAg should learn the correlation");
/// ```
#[derive(Debug)]
pub struct TwoLevelVariant {
    config: VariantConfig,
    level1: Level1,
    tables: Vec<PatternTable>,
    set_mask: usize,
}

impl TwoLevelVariant {
    /// Builds a predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics when `pattern` is `PerSet` with a set count that is not a
    /// power of two, or on invalid history/table geometry.
    pub fn new(config: VariantConfig) -> Self {
        let sets = match config.pattern {
            PatternScope::Global => 1,
            PatternScope::PerSet { sets } => {
                assert!(
                    sets.is_power_of_two(),
                    "pattern set count must be a power of two (got {sets})"
                );
                sets
            }
        };
        let tables = (0..sets)
            .map(|_| PatternTable::new(config.history_bits, config.automaton))
            .collect();
        let level1 = match config.history {
            HistoryScope::Global => Level1::Global(HistoryRegister::new(config.history_bits)),
            HistoryScope::PerAddress(hrt) => Level1::PerAddress(AnyHrt::build(
                hrt,
                HistoryRegister::new(config.history_bits),
            )),
        };
        TwoLevelVariant {
            config,
            level1,
            tables,
            set_mask: sets - 1,
        }
    }

    /// This predictor's configuration.
    pub fn config(&self) -> &VariantConfig {
        &self.config
    }

    /// History-table statistics (zero for global-history variants).
    pub fn hrt_stats(&self) -> HrtStats {
        match &self.level1 {
            Level1::Global(_) => HrtStats::default(),
            Level1::PerAddress(t) => t.stats(),
        }
    }

    /// The per-address history table's organization, or `None` for
    /// the global-history variants (GAg/GAs).
    pub fn hrt_config(&self) -> Option<HrtConfig> {
        match self.config.history {
            HistoryScope::Global => None,
            HistoryScope::PerAddress(hrt) => Some(hrt),
        }
    }

    /// Folds the access statistics of probing done on a per-address
    /// variant's behalf, by a compiled walk's slot source, into its
    /// history table (see [`AnyHrt::adopt_probe_stats`]); a no-op for
    /// global history.
    pub fn adopt_probe_stats(&mut self, stats: HrtStats) {
        if let Level1::PerAddress(t) = &mut self.level1 {
            t.adopt_probe_stats(stats);
        }
    }

    /// This fresh predictor's [`Walker`] over `resolver`'s sites, a
    /// group of one: one history register per slot of a `slots`-slot
    /// table for PAg and PAs, one global register for GAg and GAs. Each
    /// site's pattern set is resolved up front.
    pub fn walker(&self, slots: usize, resolver: &SiteResolver) -> VariantWalk {
        let history = HistoryRegister::new(self.config.history_bits);
        let sets = resolver.word_slots(self.set_mask);
        let tables = self.tables.clone();
        match self.level1 {
            Level1::PerAddress(_) => {
                let mask = history.pattern() as u16;
                let member = PerAddressMember { tables, sets, mask };
                VariantWalk::PerAddress(PerAddressWalk::fresh([member], slots))
            }
            Level1::Global(_) => {
                let terms = resolver.word_slots(0);
                VariantWalk::Global(GlobalWalk::new(tables, sets, terms, history))
            }
        }
    }

    fn table_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & self.set_mask
    }

    fn current_pattern(&mut self, pc: u32) -> usize {
        let bits = self.config.history_bits;
        match &mut self.level1 {
            Level1::Global(hr) => hr.pattern(),
            Level1::PerAddress(t) => t
                .get_or_allocate(pc, || HistoryRegister::new(bits))
                .0
                .pattern(),
        }
    }
}

impl Predictor for TwoLevelVariant {
    fn name(&self) -> String {
        self.config.label()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        let pattern = self.current_pattern(branch.pc);
        let table = self.table_index(branch.pc);
        self.tables[table].predict(pattern)
    }

    fn update(&mut self, branch: &BranchRecord) {
        let taken = branch.taken;
        let bits = self.config.history_bits;
        let old_pattern = match &mut self.level1 {
            Level1::Global(hr) => {
                let old = hr.pattern();
                hr.shift(taken);
                old
            }
            Level1::PerAddress(t) => {
                let history = match t.peek(branch.pc) {
                    Some(history) => history,
                    None => {
                        t.get_or_allocate(branch.pc, || HistoryRegister::new(bits))
                            .0
                    }
                };
                let old = history.pattern();
                history.shift(taken);
                old
            }
        };
        let table = self.table_index(branch.pc);
        self.tables[table].update(old_pattern, taken);
    }
}

/// A [`TwoLevelVariant`]'s own [`Walker`], per history scope: a group
/// of one.
#[derive(Debug, Clone)]
pub enum VariantWalk {
    /// PAg or PAs: per-address registers, walked over a table's slots.
    PerAddress(PerAddressWalk<[PerAddressMember; 1]>),
    /// GAg or GAs: one global register, with no table to walk.
    Global(GlobalWalk<[GlobalMember; 1]>),
}

/// A group of PAg and PAs predictors' [`Walker`]: one history register
/// per slot, as wide as the widest member's, each member's low bits
/// indexing its site's pattern set. `M` holds the members: an inline
/// array of one for a predictor's own walker, a vector for a group
/// ([`PerAddressWalk::group`]).
#[derive(Debug, Clone)]
pub struct PerAddressWalk<M = Vec<PerAddressMember>> {
    members: M,
    histories: Vec<u16>,
    mask: u16,
}

/// One member of a [`PerAddressWalk`]: a predictor's pattern tables and
/// each site's set.
#[derive(Debug, Clone)]
pub struct PerAddressMember {
    tables: Vec<PatternTable>,
    sets: Vec<u32>,
    /// Its own history bits, the low bits of the group's register.
    mask: u16,
}

impl<M: AsRef<[PerAddressMember]>> PerAddressWalk<M> {
    /// A walk of `members` over `slots` all-ones registers.
    fn fresh(members: M, slots: usize) -> Self {
        let each = members.as_ref().iter();
        let mask = each.map(|m| m.mask).max().expect("a group has members");
        PerAddressWalk {
            members,
            histories: vec![mask; slots],
            mask,
        }
    }
}

impl PerAddressWalk {
    /// Joins fresh `walkers` — as built, never yet stepped — of
    /// predictors on one table into one walker whose members are
    /// theirs, in order.
    ///
    /// # Panics
    ///
    /// Panics when `walkers` is empty or their slot counts differ.
    pub fn group<M>(walkers: impl IntoIterator<Item = PerAddressWalk<M>>) -> Self
    where
        M: IntoIterator<Item = PerAddressMember>,
    {
        let walkers: Vec<_> = walkers.into_iter().collect();
        let slots = group_slots(walkers.iter().map(|w| (w.histories.len(), 1)));
        let members = walkers.into_iter().flat_map(|w| w.members).collect();
        PerAddressWalk::fresh(members, slots)
    }
}

impl<M: AsMut<[PerAddressMember]> + AsRef<[PerAddressMember]>> Walker for PerAddressWalk<M> {
    fn members(&self) -> usize {
        self.members.as_ref().len()
    }

    #[inline(always)]
    fn step(&mut self, word: u32, site: SiteId, taken: bool, bit: u32, guesses: &mut [u64]) {
        // A taxonomy predictor's table never re-initializes a replaced
        // way.
        let history = &mut self.histories[(word & Probe::SLOT) as usize];
        if word & Probe::FILLED != 0 {
            *history = self.mask;
        }
        let old = *history;
        *history = (old << 1 | u16::from(taken)) & self.mask;
        for (member, guesses) in self.members.as_mut().iter_mut().zip(guesses) {
            let pattern = usize::from(old & member.mask);
            let table = &mut member.tables[member.sets[site as usize] as usize];
            *guesses |= u64::from(table.predict(pattern)) << bit;
            table.update(pattern, taken);
        }
    }

    /// A run uses one slot and, per member, one pattern set.
    fn run_bound(&self) -> usize {
        run_bound(self.mask)
    }
}

/// A group of global-history predictors' [`Walker`]: one register, as
/// wide as the widest member's. GAg and GAs members index the site's
/// pattern set with their low bits of it; gshare indexes its one table
/// with them XOR the site's address term (both below the table size, so
/// their XOR needs no mask). It reads no probe word: there is no
/// per-address table. `M` holds the members: an inline array of one for
/// a predictor's own walker, a vector for a group
/// ([`GlobalWalk::group`]).
#[derive(Debug, Clone)]
pub struct GlobalWalk<M = Vec<GlobalMember>> {
    members: M,
    history: u16,
    mask: u16,
}

/// One member of a [`GlobalWalk`]: a predictor's pattern tables, and
/// each site's set and address term.
#[derive(Debug, Clone)]
pub struct GlobalMember {
    tables: Vec<PatternTable>,
    sets: Vec<u32>,
    /// Each site's address term: zero for GAg and GAs.
    terms: Vec<u32>,
    /// Its own history bits, the low bits of the group's register.
    mask: u16,
}

impl GlobalWalk<[GlobalMember; 1]> {
    /// A walk of one predictor over `tables`, each site's set and
    /// address term resolved, from register `history`.
    pub(crate) fn new(
        tables: Vec<PatternTable>,
        sets: Vec<u32>,
        terms: Vec<u32>,
        history: HistoryRegister,
    ) -> Self {
        let mask = (history.pattern_count() - 1) as u16;
        let member = GlobalMember {
            tables,
            sets,
            terms,
            mask,
        };
        GlobalWalk {
            members: [member],
            history: history.pattern() as u16,
            mask,
        }
    }
}

impl GlobalWalk {
    /// Joins fresh `walkers` — as built, never yet stepped, so each
    /// register reads all-ones — into one walker whose members are
    /// theirs, in order.
    ///
    /// # Panics
    ///
    /// Panics when `walkers` is empty.
    pub fn group<M>(walkers: impl IntoIterator<Item = GlobalWalk<M>>) -> Self
    where
        M: IntoIterator<Item = GlobalMember>,
    {
        let members: Vec<GlobalMember> = walkers.into_iter().flat_map(|w| w.members).collect();
        let mask = members
            .iter()
            .map(|m| m.mask)
            .max()
            .expect("a group has members");
        GlobalWalk {
            members,
            history: mask,
            mask,
        }
    }
}

impl<M: AsMut<[GlobalMember]> + AsRef<[GlobalMember]>> Walker for GlobalWalk<M> {
    fn members(&self) -> usize {
        self.members.as_ref().len()
    }

    #[inline(always)]
    fn step(&mut self, _word: u32, site: SiteId, taken: bool, bit: u32, guesses: &mut [u64]) {
        let old = self.history;
        self.history = (old << 1 | u16::from(taken)) & self.mask;
        for (member, guesses) in self.members.as_mut().iter_mut().zip(guesses) {
            let index = usize::from(old & member.mask) ^ member.terms[site as usize] as usize;
            let table = &mut member.tables[member.sets[site as usize] as usize];
            *guesses |= u64::from(table.predict(index)) << bit;
            table.update(index, taken);
        }
    }

    /// A run shifts only its own site's outcomes into the register, and
    /// uses, per member, one pattern set and one address term.
    fn run_bound(&self) -> usize {
        run_bound(self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_level::{TwoLevelAdaptive, TwoLevelConfig};

    fn cond(pc: u32, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, 0x800, taken)
    }

    /// Drives both predictors over the same stream and compares every
    /// prediction.
    fn assert_prediction_identical(
        a: &mut dyn Predictor,
        b: &mut dyn Predictor,
        stream: impl Iterator<Item = BranchRecord>,
    ) {
        for (i, branch) in stream.enumerate() {
            assert_eq!(a.predict(&branch), b.predict(&branch), "branch {i}");
            a.update(&branch);
            b.update(&branch);
        }
    }

    fn lcg_stream(n: usize, sites: u32) -> impl Iterator<Item = BranchRecord> {
        let mut x = 0x5555_1234u64;
        (0..n).map(move |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + ((x >> 33) as u32 % sites) * 4;
            cond(pc, (x >> 13) & 3 != 0)
        })
    }

    #[test]
    fn pag_matches_the_papers_scheme_exactly() {
        // The taxonomy's PAg with the same HRT and automaton must be
        // prediction-identical to the paper's TwoLevelAdaptive in pure
        // two-lookup mode (no cached-bit staleness).
        let mut variant = TwoLevelVariant::new(VariantConfig::pag(
            12,
            AutomatonKind::A2,
            HrtConfig::ahrt(512),
        ));
        let mut paper = TwoLevelAdaptive::new(TwoLevelConfig {
            cached_prediction: false,
            ..TwoLevelConfig::paper_default()
        });
        assert_prediction_identical(&mut variant, &mut paper, lcg_stream(20_000, 600));
    }

    #[test]
    fn gag_learns_cross_branch_correlation_pag_cannot() {
        // Branch B repeats branch A's last outcome; A itself is
        // noise-driven. Global history sees A's outcome in B's pattern;
        // per-address history cannot.
        let mut gag = TwoLevelVariant::new(VariantConfig::gag(8, AutomatonKind::A2));
        let mut pag =
            TwoLevelVariant::new(VariantConfig::pag(8, AutomatonKind::A2, HrtConfig::Ideal));
        let mut x = 42u64;
        let mut gag_correct = 0u32;
        let mut pag_correct = 0u32;
        let rounds = 4000;
        for _ in 0..rounds {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = cond(0x1000, (x >> 17) & 1 == 0);
            gag.predict(&a);
            gag.update(&a);
            pag.predict(&a);
            pag.update(&a);
            let b = cond(0x2000, a.taken);
            gag_correct += (gag.predict(&b) == b.taken) as u32;
            gag.update(&b);
            pag_correct += (pag.predict(&b) == b.taken) as u32;
            pag.update(&b);
        }
        let gag_acc = gag_correct as f64 / rounds as f64;
        let pag_acc = pag_correct as f64 / rounds as f64;
        assert!(gag_acc > 0.95, "GAg accuracy {gag_acc}");
        assert!(pag_acc < 0.7, "PAg accuracy {pag_acc} (random source)");
    }

    #[test]
    fn pag_isolates_per_branch_periodicity_gag_cannot() {
        // Two branches with different periodic patterns, interleaved in
        // pseudo-random order: per-address history keeps each branch's
        // pattern clean; one global register mixes them into noise.
        let mut gag = TwoLevelVariant::new(VariantConfig::gag(8, AutomatonKind::A2));
        let mut pag =
            TwoLevelVariant::new(VariantConfig::pag(8, AutomatonKind::A2, HrtConfig::Ideal));
        let mut x = 7u64;
        let mut phases = [0usize; 8];
        let patterns: [&[bool]; 8] = [
            &[true, true, false],
            &[true, false],
            &[true, true, true, false],
            &[false, false, true],
            &[true, false, false],
            &[true, true, false, false],
            &[false, true],
            &[true, true, true, true, false],
        ];
        let mut gag_correct = 0u32;
        let mut pag_correct = 0u32;
        let total = 40_000;
        for _ in 0..total {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let site = ((x >> 33) % 8) as usize;
            let pattern = patterns[site];
            let taken = pattern[phases[site] % pattern.len()];
            phases[site] += 1;
            let b = cond(0x1000 + site as u32 * 4, taken);
            gag_correct += (gag.predict(&b) == b.taken) as u32;
            gag.update(&b);
            pag_correct += (pag.predict(&b) == b.taken) as u32;
            pag.update(&b);
        }
        let gag_acc = gag_correct as f64 / total as f64;
        let pag_acc = pag_correct as f64 / total as f64;
        assert!(pag_acc > 0.95, "PAg accuracy {pag_acc}");
        assert!(
            pag_acc > gag_acc + 0.05,
            "PAg {pag_acc} should clearly beat GAg {gag_acc} here"
        );
    }

    #[test]
    fn per_set_tables_reduce_interference() {
        // Two branches with identical history patterns but opposite
        // outcomes: a shared (GAg) table thrashes, per-set tables keep
        // them apart.
        let mut gag = TwoLevelVariant::new(VariantConfig::gag(4, AutomatonKind::A2));
        let mut gas = TwoLevelVariant::new(VariantConfig::gas(4, AutomatonKind::A2, 16));
        let mut gag_correct = 0u32;
        let mut gas_correct = 0u32;
        let total = 4000;
        for i in 0..total {
            // Alternate strictly: A then B, A always taken, B never.
            let (pc, taken) = if i % 2 == 0 {
                (0x1000, true)
            } else {
                (0x1004, false)
            };
            let b = cond(pc, taken);
            gag_correct += (gag.predict(&b) == b.taken) as u32;
            gag.update(&b);
            gas_correct += (gas.predict(&b) == b.taken) as u32;
            gas.update(&b);
        }
        // Both can learn this (the global history alternates TNTN, so
        // patterns alternate too), but per-set separation must never be
        // worse and converges faster.
        assert!(
            gas_correct >= gag_correct,
            "GAs {gas_correct} < GAg {gag_correct}"
        );
        assert!(gas_correct as f64 / total as f64 > 0.95);
    }

    #[test]
    fn labels_follow_the_taxonomy() {
        assert_eq!(
            VariantConfig::gag(12, AutomatonKind::A2).label(),
            "GAg(12,A2)"
        );
        assert_eq!(
            VariantConfig::gas(10, AutomatonKind::A3, 16).label(),
            "GAs(10,A3,16sets)"
        );
        assert_eq!(
            VariantConfig::pag(12, AutomatonKind::A2, HrtConfig::ahrt(512)).label(),
            "PAg(AHRT(512),12,A2)"
        );
        assert_eq!(
            VariantConfig::pas(12, AutomatonKind::A2, HrtConfig::Ideal, 4).label(),
            "PAs(IHRT,12,A2,4sets)"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_panics() {
        let _ = TwoLevelVariant::new(VariantConfig::gas(8, AutomatonKind::A2, 3));
    }

    #[test]
    fn hrt_stats_only_for_per_address() {
        let mut gag = TwoLevelVariant::new(VariantConfig::gag(8, AutomatonKind::A2));
        let mut pag = TwoLevelVariant::new(VariantConfig::pag(
            8,
            AutomatonKind::A2,
            HrtConfig::ahrt(512),
        ));
        let b = cond(0x1000, true);
        for p in [&mut gag, &mut pag] {
            p.predict(&b);
            p.update(&b);
        }
        assert_eq!(gag.hrt_stats().accesses, 0);
        assert!(pag.hrt_stats().accesses > 0);
    }
}
