//! Successor designs: gshare and the tournament predictor
//! (extensions beyond the paper).
//!
//! Two ideas that grew directly out of the two-level scheme:
//!
//! * **gshare** (McFarling, 1993): index the pattern table with the
//!   *XOR* of the global history and the branch address, spreading
//!   branches across the table instead of letting same-history branches
//!   collide — the fix for GAg's aliasing.
//! * **Tournament** (McFarling, 1993; later the Alpha 21264): run two
//!   predictors side by side and let a per-branch chooser — itself a
//!   table of 2-bit counters — learn which one to trust for each
//!   branch. Combines per-address periodicity (the paper's scheme) with
//!   global correlation (GAg/gshare).

use crate::automaton::{Automaton, AutomatonKind, A2};
use crate::history::HistoryRegister;
use crate::hrt::{HrtStats, SiteResolver};
use crate::pattern::PatternTable;
use crate::predictor::Predictor;
use crate::two_level::TwoLevelAdaptive;
use crate::variants::PatternMember;
use crate::walk::Walk;
use tlat_trace::{BranchRecord, SiteId};

/// Configuration of a [`Gshare`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GshareConfig {
    /// Global history length (table has 2^bits entries).
    pub history_bits: u8,
    /// Pattern-history automaton.
    pub automaton: AutomatonKind,
}

impl GshareConfig {
    /// A common configuration matched to the paper's 12-bit history.
    pub fn default_12bit() -> Self {
        GshareConfig {
            history_bits: 12,
            automaton: AutomatonKind::A2,
        }
    }
}

/// The gshare predictor: global history XOR branch address indexes one
/// automaton table.
///
/// # Examples
///
/// ```
/// use tlat_core::{Gshare, GshareConfig, Predictor};
/// use tlat_trace::BranchRecord;
///
/// let mut g = Gshare::new(GshareConfig::default_12bit());
/// let b = BranchRecord::conditional(0x1000, 0x800, true);
/// g.predict(&b);
/// g.update(&b);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    config: GshareConfig,
    history: HistoryRegister,
    table: PatternTable,
}

impl Gshare {
    /// Builds a predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics when `history_bits` is out of range.
    pub fn new(config: GshareConfig) -> Self {
        Gshare {
            config,
            history: HistoryRegister::new(config.history_bits),
            table: PatternTable::new(config.history_bits, config.automaton),
        }
    }

    /// This predictor's configuration.
    pub fn config(&self) -> &GshareConfig {
        &self.config
    }

    /// This fresh predictor's [`Walk`] over `resolver`'s sites, a group
    /// of one: its global register, a table of one slot, indexes its
    /// one table XOR the site's address term, resolved up front.
    pub fn walker(&self, resolver: &SiteResolver) -> Walk<PatternMember, [PatternMember; 1]> {
        let member = PatternMember {
            tables: vec![self.table.clone()],
            sets: resolver.word_slots(0),
            terms: resolver.word_slots(self.table.len() - 1),
            mask: HistoryRegister::new(self.config.history_bits).pattern() as u16,
        };
        Walk::fresh([member], 1)
    }

    fn index(&self, pc: u32) -> usize {
        let mask = self.table.len() - 1;
        (self.history.pattern() ^ ((pc >> 2) as usize)) & mask
    }
}

impl Predictor for Gshare {
    fn name(&self) -> String {
        format!(
            "gshare({},{})",
            self.config.history_bits,
            self.config.automaton.name()
        )
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        self.table.predict(self.index(branch.pc))
    }

    fn update(&mut self, branch: &BranchRecord) {
        let index = self.index(branch.pc);
        self.table.update(index, branch.taken);
        self.history.shift(branch.taken);
    }
}

/// A tournament predictor: two component predictors plus a per-branch
/// chooser of 2-bit counters.
///
/// The chooser state moves toward the component that was right when
/// they disagree; state ≥ 2 selects the second component. Components
/// are any [`Predictor`]s (boxed trait objects included); the paper's
/// scheme against gshare, `Tournament<TwoLevelAdaptive, Gshare>`, also
/// runs on a compiled event stream, where its components' guesses are
/// walked apart and its chooser steps alone
/// ([`replay_chooser`](Tournament::replay_chooser)).
pub struct Tournament<A, B> {
    first: A,
    second: B,
    chooser: Vec<A2>,
    chooser_mask: usize,
}

impl<A: Predictor, B: Predictor> std::fmt::Debug for Tournament<A, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tournament")
            .field("first", &self.first.name())
            .field("second", &self.second.name())
            .field("chooser_entries", &self.chooser.len())
            .finish()
    }
}

impl<A: Predictor, B: Predictor> Tournament<A, B> {
    /// Combines two predictors with a `chooser_entries`-entry chooser
    /// (indexed by branch address).
    ///
    /// # Panics
    ///
    /// Panics unless `chooser_entries` is a power of two.
    pub fn new(first: A, second: B, chooser_entries: usize) -> Self {
        assert!(
            chooser_entries.is_power_of_two(),
            "chooser size must be a power of two (got {chooser_entries})"
        );
        Tournament {
            first,
            second,
            // Neutral-ish start: state 1 predicts not-taken, so every
            // entry weakly prefers the first component, and one
            // disagreement the second component wins flips it.
            chooser: vec![A2::init_not_taken().update(true); chooser_entries],
            chooser_mask: chooser_entries - 1,
        }
    }

    fn chooser_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & self.chooser_mask
    }

    /// Picks between the components' guesses `a` and `b` with chooser
    /// entry `index`, then trains the entry toward the component that
    /// was right when they disagree.
    #[inline]
    fn choose(&mut self, index: usize, a: bool, b: bool, taken: bool) -> bool {
        let entry = &mut self.chooser[index];
        let guess = if entry.predict() { b } else { a };
        if a != b {
            *entry = entry.update(b == taken);
        }
        guess
    }
}

impl Tournament<TwoLevelAdaptive, Gshare> {
    /// Steps the chooser alone over a walk in which separate walks of
    /// both components (fresh twins, or the components themselves),
    /// trained on every event, made the component guesses.
    /// `disagreements` yields, in event order, every event where the two
    /// guesses differed, as `(site, second component's guess, outcome)`;
    /// it returns how many of them the tournament guessed right. Where
    /// the guesses agree the chooser does not move and the tournament's
    /// guess is the common one, so the caller credits those events from
    /// the twins' counts. The components themselves are not stepped.
    pub fn replay_chooser(
        &mut self,
        resolver: &SiteResolver,
        disagreements: impl IntoIterator<Item = (SiteId, bool, bool)>,
    ) -> u64 {
        let entries = resolver.word_slots(self.chooser_mask);
        let mut correct = 0;
        for (site, second, taken) in disagreements {
            let index = entries[site as usize] as usize;
            correct += u64::from(self.choose(index, !second, second, taken) == taken);
        }
        correct
    }

    /// The first (Two-Level) component, whose history table a slot
    /// walk probes.
    pub fn first(&self) -> &TwoLevelAdaptive {
        &self.first
    }

    /// The second (gshare) component.
    pub fn second(&self) -> &Gshare {
        &self.second
    }

    /// Folds the access statistics of probing done on the first
    /// component's behalf into its history table (see
    /// [`TwoLevelAdaptive::adopt_probe_stats`]).
    pub fn adopt_probe_stats(&mut self, stats: HrtStats) {
        self.first.adopt_probe_stats(stats);
    }
}

impl<A: Predictor, B: Predictor> Predictor for Tournament<A, B> {
    fn name(&self) -> String {
        format!("tournament({} | {})", self.first.name(), self.second.name())
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        let a = self.first.predict(branch);
        let b = self.second.predict(branch);
        if self.chooser[self.chooser_index(branch.pc)].predict() {
            b
        } else {
            a
        }
    }

    fn update(&mut self, branch: &BranchRecord) {
        // Re-ask the components before updating them so the chooser is
        // trained on the same answers the prediction used.
        let a = self.first.predict(branch);
        let b = self.second.predict(branch);
        self.choose(self.chooser_index(branch.pc), a, b, branch.taken);
        self.first.update(branch);
        self.second.update(branch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hrt::HrtConfig;
    use crate::two_level::{TwoLevelAdaptive, TwoLevelConfig};
    use crate::variants::{TwoLevelVariant, VariantConfig};

    fn cond(pc: u32, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, 0x800, taken)
    }

    fn accuracy(p: &mut dyn Predictor, stream: &[(u32, bool)]) -> f64 {
        let mut correct = 0u64;
        for &(pc, taken) in stream {
            let b = cond(pc, taken);
            correct += (p.predict(&b) == taken) as u64;
            p.update(&b);
        }
        correct as f64 / stream.len() as f64
    }

    /// The canonical GAg aliasing failure: when almost every branch is
    /// taken, the global history is almost always all-ones, so every
    /// branch fights over the same hot pattern-table entry. A minority
    /// not-taken branch is steamrolled in GAg; gshare's address XOR
    /// gives it its own entry.
    #[test]
    fn gshare_reduces_gag_aliasing() {
        let victim_pc = 0x1000;
        let mut stream = Vec::new();
        let mut x = 0xfeed_f00du64;
        for _ in 0..60_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let site = ((x >> 33) % 64) as u32;
            // Site 0 is never taken; all others always are.
            stream.push((0x1000 + site * 4, site != 0));
        }
        let victim_accuracy = |p: &mut dyn Predictor| {
            let mut correct = 0u64;
            let mut total = 0u64;
            for &(pc, taken) in &stream {
                let b = cond(pc, taken);
                let guess = p.predict(&b);
                if pc == victim_pc {
                    total += 1;
                    correct += (guess == taken) as u64;
                }
                p.update(&b);
            }
            correct as f64 / total as f64
        };
        let mut gag = TwoLevelVariant::new(VariantConfig::gag(12, AutomatonKind::A2));
        let mut gsh = Gshare::new(GshareConfig::default_12bit());
        let gag_victim = victim_accuracy(&mut gag);
        let gsh_victim = victim_accuracy(&mut gsh);
        // gshare cannot isolate perfectly (a few XOR collisions with
        // power-of-two-offset sites remain) but keeps the victim mostly
        // right; GAg gives it essentially no entry of its own.
        assert!(
            gsh_victim > 0.8,
            "gshare should mostly isolate the victim: {gsh_victim}"
        );
        assert!(
            gag_victim < gsh_victim - 0.25,
            "GAg should alias the victim badly: GAg {gag_victim} vs gshare {gsh_victim}"
        );
    }

    #[test]
    fn tournament_tracks_the_better_component_per_branch() {
        // Branch A: per-address periodic (PAg territory). Branch B:
        // mirrors A's last outcome (global-history territory). The
        // tournament should approach the better component on each.
        let mk_tournament = || {
            Tournament::new(
                Box::new(TwoLevelAdaptive::new(TwoLevelConfig {
                    hrt: HrtConfig::Ideal,
                    ..TwoLevelConfig::paper_default()
                })),
                Box::new(Gshare::new(GshareConfig::default_12bit())),
                1024,
            )
        };
        let mut x = 99u64;
        let mut stream = Vec::new();
        for i in 0..30_000usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A: period-5 pattern.
            let a_taken = i % 5 != 4;
            let a_last = a_taken;
            stream.push((0x1000, a_taken));
            // Noise branch to scramble global history a little.
            stream.push((0x3000, (x >> 20) & 1 == 0));
            // B: copies A.
            stream.push((0x2000, a_last));
        }
        let mut t = mk_tournament();
        let acc = accuracy(&mut t, &stream);
        // Perfect on A (periodic), perfect-ish on B via gshare, ~50 %
        // on the noise branch: above 80 % overall only if the chooser
        // routes correctly.
        assert!(acc > 0.8, "tournament accuracy {acc}");
    }

    #[test]
    fn tournament_is_at_least_as_good_as_its_worse_component() {
        let mut stream = Vec::new();
        let mut x = 5u64;
        for i in 0..20_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let site = (x >> 40) % 16;
            stream.push((0x1000 + site as u32 * 4, (i / 3) % (site as u32 + 2) != 0));
        }
        let acc_at = {
            let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
            accuracy(&mut p, &stream)
        };
        let acc_gsh = {
            let mut p = Gshare::new(GshareConfig::default_12bit());
            accuracy(&mut p, &stream)
        };
        let acc_t = {
            let mut t = Tournament::new(
                Box::new(TwoLevelAdaptive::new(TwoLevelConfig::paper_default())),
                Box::new(Gshare::new(GshareConfig::default_12bit())),
                1024,
            );
            accuracy(&mut t, &stream)
        };
        let floor = acc_at.min(acc_gsh) - 0.02;
        assert!(
            acc_t >= floor,
            "tournament {acc_t} below component floor {floor}"
        );
    }

    #[test]
    fn a_fresh_tournament_follows_its_first_component() {
        // Chooser entries start in A2 state 1, which predicts
        // not-taken: the first disagreement goes to the first
        // component, and one disagreement the second wins flips it.
        let mut t = Tournament::new(
            crate::simple::AlwaysTaken,
            crate::simple::AlwaysNotTaken,
            64,
        );
        let b = cond(0x1000, false);
        assert!(
            t.predict(&b),
            "a fresh tournament follows its first component"
        );
        t.update(&b);
        assert!(
            !t.predict(&b),
            "one win for the second component flips the entry"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_chooser_size_panics() {
        let _ = Tournament::new(
            Box::new(crate::simple::AlwaysTaken),
            Box::new(crate::simple::AlwaysNotTaken),
            1000,
        );
    }

    #[test]
    fn names_describe_the_composition() {
        let t = Tournament::new(
            Box::new(crate::simple::AlwaysTaken),
            Box::new(Gshare::new(GshareConfig::default_12bit())),
            64,
        );
        let mut t = t;
        assert!(t.name().contains("tournament"));
        assert!(t.name().contains("gshare(12,A2)"));
        let _ = t.predict(&cond(0x1000, true));
    }
}
