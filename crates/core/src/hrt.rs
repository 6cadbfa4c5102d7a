//! History-register-table implementations (§3.1 of the paper).
//!
//! Real hardware cannot afford one history register per static branch,
//! so the paper proposes two practical organizations and an ideal
//! reference:
//!
//! * **IHRT** — the ideal table: one entry per static branch, unbounded.
//!   Shows the accuracy attainable with no history interference.
//! * **AHRT** — a set-associative cache with LRU replacement and tags.
//!   On a miss a new entry is allocated; per §4.2, the *contents* of a
//!   re-allocated entry are **not** re-initialized (the new branch
//!   inherits the evicted branch's history).
//! * **HHRT** — a tagless hash table. Different branches that hash to
//!   the same slot share one entry, so history interference is higher,
//!   but the tag store is saved.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tlat_trace::SiteId;

// Key derivation shared between the per-pc lookup paths and the
// per-trace [`SiteKeys`] precomputation — one definition, so the two
// can never drift apart.

/// AHRT set index: low bits of the word-aligned pc.
#[inline]
fn assoc_set(pc: u32, sets: usize) -> usize {
    ((pc >> 2) as usize) & (sets - 1)
}

/// AHRT tag: the word-aligned pc above the set bits.
#[inline]
fn assoc_tag(pc: u32, sets: usize) -> u32 {
    (pc >> 2) / sets as u32
}

/// HHRT slot: low bits of the word-aligned pc.
#[inline]
fn hash_slot(pc: u32, entries: usize) -> usize {
    ((pc >> 2) as usize) & (entries - 1)
}

/// Access statistics for a history-register table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HrtStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that did not find the branch (IHRT/AHRT only; a tagless
    /// HHRT cannot observe misses).
    pub misses: u64,
}

impl HrtStats {
    /// Hit ratio, 1.0 when no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }
}

/// How a per-address history table is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HrtConfig {
    /// Ideal: one entry per static branch (unbounded).
    Ideal,
    /// Set-associative cache with LRU replacement.
    Associative {
        /// Total entries (e.g. 512). Must be a multiple of `ways`, with
        /// the set count a power of two.
        entries: usize,
        /// Associativity (the paper uses 4).
        ways: usize,
    },
    /// Tagless hash table.
    Hashed {
        /// Total entries; must be a power of two.
        entries: usize,
    },
}

impl HrtConfig {
    /// The paper's standard AHRT: `entries`-entry, 4-way.
    pub fn ahrt(entries: usize) -> Self {
        HrtConfig::Associative { entries, ways: 4 }
    }

    /// The paper's standard HHRT.
    pub fn hhrt(entries: usize) -> Self {
        HrtConfig::Hashed { entries }
    }

    /// The paper's name fragment for this organization, e.g.
    /// `AHRT(512` / `HHRT(256` / `IHRT(`.
    pub fn label(&self) -> String {
        match self {
            HrtConfig::Ideal => "IHRT".to_owned(),
            HrtConfig::Associative { entries, .. } => format!("AHRT({entries})"),
            HrtConfig::Hashed { entries } => format!("HHRT({entries})"),
        }
    }
}

impl fmt::Display for HrtConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A per-address table mapping branch addresses to entries of type `E`.
///
/// All three organizations implement this trait; predictors are written
/// against it.
pub trait HistoryTable<E> {
    /// Looks up `pc`, allocating (or re-using a victim) on miss.
    /// Returns the entry and whether the lookup hit.
    ///
    /// `init` produces the contents for a *freshly created* entry; a
    /// victim entry's contents persist (paper §4.2) unless the table was
    /// configured otherwise.
    fn get_or_allocate(&mut self, pc: u32, init: impl FnOnce() -> E) -> (&mut E, bool);

    /// Looks up `pc` without allocating or touching statistics.
    fn peek(&mut self, pc: u32) -> Option<&mut E>;

    /// Access statistics.
    fn stats(&self) -> HrtStats;
}

/// The ideal history-register table: unbounded, one entry per branch.
///
/// Entries live in a flat `Vec`, indexed by allocation order through a
/// side `pc → slot` index. (A compiled walk keeps no `Ihrt`: the
/// interned [`SiteId`]s of a [`tlat_trace::CompiledTrace`] *are* the
/// allocation order, both being first-appearance order, so the walk
/// indexes its own per-slot state by site.)
#[derive(Debug, Clone)]
pub struct Ihrt<E> {
    /// `pc → slot`.
    index: HashMap<u32, u32>,
    /// Entries in allocation (first-appearance) order.
    slots: Vec<E>,
    stats: HrtStats,
}

impl<E> Ihrt<E> {
    /// Creates an empty ideal table.
    pub fn new() -> Self {
        Ihrt {
            index: HashMap::new(),
            slots: Vec::new(),
            stats: HrtStats::default(),
        }
    }

    /// Number of distinct branches seen.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no branches have been seen.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<E> Default for Ihrt<E> {
    fn default() -> Self {
        Ihrt::new()
    }
}

impl<E> HistoryTable<E> for Ihrt<E> {
    fn get_or_allocate(&mut self, pc: u32, init: impl FnOnce() -> E) -> (&mut E, bool) {
        self.stats.accesses += 1;
        let slot = match self.index.entry(pc) {
            std::collections::hash_map::Entry::Occupied(e) => {
                return (&mut self.slots[*e.get() as usize], true);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot = self.slots.len() as u32;
                v.insert(slot);
                slot
            }
        };
        self.stats.misses += 1;
        self.slots.push(init());
        (&mut self.slots[slot as usize], false)
    }

    fn peek(&mut self, pc: u32) -> Option<&mut E> {
        let slot = *self.index.get(&pc)?;
        Some(&mut self.slots[slot as usize])
    }

    fn stats(&self) -> HrtStats {
        self.stats
    }
}

/// What one set-associative probe decided: a tag hit, a miss filling
/// an invalid way, or a miss replacing the LRU victim. Replayed to
/// same-geometry lanes by a [`SlotProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// A way held the tag; its entry is reused.
    Hit,
    /// An invalid way was filled; the entry is initialized fresh.
    Filled,
    /// The LRU victim was evicted; the entry is inherited from it (or
    /// re-initialized, under [`Ahrt::set_reinit_on_replace`]).
    Replaced,
}

/// One replayed AHRT probe decision: which absolute way index the
/// access resolved to, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Absolute way index (`set * assoc + way`).
    pub slot: u32,
    /// How the slot was resolved.
    pub outcome: ProbeOutcome,
}

impl Probe {
    /// A probe word's fill flag. A probe word is one `u32` per event:
    /// the slot, with this bit set when the probe filled it and
    /// [`REPLACED`](Probe::REPLACED) set when it evicted the slot's LRU
    /// victim.
    pub const FILLED: u32 = 1 << 31;

    /// A probe word's replacement flag (see [`FILLED`](Probe::FILLED)).
    pub const REPLACED: u32 = 1 << 30;

    /// A probe word's slot bits.
    pub const SLOT: u32 = Probe::REPLACED - 1;

    /// This probe's word (see [`FILLED`](Probe::FILLED)).
    #[inline]
    pub fn word(self) -> u32 {
        debug_assert!(
            self.slot <= Probe::SLOT,
            "slot {} overlaps the probe flags",
            self.slot
        );
        self.slot
            | match self.outcome {
                ProbeOutcome::Hit => 0,
                ProbeOutcome::Filled => Probe::FILLED,
                ProbeOutcome::Replaced => Probe::REPLACED,
            }
    }
}

/// The tag marking a way that has never been filled. Real tags cannot
/// collide with it: a tag is `(pc >> 2) / sets <= 2^30`.
const INVALID_TAG: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Way<E> {
    tag: u32,
    stamp: u32,
    entry: E,
}

/// Set-associative history-register table with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Ahrt<E> {
    ways: Vec<Way<E>>,
    sets: usize,
    assoc: usize,
    /// LRU clock, bumped once per access. `u32` keeps the way struct
    /// small; it would take 4.29 billion accesses to one table to wrap,
    /// two orders of magnitude past the paper's 20M-branch traces.
    clock: u32,
    reinit_on_replace: bool,
    stats: HrtStats,
}

impl<E: Clone> Ahrt<E> {
    /// Creates an `entries`-entry, `ways`-way table with every entry
    /// initialized to `fill`.
    ///
    /// The table is "pre-warmed": every way starts with the impossible
    /// [`INVALID_TAG`] and pre-filled contents, so a replaced branch
    /// inherits the initial (or a victim's) history rather than
    /// garbage.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` divides `entries` and the set count is a
    /// power of two.
    pub fn new(entries: usize, ways: usize, fill: E) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "ways must divide entries"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        Ahrt {
            ways: vec![
                Way {
                    tag: INVALID_TAG,
                    stamp: 0,
                    entry: fill,
                };
                entries
            ],
            sets,
            assoc: ways,
            clock: 0,
            reinit_on_replace: false,
            stats: HrtStats::default(),
        }
    }

    /// Configures whether a re-allocated entry's contents are reset via
    /// `init` (`true`) or inherited from the victim (`false`, the
    /// paper's behaviour, the default).
    pub fn set_reinit_on_replace(&mut self, reinit: bool) {
        self.reinit_on_replace = reinit;
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.ways.len()
    }

    fn set_index(&self, pc: u32) -> usize {
        assoc_set(pc, self.sets)
    }

    fn tag(&self, pc: u32) -> u32 {
        assoc_tag(pc, self.sets)
    }

    /// One access's tag match or victim choice, with its statistics and
    /// LRU clocking, reported as a [`Probe`] instead of resolved to an
    /// entry: `base` is the set's first way index (`set * assoc`) and
    /// `tag` the pc's tag, either derived from the pc
    /// ([`HistoryTable::get_or_allocate`]) or precomputed per site
    /// ([`SiteKeys`], for a [`SlotProbe`], whose table carries no
    /// payload). Statistics, LRU clocking and victim selection are
    /// therefore identical on both paths.
    #[inline]
    fn probe_slot(&mut self, base: usize, tag: u32) -> Probe {
        self.stats.accesses += 1;
        self.clock += 1;
        let slots = &mut self.ways[base..base + self.assoc];
        if let Some(i) = slots.iter().position(|w| w.tag == tag) {
            slots[i].stamp = self.clock;
            return Probe {
                slot: (base + i) as u32,
                outcome: ProbeOutcome::Hit,
            };
        }
        self.stats.misses += 1;
        let (victim, outcome) = match slots.iter().position(|w| w.tag == INVALID_TAG) {
            Some(i) => (i, ProbeOutcome::Filled),
            None => (
                slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map(|(i, _)| i)
                    .expect("associativity is non-zero"),
                ProbeOutcome::Replaced,
            ),
        };
        let way = &mut slots[victim];
        way.tag = tag;
        way.stamp = self.clock;
        Probe {
            slot: (base + victim) as u32,
            outcome,
        }
    }

    /// Fast-forwards `n` accesses that are guaranteed tag hits on
    /// `slot` — the bookkeeping of `n` repeated probes of the same pc
    /// without the way scan. Only sound immediately after a probe of
    /// that pc: the way already holds the tag, so each access would
    /// hit the same way, bump the clock, and restamp it.
    fn rehit(&mut self, slot: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.accesses += n;
        self.clock += n as u32;
        self.ways[slot as usize].stamp = self.clock;
    }
}

impl<E: Clone> HistoryTable<E> for Ahrt<E> {
    fn get_or_allocate(&mut self, pc: u32, init: impl FnOnce() -> E) -> (&mut E, bool) {
        let probe = self.probe_slot(self.set_index(pc) * self.assoc, self.tag(pc));
        let way = &mut self.ways[probe.slot as usize];
        match probe.outcome {
            ProbeOutcome::Hit => {}
            ProbeOutcome::Filled => way.entry = init(),
            ProbeOutcome::Replaced if self.reinit_on_replace => way.entry = init(),
            ProbeOutcome::Replaced => {}
        }
        (&mut way.entry, probe.outcome == ProbeOutcome::Hit)
    }

    fn peek(&mut self, pc: u32) -> Option<&mut E> {
        let set = self.set_index(pc);
        let tag = self.tag(pc);
        let base = set * self.assoc;
        self.ways[base..base + self.assoc]
            .iter_mut()
            .find(|w| w.tag == tag)
            .map(|w| &mut w.entry)
    }

    fn stats(&self) -> HrtStats {
        self.stats
    }
}

/// Tagless hashed history-register table.
///
/// Branches whose addresses collide share an entry; the paper accepts
/// the interference to save the tag store.
#[derive(Debug, Clone)]
pub struct Hhrt<E> {
    slots: Vec<E>,
    stats: HrtStats,
}

impl<E: Clone> Hhrt<E> {
    /// Creates a table of `entries` slots, each initialized to `fill`.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize, fill: E) -> Self {
        assert!(
            entries.is_power_of_two(),
            "HHRT size must be a power of two (got {entries})"
        );
        Hhrt {
            slots: vec![fill; entries],
            stats: HrtStats::default(),
        }
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn index(&self, pc: u32) -> usize {
        hash_slot(pc, self.slots.len())
    }
}

impl<E: Clone> HistoryTable<E> for Hhrt<E> {
    fn get_or_allocate(&mut self, pc: u32, _init: impl FnOnce() -> E) -> (&mut E, bool) {
        self.stats.accesses += 1;
        let index = self.index(pc);
        (&mut self.slots[index], true)
    }

    fn peek(&mut self, pc: u32) -> Option<&mut E> {
        let index = self.index(pc);
        Some(&mut self.slots[index])
    }

    fn stats(&self) -> HrtStats {
        self.stats
    }
}

/// A runtime-configurable history table (one variant per organization).
#[derive(Debug, Clone)]
pub enum AnyHrt<E> {
    /// Ideal table.
    Ideal(Ihrt<E>),
    /// Set-associative table.
    Associative(Ahrt<E>),
    /// Tagless hashed table.
    Hashed(Hhrt<E>),
}

impl<E: Clone> AnyHrt<E> {
    /// Builds the organization described by `config`, using `fill` as
    /// the initial contents of pre-warmed entries.
    ///
    /// # Panics
    ///
    /// Panics when `config` carries invalid geometry (see [`Ahrt::new`]
    /// and [`Hhrt::new`]).
    pub fn build(config: HrtConfig, fill: E) -> Self {
        match config {
            HrtConfig::Ideal => AnyHrt::Ideal(Ihrt::new()),
            HrtConfig::Associative { entries, ways } => {
                AnyHrt::Associative(Ahrt::new(entries, ways, fill))
            }
            HrtConfig::Hashed { entries } => AnyHrt::Hashed(Hhrt::new(entries, fill)),
        }
    }

    /// See [`Ahrt::set_reinit_on_replace`]; no-op for other
    /// organizations.
    pub fn set_reinit_on_replace(&mut self, reinit: bool) {
        if let AnyHrt::Associative(a) = self {
            a.set_reinit_on_replace(reinit);
        }
    }
}

impl<E: Clone> AnyHrt<E> {
    /// Accumulates externally-counted access statistics into this
    /// table, after a compiled walk that probed on the table's behalf:
    /// through a slot source of its own, a shared engine's probe log,
    /// or the slot driver of a bitsliced pack or a slot-major replay
    /// (any organization). Either way the driver counted exactly what
    /// the table would have, so its [`stats`](HistoryTable::stats)
    /// report is unchanged by the walk.
    pub fn adopt_probe_stats(&mut self, stats: HrtStats) {
        let own = match self {
            AnyHrt::Ideal(t) => &mut t.stats,
            AnyHrt::Associative(t) => &mut t.stats,
            AnyHrt::Hashed(t) => &mut t.stats,
        };
        own.accesses += stats.accesses;
        own.misses += stats.misses;
    }
}

/// A set-associative probe engine for one gang walk.
///
/// Every lane whose HRT has the same geometry sees the same access
/// sequence during a gang walk, starts from the same pre-warmed state,
/// and therefore makes byte-identical tag/LRU decisions on every
/// event. A `SlotProbe` carries that decision state once — a payload-
/// free [`Ahrt`] — and reports each event's [`Probe`], so a lane can
/// keep its entries in its own per-slot state, and a log of the probes
/// pays the way scan and victim search once per geometry instead of
/// once per lane.
#[derive(Debug, Clone)]
pub struct SlotProbe {
    table: Ahrt<()>,
    keys: Arc<SiteKeys>,
}

impl SlotProbe {
    /// An engine for `config`'s geometry over `resolver`'s sites, or
    /// `None` for non-associative organizations (ideal and hashed
    /// tables are direct-indexed — there is no scan to share).
    pub fn build(config: HrtConfig, resolver: &mut SiteResolver) -> Option<Self> {
        let HrtConfig::Associative { entries, ways } = config else {
            return None;
        };
        Some(SlotProbe {
            table: Ahrt::new(entries, ways, ()),
            keys: resolver.keys(config),
        })
    }

    /// Probes `site`, advancing the shared tag/LRU state exactly as
    /// each lane's own table would.
    #[inline]
    pub fn step(&mut self, site: SiteId) -> Probe {
        let SiteKeys::Associative { key } = &*self.keys else {
            unreachable!("SlotProbe::build only accepts associative geometry");
        };
        let k = key[site as usize];
        self.table.probe_slot((k >> 32) as usize, k as u32)
    }

    /// Probes a run of `n` consecutive accesses to `site`: one real
    /// probe, then `n - 1` fast-forwarded accesses that are guaranteed
    /// tag hits on the probed slot (the way holds the site's tag the
    /// moment the first probe returns). Statistics, LRU clock, and the
    /// way's stamp end up exactly as `n` calls to
    /// [`step`](SlotProbe::step) would leave them. Feeds the private
    /// probe passes of the bitsliced pack walk and the slot-major
    /// replay, which consume the event stream in same-site runs.
    #[inline]
    pub fn step_run(&mut self, site: SiteId, n: u64) -> Probe {
        debug_assert!(n >= 1, "a run has at least one access");
        let probe = self.step(site);
        self.table.rehit(probe.slot, n - 1);
        probe
    }

    /// Access statistics of the replayed sequence — what every lane in
    /// the group would have counted probing on its own (see
    /// [`AnyHrt::adopt_probe_stats`]).
    pub fn stats(&self) -> HrtStats {
        self.table.stats()
    }
}

impl<E: Clone> HistoryTable<E> for AnyHrt<E> {
    fn get_or_allocate(&mut self, pc: u32, init: impl FnOnce() -> E) -> (&mut E, bool) {
        match self {
            AnyHrt::Ideal(t) => t.get_or_allocate(pc, init),
            AnyHrt::Associative(t) => t.get_or_allocate(pc, init),
            AnyHrt::Hashed(t) => t.get_or_allocate(pc, init),
        }
    }

    fn peek(&mut self, pc: u32) -> Option<&mut E> {
        match self {
            AnyHrt::Ideal(t) => t.peek(pc),
            AnyHrt::Associative(t) => t.peek(pc),
            AnyHrt::Hashed(t) => t.peek(pc),
        }
    }

    fn stats(&self) -> HrtStats {
        match self {
            AnyHrt::Ideal(t) => t.stats(),
            AnyHrt::Associative(t) => t.stats(),
            AnyHrt::Hashed(t) => t.stats(),
        }
    }
}

// ---------------------------------------------------------------------
// Per-trace site keys
// ---------------------------------------------------------------------

/// Precomputed table coordinates for every interned site of one
/// compiled trace, under one HRT organization.
///
/// A gang walk re-derives each branch's table coordinates — IHRT hash,
/// AHRT set/tag (a real division), HHRT mask — once per lane per
/// branch. `SiteKeys` pays that arithmetic once per trace: index by
/// [`SiteId`] and the coordinates come back resolved. Built from the
/// same helpers the per-pc paths use, so the two cannot disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteKeys {
    /// Ideal table: the site id itself is the slot (interning order is
    /// allocation order), so there is nothing to resolve.
    Ideal,
    /// Set-associative table: per-site first-way index and tag, packed
    /// into one word (`base << 32 | tag`) so the hot loop pays a single
    /// load and bounds check per event.
    Associative {
        /// `SiteId → (set * ways) << 32 | tag`.
        key: Vec<u64>,
    },
    /// Tagless hashed table: per-site slot.
    Hashed {
        /// `SiteId → slot`.
        slot: Vec<u32>,
    },
}

impl SiteKeys {
    /// Resolves every site pc under `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config` carries invalid geometry (same rules as
    /// [`AnyHrt::build`]).
    pub fn build(config: HrtConfig, pcs: &Arc<Vec<u32>>) -> Self {
        match config {
            HrtConfig::Ideal => SiteKeys::Ideal,
            HrtConfig::Associative { entries, ways } => {
                assert!(
                    ways > 0 && entries.is_multiple_of(ways),
                    "ways must divide entries"
                );
                let sets = entries / ways;
                assert!(
                    sets.is_power_of_two(),
                    "set count must be a power of two (got {sets})"
                );
                SiteKeys::Associative {
                    key: pcs
                        .iter()
                        .map(|&pc| {
                            ((assoc_set(pc, sets) * ways) as u64) << 32
                                | u64::from(assoc_tag(pc, sets))
                        })
                        .collect(),
                }
            }
            HrtConfig::Hashed { entries } => {
                assert!(
                    entries.is_power_of_two(),
                    "HHRT size must be a power of two (got {entries})"
                );
                SiteKeys::Hashed {
                    slot: pcs
                        .iter()
                        .map(|&pc| hash_slot(pc, entries) as u32)
                        .collect(),
                }
            }
        }
    }
}

/// Builds and memoizes [`SiteKeys`] per HRT organization for one
/// compiled trace, so all same-geometry lanes of a gang walk share one
/// resolved table.
#[derive(Debug, Clone)]
pub struct SiteResolver {
    pcs: Arc<Vec<u32>>,
    cache: HashMap<HrtConfig, Arc<SiteKeys>>,
}

impl SiteResolver {
    /// A resolver over the interned `SiteId → pc` table of one
    /// compiled trace (see `tlat_trace::CompiledTrace::site_pcs`).
    pub fn new(pcs: Vec<u32>) -> Self {
        SiteResolver {
            pcs: Arc::new(pcs),
            cache: HashMap::new(),
        }
    }

    /// The interned `SiteId → pc` table this resolver was built over.
    pub fn site_pcs(&self) -> &[u32] {
        &self.pcs
    }

    /// Every site's word address (`pc >> 2`) masked to `mask`: the
    /// per-site index into a table selected by low branch-address bits
    /// (GAs/PAs pattern sets, gshare's address term, a tournament
    /// chooser), resolved once per trace instead of per event.
    pub fn word_slots(&self, mask: usize) -> Vec<u32> {
        self.pcs
            .iter()
            .map(|&pc| ((pc >> 2) as usize & mask) as u32)
            .collect()
    }

    /// The resolved keys for `config`, built on first request and
    /// shared afterwards.
    pub fn keys(&mut self, config: HrtConfig) -> Arc<SiteKeys> {
        match self.cache.entry(config) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(v) => {
                Arc::clone(v.insert(Arc::new(SiteKeys::build(config, &self.pcs))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ihrt_allocates_once_per_pc() {
        let mut t: Ihrt<u32> = Ihrt::new();
        let (e, hit) = t.get_or_allocate(0x1000, || 7);
        assert!(!hit);
        assert_eq!(*e, 7);
        *e = 9;
        let (e, hit) = t.get_or_allocate(0x1000, || 7);
        assert!(hit);
        assert_eq!(*e, 9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().accesses, 2);
        assert_eq!(t.stats().misses, 1);
        assert!((t.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ihrt_peek_does_not_allocate() {
        let mut t: Ihrt<u32> = Ihrt::new();
        assert!(t.peek(0x1000).is_none());
        assert!(t.is_empty());
        assert_eq!(t.stats().accesses, 0);
    }

    #[test]
    fn ahrt_geometry_validation() {
        // 512 entries 4-way = 128 sets: fine.
        let _ = Ahrt::new(512, 4, 0u32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn ahrt_rejects_non_power_of_two_sets() {
        let _ = Ahrt::new(12, 4, 0u32); // 3 sets
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn ahrt_rejects_ragged_ways() {
        let _ = Ahrt::new(10, 4, 0u32);
    }

    #[test]
    fn ahrt_hits_after_allocation() {
        let mut t = Ahrt::new(8, 2, 0u32);
        let (e, hit) = t.get_or_allocate(0x1000, || 1);
        assert!(!hit);
        *e = 5;
        let (e, hit) = t.get_or_allocate(0x1000, || 1);
        assert!(hit);
        assert_eq!(*e, 5);
    }

    #[test]
    fn ahrt_lru_evicts_least_recent() {
        // 2 sets x 2 ways. Addresses mapping to set 0: pc>>2 even.
        let mut t = Ahrt::new(4, 2, 0u32);
        let pc = |i: u32| (i * 2) << 2; // even (pc>>2) values -> set 0
        t.get_or_allocate(pc(0), || 10);
        t.get_or_allocate(pc(1), || 11);
        // Touch pc(0) so pc(1) becomes LRU.
        t.get_or_allocate(pc(0), || 0);
        // Allocate a third branch in the same set: must evict pc(1).
        t.get_or_allocate(pc(2), || 12);
        assert!(t.peek(pc(0)).is_some());
        assert!(t.peek(pc(1)).is_none());
        assert!(t.peek(pc(2)).is_some());
    }

    #[test]
    fn ahrt_replacement_inherits_victim_contents_by_default() {
        // Paper §4.2: "when an entry is re-allocated to a different
        // static branch, the history register is not re-initialized".
        let mut t = Ahrt::new(2, 2, 0u32); // one set, two ways
        let pc = |i: u32| i << 2;
        *t.get_or_allocate(pc(0), || 100).0 = 42;
        t.get_or_allocate(pc(1), || 101);
        t.get_or_allocate(pc(1), || 0); // make pc(0) the LRU
        let (e, hit) = t.get_or_allocate(pc(2), || 999);
        assert!(!hit);
        assert_eq!(*e, 42, "victim contents must persist");
    }

    #[test]
    fn ahrt_reinit_mode_resets_victims() {
        let mut t = Ahrt::new(2, 2, 0u32);
        t.set_reinit_on_replace(true);
        let pc = |i: u32| i << 2;
        *t.get_or_allocate(pc(0), || 100).0 = 42;
        t.get_or_allocate(pc(1), || 101);
        t.get_or_allocate(pc(1), || 0);
        let (e, _) = t.get_or_allocate(pc(2), || 999);
        assert_eq!(*e, 999);
    }

    #[test]
    fn ahrt_different_sets_do_not_interfere() {
        let mut t = Ahrt::new(8, 2, 0u32); // 4 sets
                                           // Fill set 0 beyond capacity.
        for i in 0..6u32 {
            t.get_or_allocate((i * 4) << 2, || i);
        }
        // Set 1 is untouched: allocating there misses but evicts nothing
        // in set 0... verify set-1 entry works.
        let (_, hit) = t.get_or_allocate(1 << 2, || 7);
        assert!(!hit);
        let (_, hit) = t.get_or_allocate(1 << 2, || 7);
        assert!(hit);
    }

    #[test]
    fn hhrt_collisions_share_entries() {
        let mut t = Hhrt::new(4, 0u32);
        // pc values 0x1000 and 0x1040: (pc>>2) & 3 both 0.
        *t.get_or_allocate(0x1000, || 0).0 = 5;
        let (e, hit) = t.get_or_allocate(0x1040, || 0);
        assert!(hit, "HHRT never reports misses");
        assert_eq!(*e, 5, "colliding branches share the slot");
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hhrt_rejects_non_power_of_two() {
        let _ = Hhrt::new(300, 0u32);
    }

    #[test]
    fn any_hrt_dispatches() {
        for config in [HrtConfig::Ideal, HrtConfig::ahrt(512), HrtConfig::hhrt(512)] {
            let mut t = AnyHrt::build(config, 0u32);
            let (e, _) = t.get_or_allocate(0x1000, || 3);
            *e += 1;
            let (e, hit) = t.get_or_allocate(0x1000, || 3);
            assert!(hit, "{config}");
            // IHRT/AHRT allocated with init()=3 then +1; HHRT pre-filled
            // with 0 then +1.
            assert!(*e == 4 || *e == 1, "{config}");
            assert!(t.stats().accesses == 2, "{config}");
        }
    }

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(HrtConfig::Ideal.label(), "IHRT");
        assert_eq!(HrtConfig::ahrt(512).label(), "AHRT(512)");
        assert_eq!(HrtConfig::hhrt(256).label(), "HHRT(256)");
    }

    /// A small pseudorandom branch stream with heavy pc reuse: the
    /// returned `(pc, site)` pairs replay first-appearance interning.
    fn interned_stream(n: usize, sites: u32) -> (Vec<(u32, u32)>, Vec<u32>) {
        let mut pcs_of_site: Vec<u32> = Vec::new();
        let mut events = Vec::with_capacity(n);
        let mut x = 0x9e37_79b9u64;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + ((x >> 30) as u32 % sites) * 4;
            let site = match pcs_of_site.iter().position(|&p| p == pc) {
                Some(i) => i as u32,
                None => {
                    pcs_of_site.push(pc);
                    (pcs_of_site.len() - 1) as u32
                }
            };
            events.push((pc, site));
        }
        (events, pcs_of_site)
    }

    #[test]
    fn site_keys_match_the_pc_path() {
        let (events, pcs) = interned_stream(4_000, 61);
        let mut resolver = SiteResolver::new(pcs.clone());
        // An associative table's slot probe, fed site keys, decides
        // every access as the table fed pcs does.
        let config = HrtConfig::ahrt(32);
        let mut engine = SlotProbe::build(config, &mut resolver).expect("associative geometry");
        let mut by_pc = AnyHrt::build(config, 0u32);
        for (i, &(pc, site)) in events.iter().enumerate() {
            let hit = by_pc.get_or_allocate(pc, || 0).1;
            assert_eq!(
                engine.step(site).outcome == ProbeOutcome::Hit,
                hit,
                "event {i}"
            );
        }
        assert_eq!(engine.stats(), by_pc.stats());
        // A hashed table's site keys are its pcs' slots.
        let keys = resolver.keys(HrtConfig::hhrt(16));
        let SiteKeys::Hashed { slot } = &*keys else {
            panic!("a hashed table resolves hashed keys");
        };
        for (site, &pc) in pcs.iter().enumerate() {
            assert_eq!(slot[site] as usize, hash_slot(pc, 16), "site {site}");
        }
    }

    #[test]
    fn resolver_shares_keys_per_geometry() {
        let mut r = SiteResolver::new(vec![0x1000, 0x2000]);
        let a = r.keys(HrtConfig::ahrt(512));
        let b = r.keys(HrtConfig::ahrt(512));
        assert!(Arc::ptr_eq(&a, &b), "same geometry must share one table");
        let c = r.keys(HrtConfig::hhrt(512));
        assert!(matches!(*c, SiteKeys::Hashed { .. }));
    }
}
