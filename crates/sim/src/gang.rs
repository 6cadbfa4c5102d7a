//! Single-pass gang simulation: one trace walk feeding many predictors.
//!
//! `engine::simulate` walks the branch stream once per configuration,
//! so an N-configuration sweep pays N full memory-bandwidth passes over
//! the same trace plus a dyn-dispatched call per branch. Sweeps are the
//! harness's hot path (every table/figure is one), and predictors never
//! interact — so the gang engine compiles the trace once and runs every
//! configuration over the same compact event stream, sharing whatever
//! depends on the stream alone.
//!
//! Nine further savings fall out:
//!
//! * **Monomorphization** — every registered scheme runs as a concrete
//!   enum variant of [`GangLane`] ([`GangLane::from_config`] never
//!   boxes), and every walk is a direct (inlinable) loop over that
//!   lane's own state. The boxed [`GangLane::Dyn`] lane remains only
//!   for callers that bring their own [`Predictor`].
//! * **Stream compilation** — every lane but a dyn one is fed from a
//!   site-interned SoA event stream ([`CompiledTrace`]), compiled once
//!   per workload, and every lane's table coordinates are resolved per
//!   static site up front ([`SiteResolver`]): history-table keys,
//!   GAs/PAs pattern sets, gshare's address term, the tournament's
//!   chooser entry. So no walk does per-branch set/tag/hash arithmetic,
//!   each touches ~5 bytes per event instead of a 16-byte record (see
//!   DESIGN.md's "Hot-loop anatomy"), and a sweep never needs the
//!   record trace.
//! * **Group-major scalar walks** — in the paper's scheme level one
//!   (the history registers) depends only on the branch stream and the
//!   table geometry, and each lane owns its level two, so every lane
//!   with a table or a history register — a Two-Level lane, a Lee &
//!   Smith (LS) or Static Training (ST) lane, a GAg/GAs/PAg/PAs lane or
//!   gshare — walks the whole stream in a walk group (below; a lone lane
//!   is a group of one), in one loop monomorphized over its members'
//!   kind and its slot source: the ideal table's slot is the site (a
//!   site's first event fills it), a hashed table's is the site's slot,
//!   an associative table's comes from a [`SlotProbe`] the group probes
//!   inline or from a shared engine's probe log, and a global register
//!   is a table of one slot. The group keeps lean walk-local state in
//!   tlat-core's one level-one walker, a [`Walk`]: one `u16` history
//!   register per slot, each member's state word beside it (a Two-Level
//!   member's §3.2 cached bit, an LS member's automaton), and each
//!   member's one-byte pattern tables or ST preset bits. Each predictor
//!   kind supplies its [`Member`] beside its own rules, so this module
//!   keeps only the plan, the slot sources and the loop. Only the
//!   lanes' counts and adopted table statistics are observable
//!   afterwards.
//! * **Level-one groups** — lanes of one member kind on one table (and,
//!   for Two-Level lanes, one replacement rule) read the same level
//!   one: every register starts all-ones and shifts the newest outcome
//!   into bit 0, so a k-bit register is the low k bits of a wider one.
//!   So they walk as one group: one walk steps one register per slot,
//!   as wide as the widest member's, once per event, then each member's
//!   level two, each reading its own low bits. Members never read each
//!   other's level two, so their order within an event is as
//!   unobservable as lane order. A lone lane walks its predictor's own
//!   walk, whose one member sits inline.
//! * **Run collapsing** — a run of one site's events with one outcome
//!   stops changing a group's state once its register reads the
//!   outcome throughout and every automaton it indexes has converged
//!   ([`Walk::run_bound`] events in, the largest member's bound), so
//!   the walk credits the rest of each such run the stream indexes
//!   ([`CompiledTrace::long_runs`]) without stepping it. An ST lane's
//!   preset bits may oppose a run, so an ST group steps every event.
//! * **Shared probe logs** — associative lanes with the same table
//!   geometry see identical tag/LRU decision sequences, so where a
//!   geometry has two or more walk groups one payload-free
//!   [`SlotProbe`] probes the stream once into a log, one `u32` per
//!   event (the slot, with fill and replacement flags), that every one
//!   of them reads; the engine's access statistics are folded back into
//!   every member of every sharing group. A geometry whose lanes form
//!   one group probes inline and builds no log.
//! * **Derived lanes** — a tournament's components train on every event
//!   whatever its chooser picks, so its component guesses are those of
//!   separate walks of its components, event for event: fresh twins (a
//!   Two-Level lane and a gshare lane of equal configurations) where
//!   the gang has them, its own components otherwise. Those walks
//!   record their guesses, one bit per event, and the tournament then
//!   steps only its chooser, at the events where the guesses disagree;
//!   the agreeing events are credited in bulk from the walks' counts.
//! * **Closed-form static scoring** — a profile lane's frozen per-site
//!   bits never change during a walk, so its score is a weighted sum
//!   over the compiled stream's per-site taken counts: per site, not
//!   per event, and identical to event-by-event recording. Always
//!   Taken and Always Not Taken read the same counts, and BTFN reads
//!   the stream's count of events taken exactly when backward.
//! * **Shared RAS** — return-address-stack behaviour depends only on
//!   the trace, never on the direction predictor, so the gang simulates
//!   the RAS once and stamps the same stats into every lane's result.
//!
//! A compiled walk is decided before it runs: `plan` turns the lanes
//! into a `WalkPlan` value — each lane's path, the walk groups and the
//! shared engines — and one executor runs any such plan. Results are
//! bit-identical to driving [`crate::simulate_with`] once per
//! predictor, and to the reference record walk
//! [`gang_simulate_records`], under every plan: each lane observes
//! exactly the same predict/update sequence it would alone.

use crate::config::{self, SchemeConfig};
use crate::engine::SimOptions;
use crate::metrics::{self, Counter, Phase};
use crate::pool::{catch_cell, CellPanic};
use crate::stats::{PredictionStats, SimResult};
use tlat_core::{
    Gshare, HrtConfig, HrtStats, LeeSmithBtb, Member, Predictor, Probe, ProfilePredictor, SiteKeys,
    SiteResolver, SlotProbe, StaticTraining, StaticTrainingConfig, Tournament, TwoLevelAdaptive,
    TwoLevelVariant, Walk,
};
use tlat_trace::{
    BranchClass, BranchRecord, CompiledTrace, RasEvent, ReturnAddressStack, SiteId, Trace,
};

/// One predictor riding a gang walk.
///
/// The concrete variants exist so a walk can step each lane without
/// dynamic dispatch and, on the compiled stream, with site-resolved
/// table coordinates and state of its own. Every [`SchemeConfig`] has
/// one; [`GangLane::Dyn`] carries a caller's own predictor.
pub enum GangLane {
    /// The paper's Two-Level Adaptive Training scheme, monomorphized.
    TwoLevel(TwoLevelAdaptive),
    /// The Lee & Smith BTB scheme, monomorphized.
    LeeSmith(LeeSmithBtb),
    /// Lee & Smith's Static Training scheme, monomorphized.
    StaticTraining(StaticTraining),
    /// A GAg/GAs/PAg/PAs predictor of the two-level taxonomy.
    Variant(TwoLevelVariant),
    /// gshare.
    Gshare(Gshare),
    /// The paper's scheme against gshare, with a per-branch chooser.
    Tournament(Tournament<TwoLevelAdaptive, Gshare>),
    /// The §4.2 profiling scheme, monomorphized (its frozen per-branch
    /// bits resolve to a dense per-site table on the compiled stream).
    Profile(ProfilePredictor),
    /// Always Taken, Always Not Taken or BTFN, scored in closed form.
    Fixed(FixedRule),
    /// Any other predictor, behind the usual trait object, fed the
    /// record stream.
    Dyn(Box<dyn Predictor>),
}

/// A static scheme whose guess is a fixed function of the branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedRule {
    /// Predict every branch taken.
    AlwaysTaken,
    /// Predict every branch not taken.
    AlwaysNotTaken,
    /// Backward taken, forward not taken.
    Btfn,
}

impl FixedRule {
    fn guess(self, branch: &BranchRecord) -> bool {
        match self {
            FixedRule::AlwaysTaken => true,
            FixedRule::AlwaysNotTaken => false,
            FixedRule::Btfn => branch.is_backward(),
        }
    }

    /// The rule's correct guesses over the whole stream, from its
    /// tallies: no per-event work at all.
    fn correct(self, compiled: &CompiledTrace) -> u64 {
        let taken: u64 = compiled.site_taken().iter().sum();
        match self {
            FixedRule::AlwaysTaken => taken,
            FixedRule::AlwaysNotTaken => compiled.len() as u64 - taken,
            FixedRule::Btfn => compiled.taken_iff_backward(),
        }
    }
}

impl std::fmt::Debug for GangLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("GangLane").field(&self.name()).finish()
    }
}

impl GangLane {
    /// Builds the monomorphized lane for a configuration; never a
    /// [`GangLane::Dyn`].
    ///
    /// # Panics
    ///
    /// As [`SchemeConfig::build`]: panics when the scheme needs a
    /// training trace and `training` is `None`.
    pub fn from_config(config: &SchemeConfig, training: Option<&Trace>) -> Self {
        match config {
            SchemeConfig::TwoLevel(c) => GangLane::TwoLevel(TwoLevelAdaptive::new(*c)),
            SchemeConfig::LeeSmith(c) => GangLane::LeeSmith(LeeSmithBtb::new(*c)),
            SchemeConfig::StaticTraining {
                history_bits,
                hrt,
                data,
            } => {
                let trace = training.expect("Static Training requires a training trace");
                GangLane::StaticTraining(StaticTraining::train(
                    StaticTrainingConfig {
                        history_bits: *history_bits,
                        hrt: *hrt,
                        data: data.label().to_owned(),
                    },
                    trace,
                ))
            }
            SchemeConfig::Profile => {
                let trace = training.expect("profiling requires a training trace");
                GangLane::Profile(ProfilePredictor::train(trace))
            }
            SchemeConfig::Variant(c) => GangLane::Variant(TwoLevelVariant::new(*c)),
            SchemeConfig::Gshare(c) => GangLane::Gshare(Gshare::new(*c)),
            SchemeConfig::Tournament { chooser_entries } => {
                GangLane::Tournament(config::tournament(*chooser_entries))
            }
            SchemeConfig::AlwaysTaken => GangLane::Fixed(FixedRule::AlwaysTaken),
            SchemeConfig::AlwaysNotTaken => GangLane::Fixed(FixedRule::AlwaysNotTaken),
            SchemeConfig::Btfn => GangLane::Fixed(FixedRule::Btfn),
        }
    }

    /// The predictor's configuration string.
    pub fn name(&self) -> String {
        match self {
            GangLane::TwoLevel(p) => p.name(),
            GangLane::LeeSmith(p) => p.name(),
            GangLane::StaticTraining(p) => p.name(),
            GangLane::Variant(p) => p.name(),
            GangLane::Gshare(p) => p.name(),
            GangLane::Tournament(p) => p.name(),
            GangLane::Profile(p) => p.name(),
            GangLane::Fixed(rule) => format!("{rule:?}"),
            GangLane::Dyn(p) => p.name(),
        }
    }

    /// One fused predict → resolve → train cycle (see
    /// [`Predictor::predict_update`]); the per-branch call of the
    /// record walk.
    #[inline]
    fn predict_update(&mut self, branch: &BranchRecord) -> bool {
        match self {
            GangLane::TwoLevel(p) => p.predict_update(branch),
            GangLane::LeeSmith(p) => p.predict_update(branch),
            GangLane::StaticTraining(p) => p.predict_update(branch),
            GangLane::Variant(p) => p.predict_update(branch),
            GangLane::Gshare(p) => p.predict_update(branch),
            GangLane::Tournament(p) => p.predict_update(branch),
            GangLane::Profile(p) => p.predict_update(branch),
            GangLane::Fixed(rule) => rule.guess(branch),
            GangLane::Dyn(p) => p.predict_update(branch),
        }
    }

    /// The per-address history table the lane probes once per event,
    /// if any (a tournament's is its Two-Level component's). Lanes
    /// sharing an associative organization share one [`SlotProbe`]'s
    /// probe log during a compiled walk.
    fn hrt_config(&self) -> Option<HrtConfig> {
        match self {
            GangLane::TwoLevel(p) => Some(p.config().hrt),
            GangLane::LeeSmith(p) => Some(p.config().hrt),
            GangLane::StaticTraining(p) => Some(p.config().hrt),
            GangLane::Variant(p) => p.hrt_config(),
            GangLane::Tournament(p) => Some(p.first().config().hrt),
            GangLane::Gshare(_) | GangLane::Profile(_) | GangLane::Fixed(_) | GangLane::Dyn(_) => {
                None
            }
        }
    }

    /// What level one of a scalar lane reads: its member kind, with its
    /// table geometry where it has one and, for a Two-Level lane, whether
    /// a replacement re-initializes the slot. Lanes that read the same
    /// level one walk as one group, stepping one register per slot (a
    /// global register is a table of one slot). A tournament walking its
    /// own components, and a lane walked in closed form or on records,
    /// joins no group.
    fn level_one(&self) -> Option<LevelOne> {
        match self {
            GangLane::TwoLevel(p) => Some(LevelOne::TwoLevel {
                hrt: p.config().hrt,
                reinit: p.config().reinit_on_replace,
            }),
            GangLane::Variant(p) => Some(LevelOne::Pattern(p.hrt_config())),
            GangLane::Gshare(_) => Some(LevelOne::Pattern(None)),
            GangLane::StaticTraining(p) => Some(LevelOne::StaticTraining(p.config().hrt)),
            GangLane::LeeSmith(p) => Some(LevelOne::LeeSmith(p.config().hrt)),
            GangLane::Tournament(_)
            | GangLane::Profile(_)
            | GangLane::Fixed(_)
            | GangLane::Dyn(_) => None,
        }
    }

    /// Folds the access statistics of the probing done on this lane's
    /// behalf (its slot source's) into its table.
    fn adopt_probe_stats(&mut self, stats: HrtStats) {
        match self {
            GangLane::TwoLevel(p) => p.adopt_probe_stats(stats),
            GangLane::LeeSmith(p) => p.adopt_probe_stats(stats),
            GangLane::StaticTraining(p) => p.adopt_probe_stats(stats),
            GangLane::Variant(p) => p.adopt_probe_stats(stats),
            GangLane::Tournament(p) => p.adopt_probe_stats(stats),
            _ => unreachable!("only table lanes probe"),
        }
    }
}

/// What a scalar lane's level one reads (see [`GangLane::level_one`]):
/// the kind of member, which sets the walk's slot layout and how a
/// slot re-initializes, and the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelOne {
    /// Two-Level lanes: a register and a §3.2 cached bit per slot.
    TwoLevel { hrt: HrtConfig, reinit: bool },
    /// PAg and PAs lanes: a register per slot of their table; GAg, GAs
    /// and gshare lanes (no table): one global register.
    Pattern(Option<HrtConfig>),
    /// Static Training lanes: a register per slot.
    StaticTraining(HrtConfig),
    /// Lee & Smith lanes: no register, only the slot.
    LeeSmith(HrtConfig),
}

/// How one lane rides a compiled walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LanePath {
    /// A scalar lane — a Two-Level, LS, ST, taxonomy or gshare lane, or
    /// a tournament without twins — walking the whole stream as a member
    /// of walk group `g` (a lone lane is a group of one).
    Group(usize),
    /// A tournament whose components have fresh twins in the walk: the
    /// scalar Two-Level lane `first` and the scalar gshare lane
    /// `second`. The twins record their guesses, and the tournament
    /// steps only its chooser, at the events where they disagree.
    Derived { first: usize, second: usize },
    /// A profile or fixed-rule lane, scored in closed form from the
    /// stream's tallies.
    ClosedForm,
    /// A dyn lane, fed the raw record stream.
    Dyn,
}

/// Scalar lanes that walk the stream together: one walk steps one
/// register per slot per event for all of them, then each member's
/// level two.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalkGroup {
    /// Its lanes, in lane order; all of one [`LevelOne`].
    members: Vec<usize>,
    /// Where its per-address table's slots come from (a tournament's are
    /// its Two-Level component's); a global-history group has no table
    /// and no driver.
    driver: Option<SlotDriver>,
}

/// Where a walk group's slot sequence comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotDriver {
    /// Ideal table: slot = site, a site's first event fills its slot.
    Ideal,
    /// Hashed table: per-site slots, every access hits.
    Hashed,
    /// Associative table: an engine of the group's own, probed inline
    /// event by event.
    Private,
    /// Associative table: shared engine `e`'s probe log, read event by
    /// event.
    Logged(usize),
}

/// Everything a compiled walk decides before it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalkPlan {
    /// Each lane's path, in lane order.
    lanes: Vec<LanePath>,
    /// The walk groups, numbered in order of their first lane.
    groups: Vec<WalkGroup>,
    /// The geometry of each shared engine, whose probes are logged once
    /// for every consumer; numbered in order of their first lane.
    engines: Vec<HrtConfig>,
}

/// Decides how `lanes` ride a walk.
///
/// * **Derivation.** A tournament derives from the first Two-Level lane
///   and the first gshare lane whose configurations equal its
///   components', when both exist; otherwise it walks its own
///   components as a group of one. A derived tournament probes nothing,
///   so it counts toward no shared engine.
/// * **Groups.** Every other Two-Level, LS, ST, taxonomy and gshare
///   lane joins the walk group of the scalar lanes whose level one it
///   reads ([`GangLane::level_one`]), or starts one; a tournament that
///   does not derive walks as a group of one.
/// * **Sharing.** An associative organization's consumers are its
///   groups. An organization with two or more gets a shared engine,
///   which probes the stream once into a log that every one of them
///   reads event by event. A lone group probes inline.
fn plan(lanes: &[GangLane]) -> WalkPlan {
    let derived: Vec<Option<LanePath>> = lanes
        .iter()
        .map(|lane| {
            let GangLane::Tournament(t) = lane else {
                return None;
            };
            let first = lanes.iter().position(
                |lane| matches!(lane, GangLane::TwoLevel(p) if p.config() == t.first().config()),
            )?;
            let second = lanes.iter().position(
                |lane| matches!(lane, GangLane::Gshare(g) if g.config() == t.second().config()),
            )?;
            Some(LanePath::Derived { first, second })
        })
        .collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut level_ones: Vec<Option<LevelOne>> = Vec::new();
    let paths = lanes
        .iter()
        .zip(derived)
        .enumerate()
        .map(|(i, (lane, derived))| match (lane, derived) {
            (_, Some(derived)) => derived,
            (GangLane::Profile(_) | GangLane::Fixed(_), None) => LanePath::ClosedForm,
            (GangLane::Dyn(_), None) => LanePath::Dyn,
            (lane, None) => {
                let level_one = lane.level_one();
                let joined = level_one.and_then(|l| level_ones.iter().position(|&g| g == Some(l)));
                let g = joined.unwrap_or_else(|| {
                    level_ones.push(level_one);
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
                LanePath::Group(g)
            }
        })
        .collect();
    share(lanes, paths, groups)
}

/// The plan in which `lanes` take `paths`, the members of each of
/// `groups` walking together: an associative organization whose
/// consumers — its groups — number two or more gets a shared engine,
/// numbered in order of its first group, whose log every one of them
/// reads; a lone group probes inline.
fn share(lanes: &[GangLane], paths: Vec<LanePath>, groups: Vec<Vec<usize>>) -> WalkPlan {
    let consumers: Vec<Option<HrtConfig>> = groups
        .iter()
        .map(|members| lanes[members[0]].hrt_config())
        .collect();
    let mut engines: Vec<HrtConfig> = Vec::new();
    for &hrt in consumers.iter().flatten() {
        let shared = consumers
            .iter()
            .filter(|&&other| other == Some(hrt))
            .count()
            >= 2;
        if shared && matches!(hrt, HrtConfig::Associative { .. }) && !engines.contains(&hrt) {
            engines.push(hrt);
        }
    }
    let engine = |hrt: HrtConfig| engines.iter().position(|&shared| shared == hrt);
    let driver = |hrt: HrtConfig| match (hrt, engine(hrt)) {
        (HrtConfig::Ideal, _) => SlotDriver::Ideal,
        (HrtConfig::Hashed { .. }, _) => SlotDriver::Hashed,
        (_, None) => SlotDriver::Private,
        (_, Some(e)) => SlotDriver::Logged(e),
    };
    let groups = groups
        .into_iter()
        .zip(consumers)
        .map(|(members, hrt)| WalkGroup {
            members,
            driver: hrt.map(driver),
        })
        .collect();
    WalkPlan {
        lanes: paths,
        groups,
        engines,
    }
}

/// How many slots `hrt`'s table holds over `compiled`: one per site
/// for the ideal table (a site's first event fills its slot, which is
/// what growing the table would do), the table's entries otherwise.
fn table_slots(hrt: HrtConfig, compiled: &CompiledTrace) -> usize {
    match hrt {
        HrtConfig::Ideal => compiled.num_sites(),
        HrtConfig::Associative { entries, .. } | HrtConfig::Hashed { entries } => entries,
    }
}

/// One associative organization probed over the whole stream: every
/// event's probe word, and what the probing counted. A shared engine's
/// log is read by every walk group on its organization.
struct ProbeLog {
    words: Vec<u32>,
    stats: HrtStats,
}

impl ProbeLog {
    /// Probes `hrt` over `compiled`. A same-site run probes once: the
    /// rest of the run hits the slot that probe chose.
    fn probe(hrt: HrtConfig, resolver: &mut SiteResolver, compiled: &CompiledTrace) -> Self {
        let mut engine = SlotProbe::build(hrt, resolver).expect("probe logs are associative");
        let mut words = Vec::with_capacity(compiled.len());
        for run in compiled.cond_sites().chunk_by(|a, b| a == b) {
            let word = engine.step_run(run[0], run.len() as u64).word();
            let start = words.len();
            words.resize(start + run.len(), word & Probe::SLOT);
            words[start] = word;
        }
        ProbeLog {
            words,
            stats: engine.stats(),
        }
    }
}

/// Where a walk group finds its table slot, event by event.
trait Slots {
    /// The probe word of the next event, at `site`.
    fn next(&mut self, site: SiteId) -> u32;
    /// Passes over the next `n` events, all at `site`, which continue a
    /// same-site run that [`Slots::next`] has already stepped into: each
    /// is a hit on that run's slot. Only a source that counts or
    /// remembers its accesses event by event has anything to do.
    fn skip(&mut self, _site: SiteId, _n: u64) {}
    /// What the table counted over the walk.
    fn stats(&self) -> HrtStats;
}

/// Ideal table: slot = site, and a site's first event fills it. Sites
/// intern in first-appearance order, so the next fresh site is the
/// count seen so far.
struct IdealSlots {
    seen: u32,
    events: u64,
}

impl Slots for IdealSlots {
    #[inline]
    fn next(&mut self, site: SiteId) -> u32 {
        let fresh = site == self.seen;
        self.seen += u32::from(fresh);
        site | (u32::from(fresh) * Probe::FILLED)
    }

    fn stats(&self) -> HrtStats {
        HrtStats {
            accesses: self.events,
            misses: u64::from(self.seen),
        }
    }
}

/// Hashed table: the site's slot; a tagless table never misses.
struct HashedSlots<'a> {
    slot: &'a [u32],
    events: u64,
}

impl Slots for HashedSlots<'_> {
    #[inline]
    fn next(&mut self, site: SiteId) -> u32 {
        self.slot[site as usize]
    }

    fn stats(&self) -> HrtStats {
        HrtStats {
            accesses: self.events,
            misses: 0,
        }
    }
}

/// Associative table with one consumer: the group's own engine, probed
/// inline.
impl Slots for SlotProbe {
    #[inline]
    fn next(&mut self, site: SiteId) -> u32 {
        self.step(site).word()
    }

    fn skip(&mut self, site: SiteId, n: u64) {
        self.step_run(site, n);
    }

    fn stats(&self) -> HrtStats {
        SlotProbe::stats(self)
    }
}

/// Associative table with a shared engine: its probe log.
struct LoggedSlots<'a> {
    words: std::slice::Iter<'a, u32>,
    stats: HrtStats,
}

impl Slots for LoggedSlots<'_> {
    #[inline]
    fn next(&mut self, _site: SiteId) -> u32 {
        *self
            .words
            .next()
            .expect("a probe log holds one word per event")
    }

    fn skip(&mut self, _site: SiteId, n: u64) {
        let rest = self.words.as_slice();
        self.words = rest[n as usize..].iter();
    }

    fn stats(&self) -> HrtStats {
        self.stats
    }
}

/// No per-address table: a global-history group's one register, a
/// table of one slot.
struct NoSlots;

impl Slots for NoSlots {
    #[inline]
    fn next(&mut self, _site: SiteId) -> u32 {
        0
    }

    fn stats(&self) -> HrtStats {
        HrtStats::default()
    }
}

/// Walks one walk group over the whole stream, in one loop per member
/// kind and slot source, appending each member's guesses to its entry of
/// `records` where that holds a vector (a derived lane reads them): one
/// bit per event, 64 to a word, as the stream's outcome words pack
/// them. Returns each member's correct count and what the table
/// counted.
fn walk<M: Member, Ms: AsRef<[M]> + AsMut<[M]>, S: Slots>(
    walker: &mut Walk<M, Ms>,
    mut slots: S,
    compiled: &CompiledTrace,
    records: &mut [Option<Vec<u64>>],
) -> (Vec<u64>, HrtStats) {
    let mut correct = vec![0; walker.members()];
    let collapsed = if records.iter().all(Option::is_none) {
        walk_words(walker, &mut slots, compiled, &mut correct, |_| {})
    } else {
        walk_words(walker, &mut slots, compiled, &mut correct, |words| {
            for (record, &word) in records.iter_mut().zip(words) {
                if let Some(record) = record {
                    record.push(word);
                }
            }
        })
    };
    metrics::add(Counter::EventsCollapsed, collapsed * correct.len() as u64);
    (correct, slots.stats())
}

/// The long same-site, same-outcome runs a walk of `compiled` may
/// collapse: every one the stream indexes, unless a test has forced
/// collapsing off on this thread.
fn collapsible(compiled: &CompiledTrace) -> &[(u32, u32)] {
    #[cfg(test)]
    if COLLAPSING_OFF.get() {
        return &[];
    }
    compiled.long_runs()
}

#[cfg(test)]
thread_local! {
    /// Set while a test on this thread walks with collapsing forced off.
    static COLLAPSING_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test support: runs `walks` with every compiled walk on this thread
/// stepping every event, none crediting a run's tail.
#[cfg(test)]
pub(crate) fn without_collapsing<R>(walks: impl FnOnce() -> R) -> R {
    COLLAPSING_OFF.set(true);
    let result = walks();
    COLLAPSING_OFF.set(false);
    result
}

/// [`walk`]'s loop: 64 events per word of outcome bits, each member's
/// guesses gathered into one word that is scored against the outcomes
/// by a popcount into its entry of `correct`, and handed to `record`
/// with the other members'.
///
/// Once a group has stepped [`Walk::run_bound`] events of a long
/// same-site, same-outcome run — its largest member's bound — every
/// member sits at a fixed point that guesses the run and that the run's
/// later events leave unchanged. So the loop credits each such run's
/// tail without stepping it: the tail's guess bits are its outcome
/// bits, for every member, and the slot source skips it. A word that
/// holds no credited event takes the plain loop. Returns the number of
/// credited events.
#[inline(always)]
fn walk_words<M: Member, Ms: AsRef<[M]> + AsMut<[M]>, S: Slots>(
    walker: &mut Walk<M, Ms>,
    slots: &mut S,
    compiled: &CompiledTrace,
    correct: &mut [u64],
    mut record: impl FnMut(&[u64]),
) -> u64 {
    let bound = walker.run_bound();
    let mut tails = collapsible(compiled)
        .iter()
        .filter(|&&(_, len)| len as usize > bound)
        .map(|&(start, len)| (start as usize + bound, start as usize + len as usize));
    let none = (usize::MAX, usize::MAX);
    // The next credited tail, as an event range.
    let mut tail = tails.next().unwrap_or(none);
    let mut collapsed = 0;
    let mut guesses = vec![0; correct.len()];
    let outcomes = compiled.outcomes().words();
    for ((word, sites), &taken) in compiled.cond_sites().chunks(64).enumerate().zip(outcomes) {
        let (base, end) = (word * 64, word * 64 + sites.len());
        guesses.fill(0);
        let mut event = base;
        while event < end {
            if event < tail.0 {
                let stop = tail.0.min(end);
                let bits = event - base..stop - base;
                let from = bits.start as u32;
                step_bits(walker, slots, &sites[bits], taken, from, &mut guesses);
                event = stop;
            } else {
                if event == tail.0 {
                    let n = (tail.1 - tail.0) as u64;
                    slots.skip(sites[event - base], n);
                    collapsed += n;
                }
                let stop = tail.1.min(end);
                let width = stop - event;
                let credited = taken & (u64::MAX >> (64 - width)) << (event - base);
                for guesses in &mut guesses {
                    *guesses |= credited;
                }
                event = stop;
                if stop == tail.1 {
                    tail = tails.next().unwrap_or(none);
                }
            }
        }
        // Bits past the stream's end are zero in both words.
        let events = u64::MAX >> (64 - sites.len());
        for (correct, guesses) in correct.iter_mut().zip(&guesses) {
            *correct += u64::from((!(guesses ^ taken) & events).count_ones());
        }
        record(&guesses);
    }
    collapsed
}

/// Steps `walker` over one word's events at bits `from..` of `taken`,
/// at `sites`, ORing each member's guess bits into its entry of
/// `guesses`.
#[inline(always)]
fn step_bits<M: Member, Ms: AsRef<[M]> + AsMut<[M]>, S: Slots>(
    walker: &mut Walk<M, Ms>,
    slots: &mut S,
    sites: &[SiteId],
    taken: u64,
    from: u32,
    guesses: &mut [u64],
) {
    for (bit, &site) in (from..).zip(sites) {
        walker.step(slots.next(site), site, taken >> bit & 1 != 0, bit, guesses);
    }
}

/// Walks `walker` over `hrt`'s slots as `driver` finds them.
fn walk_table<M: Member, Ms: AsRef<[M]> + AsMut<[M]>>(
    walker: &mut Walk<M, Ms>,
    hrt: HrtConfig,
    driver: SlotDriver,
    logs: &[ProbeLog],
    resolver: &mut SiteResolver,
    compiled: &CompiledTrace,
    records: &mut [Option<Vec<u64>>],
) -> (Vec<u64>, HrtStats) {
    let events = compiled.len() as u64;
    match driver {
        SlotDriver::Ideal => walk(walker, IdealSlots { seen: 0, events }, compiled, records),
        SlotDriver::Hashed => {
            let keys = resolver.keys(hrt);
            let SiteKeys::Hashed { slot } = &*keys else {
                unreachable!("a hashed table resolves hashed keys");
            };
            walk(walker, HashedSlots { slot, events }, compiled, records)
        }
        SlotDriver::Private => {
            let engine = SlotProbe::build(hrt, resolver).expect("private drivers are associative");
            walk(walker, engine, compiled, records)
        }
        SlotDriver::Logged(e) => {
            let (words, stats) = (logs[e].words.iter(), logs[e].stats);
            walk(walker, LoggedSlots { words, stats }, compiled, records)
        }
    }
}

/// Each of `members`' lanes' own walk — a group of one, its member
/// inline — as `walker` builds it from a lane of the group's kind.
fn lone_walkers<M>(
    lanes: &[GangLane],
    members: &[usize],
    walker: impl Fn(&GangLane) -> Option<Walk<M, [M; 1]>>,
) -> Vec<Walk<M, [M; 1]>> {
    let lone = |&i: &usize| walker(&lanes[i]).expect("a walk group's lanes share one kind");
    members.iter().map(lone).collect()
}

/// What a walk group's walk reads beside its lanes.
struct GroupWalk<'a> {
    /// Its table and driver; none for global history.
    table: Option<(HrtConfig, SlotDriver)>,
    logs: &'a [ProbeLog],
    resolver: &'a mut SiteResolver,
    compiled: &'a CompiledTrace,
    /// Each member's guess record, where a derived lane reads it.
    records: &'a mut [Option<Vec<u64>>],
}

impl GroupWalk<'_> {
    /// Walks the group whose lanes' own walks are `lone`: a lone lane
    /// its own walk, its member inline, two or more their walks joined
    /// into one.
    fn join<M: Member>(self, mut lone: Vec<Walk<M, [M; 1]>>) -> (Vec<u64>, HrtStats) {
        if lone.len() == 1 {
            let mut walker = lone.pop().expect("a lone lane's walk");
            self.walk(&mut walker)
        } else {
            self.walk(&mut Walk::group(lone))
        }
    }

    /// Walks `walker` over the group's table's slots, or over no table.
    fn walk<M: Member, Ms: AsRef<[M]> + AsMut<[M]>>(
        self,
        walker: &mut Walk<M, Ms>,
    ) -> (Vec<u64>, HrtStats) {
        let (compiled, records) = (self.compiled, self.records);
        match self.table {
            Some((hrt, driver)) => walk_table(
                walker,
                hrt,
                driver,
                self.logs,
                self.resolver,
                compiled,
                records,
            ),
            None => walk(walker, NoSlots, compiled, records),
        }
    }
}

/// Walks `group` of `lanes` with its table's slots from its driver,
/// recording each member's guesses into its entry of `guesses` where a
/// derived lane reads them. Returns each member's correct count; the
/// members of a group with a table adopt what the walk counted. The
/// lanes' own predictor state goes stale: the walk keeps its own, and
/// only the counts and adopted statistics are observable.
fn walk_group(
    lanes: &mut [GangLane],
    group: &WalkGroup,
    logs: &[ProbeLog],
    resolver: &mut SiteResolver,
    compiled: &CompiledTrace,
    guesses: &mut [Option<Vec<u64>>],
) -> Vec<u64> {
    let members = &group.members[..];
    let lead = &lanes[members[0]];
    let table = lead.hrt_config().zip(group.driver);
    let slots = table.map_or(0, |(hrt, _)| table_slots(hrt, compiled));
    let mut records: Vec<Option<Vec<u64>>> = members.iter().map(|&i| guesses[i].take()).collect();
    let walk_of = GroupWalk {
        table,
        logs,
        resolver,
        compiled,
        records: &mut records,
    };
    let (correct, probe_stats) = match lead.level_one() {
        Some(LevelOne::TwoLevel { .. }) => {
            walk_of.join(lone_walkers(lanes, members, |lane| match lane {
                GangLane::TwoLevel(p) => Some(p.walker(slots)),
                _ => None,
            }))
        }
        Some(LevelOne::Pattern(_)) => {
            let lone = lone_walkers(lanes, members, |lane| match lane {
                GangLane::Variant(p) => Some(p.walker(slots, walk_of.resolver)),
                GangLane::Gshare(p) => Some(p.walker(walk_of.resolver)),
                _ => None,
            });
            walk_of.join(lone)
        }
        Some(LevelOne::StaticTraining(_)) => {
            walk_of.join(lone_walkers(lanes, members, |lane| match lane {
                GangLane::StaticTraining(p) => Some(p.walker(slots)),
                _ => None,
            }))
        }
        Some(LevelOne::LeeSmith(_)) => {
            walk_of.join(lone_walkers(lanes, members, |lane| match lane {
                GangLane::LeeSmith(p) => Some(p.walker(slots)),
                _ => None,
            }))
        }
        // No fresh twins: the tournament's own components walk apart,
        // recording their guesses, and its chooser steps over them.
        None => {
            let (GangLane::Tournament(t), Some((hrt, driver))) = (&mut lanes[members[0]], table)
            else {
                unreachable!("only a tournament with a table walks outside a group kind");
            };
            let GroupWalk {
                resolver, records, ..
            } = walk_of;
            debug_assert!(
                records.iter().all(Option::is_none),
                "only Two-Level and gshare lanes are twins"
            );
            let words = || Some(Vec::with_capacity(compiled.len().div_ceil(64)));
            let mut first = [words()];
            let mut walker = t.first().walker(slots);
            let (first_correct, probe_stats) = walk_table(
                &mut walker,
                hrt,
                driver,
                logs,
                resolver,
                compiled,
                &mut first,
            );
            let mut second = [words()];
            let mut walker = t.second().walker(resolver);
            let (second_correct, _) = walk(&mut walker, NoSlots, compiled, &mut second);
            let [[Some(first)], [Some(second)]] = [first, second] else {
                unreachable!("both components recorded their guesses");
            };
            let components = [
                (&first[..], first_correct[0]),
                (&second[..], second_correct[0]),
            ];
            let correct = derived_correct(t, components, resolver, compiled);
            (vec![correct], probe_stats)
        }
    };
    for (&i, record) in members.iter().zip(records) {
        guesses[i] = record;
        if table.is_some() {
            lanes[i].adopt_probe_stats(probe_stats);
        }
    }
    correct
}

/// A derived tournament's correct count, from its twins' recorded
/// guesses (one bit per event, 64 to a word) and correct counts. Where
/// the twins agree the chooser stays put and the tournament guesses
/// what they guess; at each disagreement exactly one twin is right, so
/// the agreeing events both got right number (first correct + second
/// correct − disagreements) / 2. The chooser then steps at the
/// disagreements alone, in event order.
fn derived_correct(
    tournament: &mut Tournament<TwoLevelAdaptive, Gshare>,
    [(first, first_correct), (second, second_correct)]: [(&[u64], u64); 2],
    resolver: &SiteResolver,
    compiled: &CompiledTrace,
) -> u64 {
    let (sites, outcomes) = (compiled.cond_sites(), compiled.outcomes());
    let differ = first.iter().zip(second).map(|(a, b)| a ^ b);
    let disagreed: u64 = differ
        .clone()
        .map(|bits| u64::from(bits.count_ones()))
        .sum();
    let disagreements = differ.enumerate().flat_map(|(word, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let event = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let second = second[word] >> (event % 64) & 1 != 0;
                (sites[event], second, outcomes.get(event))
            })
        })
    });
    let both_right = (first_correct + second_correct - disagreed) / 2;
    both_right + tournament.replay_chooser(resolver, disagreements)
}

/// Runs `plan` over `compiled`: the one executor behind every walk
/// strategy.
///
/// Every shared engine first probes the stream once into its log. Then
/// each walk group walks the whole stream on its own, in a loop of its
/// own, monomorphized over its member kind and slot source, with its
/// state in one lean walk-local vector: one register per slot (a global
/// register is a table of one slot) stepped once per event, then each
/// member's level two. Lanes never interact, so this group-major order
/// is observably identical to any event-major one. Derived tournaments
/// finish last, from their twins' guesses.
fn execute(
    lanes: &mut [GangLane],
    plan: &WalkPlan,
    compiled: &CompiledTrace,
    dyn_source: Option<&Trace>,
    options: SimOptions,
) -> Vec<SimResult> {
    let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());
    let logs: Vec<ProbeLog> = plan
        .engines
        .iter()
        .map(|&hrt| ProbeLog::probe(hrt, &mut resolver, compiled))
        .collect();
    let mut stats = vec![PredictionStats::default(); lanes.len()];
    // The guesses of every twin a derived lane reads.
    let mut guesses: Vec<Option<Vec<u64>>> = vec![None; lanes.len()];
    let mut derived = 0;
    for &path in &plan.lanes {
        if let LanePath::Derived { first, second } = path {
            derived += 1;
            for twin in [first, second] {
                guesses[twin]
                    .get_or_insert_with(|| Vec::with_capacity(compiled.len().div_ceil(64)));
            }
        }
    }
    metrics::add(Counter::LanesDerived, derived);
    let grouped = plan
        .groups
        .iter()
        .map(|g| g.members.len())
        .filter(|&n| n >= 2);
    metrics::add(Counter::LanesGrouped, grouped.sum::<usize>() as u64);
    for group in &plan.groups {
        let correct = walk_group(lanes, group, &logs, &mut resolver, compiled, &mut guesses);
        for (&i, correct) in group.members.iter().zip(correct) {
            stats[i].predicted += compiled.len() as u64;
            stats[i].correct += correct;
        }
    }
    for ((lane, stat), &path) in lanes.iter_mut().zip(&mut stats).zip(&plan.lanes) {
        match (lane, path) {
            // A profile lane's bits are frozen, so its score over the
            // stream is a per-site weighted sum — identical to
            // recording every event, with no per-event work at all.
            (GangLane::Profile(p), LanePath::ClosedForm) => {
                p.bind_sites(&resolver);
                for ((&bit, &taken_n), &n) in p
                    .site_bits()
                    .iter()
                    .zip(compiled.site_taken())
                    .zip(compiled.site_counts())
                {
                    stat.predicted += n;
                    stat.correct += if bit { taken_n } else { n - taken_n };
                }
            }
            (GangLane::Fixed(rule), LanePath::ClosedForm) => {
                stat.predicted += compiled.len() as u64;
                stat.correct += rule.correct(compiled);
            }
            // Dyn lanes take the record stream they have always seen; a
            // lane observes only its own predict/update sequence, so a
            // pass of its own changes nothing for any lane.
            (GangLane::Dyn(p), LanePath::Dyn) => {
                let trace = dyn_source.expect("dyn lanes need the record stream");
                for branch in trace.iter().filter(|b| b.class == BranchClass::Conditional) {
                    stat.record(p.predict_update(branch) == branch.taken);
                }
            }
            _ => {}
        }
    }
    // Derived lanes last: their twins' counts and table statistics are
    // final by now.
    for (i, &path) in plan.lanes.iter().enumerate() {
        let LanePath::Derived { first, second } = path else {
            continue;
        };
        let GangLane::TwoLevel(twin) = &lanes[first] else {
            unreachable!("a tournament's first twin is a Two-Level lane");
        };
        let twin_stats = twin.hrt_stats();
        let GangLane::Tournament(tournament) = &mut lanes[i] else {
            unreachable!("only tournaments derive");
        };
        let recorded = |twin: usize| {
            let guesses = guesses[twin].as_ref().expect("twins record their guesses");
            (guesses.as_slice(), stats[twin].correct)
        };
        let twins = [recorded(first), recorded(second)];
        let correct = derived_correct(tournament, twins, &resolver, compiled);
        stats[i].predicted += compiled.len() as u64;
        stats[i].correct += correct;
        tournament.adopt_probe_stats(twin_stats);
    }
    // The RAS is predictor-independent; the compiler carried its
    // push/verify events in record order.
    let mut ras = ReturnAddressStack::new(options.ras_entries.max(1));
    for event in compiled.ras_events() {
        match *event {
            RasEvent::Verify { target } => {
                ras.predict_and_verify(target);
            }
            RasEvent::Push { return_addr } => ras.push(return_addr),
        }
    }
    let ras = ras.stats();
    stats
        .into_iter()
        .map(|conditional| SimResult { conditional, ras })
        .collect()
}

/// Simulates every lane over a compiled event stream. Returns one
/// [`SimResult`] per lane, in lane order.
///
/// Every lane observes exactly the predict → score → update sequence
/// it would alone; returns and calls drive one shared return-address
/// stack whose stats are replicated into every result (RAS behaviour is
/// predictor-independent). Monomorphized lanes are fed from `compiled`
/// alone — each walk group of scalar lanes walking the stream over the
/// slot source the walk's plan picks for it, and closed-form scores.
/// `dyn_source` supplies the raw record stream for [`GangLane::Dyn`]
/// lanes, which [`GangLane::from_config`] never builds: the sweep path
/// passes `None`, so a TLA3 cache entry decodes straight into
/// `compiled` and the records are never materialized. Results are
/// bit-identical to [`gang_simulate_records`], which is pinned by tests
/// and kept as the reference walk.
///
/// Every lane must be fresh: as built, never yet stepped. Each walk
/// starts from the lane's initial state (its probes from a fresh probe
/// state), and a tournament beside twins of its components takes their
/// guesses for its components' (see the module docs), which holds only
/// when all of them start from the same state. Afterwards only a lane's
/// counts and table statistics are meaningful: the walk kept its state
/// apart.
///
/// # Panics
///
/// Panics if a [`GangLane::Dyn`] lane is present and `dyn_source` is
/// `None`.
pub fn gang_simulate_compiled(
    lanes: &mut [GangLane],
    compiled: &CompiledTrace,
    dyn_source: Option<&Trace>,
    options: SimOptions,
) -> Vec<SimResult> {
    metrics::bump(Counter::TraceWalks);
    let _span = metrics::span(Phase::GangWalk);
    execute(lanes, &plan(lanes), compiled, dyn_source, options)
}

/// The reference gang walk: every lane — monomorphized or dyn — is fed
/// straight from the raw [`BranchRecord`] stream, with no compile
/// step. [`gang_simulate_compiled`] must stay bit-identical to this
/// function under every walk plan (pinned by tests); the `gang_inner`
/// micro-benchmark measures the two walks against each other.
pub fn gang_simulate_records(
    lanes: &mut [GangLane],
    trace: &Trace,
    options: SimOptions,
) -> Vec<SimResult> {
    metrics::bump(Counter::TraceWalks);
    let _span = metrics::span(Phase::GangWalk);
    let mut stats = vec![PredictionStats::default(); lanes.len()];
    let mut ras = ReturnAddressStack::new(options.ras_entries.max(1));
    for branch in trace.iter() {
        match branch.class {
            BranchClass::Conditional => {
                for (lane, stat) in lanes.iter_mut().zip(stats.iter_mut()) {
                    let guess = lane.predict_update(branch);
                    stat.record(guess == branch.taken);
                }
            }
            BranchClass::Return => {
                ras.predict_and_verify(branch.target);
            }
            _ => {}
        }
        if branch.call {
            ras.push(branch.fall_through());
        }
    }
    let ras = ras.stats();
    stats
        .into_iter()
        .map(|conditional| SimResult { conditional, ras })
        .collect()
}

/// The outcome of one lane of an isolated gang walk.
///
/// `None` = the lane was not applicable (the builder returned `None`,
/// e.g. Diff training without a training set); `Some(Ok)` = simulated;
/// `Some(Err)` = the lane's build or simulation panicked and the panic
/// was contained.
pub type IsolatedLane = Option<Result<SimResult, CellPanic>>;

/// [`gang_simulate_compiled`] with per-lane panic isolation, over a
/// compiled stream and — only when some lane is a [`GangLane::Dyn`] —
/// its record source.
///
/// `build(i)` constructs lane `i` (or `None` when the configuration is
/// not applicable to this trace — the paper's Table 3 exclusions); it
/// must be pure, because it is called again if the walk has to be
/// retried. The fast path is one shared walk. If any lane panics —
/// during build or mid-walk — the panic is caught and only the
/// offending lane fails:
///
/// * a panic at *build* time fails that lane alone; the others proceed
///   with the shared walk;
/// * a panic *mid-walk* poisons the shared pass (lanes are part-way
///   through the trace), so every built lane is re-run solo under its
///   own `catch_unwind` — predictors are deterministic, so surviving
///   lanes reproduce their shared-walk results bit-for-bit (the
///   identity `gang == solo` is pinned by tests), and the panicking
///   lane fails again, deterministically, in isolation.
pub fn gang_simulate_isolated_compiled<F>(
    n_lanes: usize,
    build: F,
    compiled: &CompiledTrace,
    dyn_source: Option<&Trace>,
) -> Vec<IsolatedLane>
where
    F: Fn(usize) -> Option<GangLane>,
{
    let walk = |lanes: &mut [GangLane]| {
        gang_simulate_compiled(lanes, compiled, dyn_source, SimOptions::default())
    };
    let mut outcomes: Vec<IsolatedLane> = Vec::with_capacity(n_lanes);
    let (mut lanes, mut lane_of) = (Vec::new(), Vec::new());
    for i in 0..n_lanes {
        match catch_cell(|| build(i)) {
            Ok(Some(lane)) => {
                lanes.push(lane);
                lane_of.push(i);
                outcomes.push(None); // filled in below
            }
            Ok(None) => outcomes.push(None),
            Err(panic) => outcomes.push(Some(Err(panic))),
        }
    }
    match catch_cell(|| walk(&mut lanes)) {
        Ok(results) => {
            for (&i, result) in lane_of.iter().zip(results) {
                outcomes[i] = Some(Ok(result));
            }
        }
        Err(walk_panic) => {
            eprintln!(
                "warning: gang walk panicked ({}); re-running {} lane(s) in isolation",
                walk_panic.message,
                lane_of.len()
            );
            for &i in &lane_of {
                metrics::bump(Counter::SoloReruns);
                outcomes[i] = catch_cell(|| {
                    build(i).map(|lane| walk(&mut [lane]).pop().expect("one result per lane"))
                })
                .transpose();
            }
        }
    }
    outcomes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::TrainingData;
    use crate::engine::simulate_with;
    use tlat_core::{AutomatonKind, GshareConfig};
    use tlat_workloads::SyntheticStream;

    fn sweep() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same),
            SchemeConfig::Btfn,
            SchemeConfig::Profile,
        ]
    }

    /// A small, eviction-heavy two-way associative organization.
    const SMALL: HrtConfig = HrtConfig::Associative {
        entries: 16,
        ways: 2,
    };

    /// Every configuration's lane, trained on `trace`.
    fn lanes_for(configs: &[SchemeConfig], trace: &Trace) -> Vec<GangLane> {
        configs
            .iter()
            .map(|c| GangLane::from_config(c, Some(trace)))
            .collect()
    }

    /// The compiled walk over `trace`'s stream, as the harness runs it.
    fn walk(lanes: &mut [GangLane], trace: &Trace, options: SimOptions) -> Vec<SimResult> {
        gang_simulate_compiled(lanes, &CompiledTrace::compile(trace), Some(trace), options)
    }

    /// A lane's adopted table statistics, where it has a table. (A
    /// tournament's Two-Level component counts a re-ask per event on
    /// the record path and reports no statistics of its own.)
    fn table_stats(lane: &GangLane) -> Option<HrtStats> {
        match lane {
            GangLane::TwoLevel(p) => Some(p.hrt_stats()),
            GangLane::LeeSmith(p) => Some(p.table_stats()),
            GangLane::StaticTraining(p) => Some(p.hrt_stats()),
            GangLane::Variant(p) => p.hrt_config().map(|_| p.hrt_stats()),
            GangLane::Gshare(_)
            | GangLane::Tournament(_)
            | GangLane::Profile(_)
            | GangLane::Fixed(_)
            | GangLane::Dyn(_) => None,
        }
    }

    /// Asserts that `lanes`, after a walk that produced `results`,
    /// report exactly what the record reference walk reports over
    /// `trace` — results and adopted table statistics alike.
    fn assert_matches_records(
        what: &str,
        configs: &[SchemeConfig],
        trace: &Trace,
        options: SimOptions,
        lanes: &[GangLane],
        results: &[SimResult],
    ) {
        let mut record_lanes = lanes_for(configs, trace);
        let records = gang_simulate_records(&mut record_lanes, trace, options);
        assert_eq!(results.len(), records.len(), "{what}");
        for (i, config) in configs.iter().enumerate() {
            let label = config.label();
            assert_eq!(
                results[i].conditional, records[i].conditional,
                "{what}: {label}"
            );
            assert_eq!(results[i].ras, records[i].ras, "{what}: {label}");
            assert_eq!(
                table_stats(&lanes[i]),
                table_stats(&record_lanes[i]),
                "{what}: {label} table stats"
            );
        }
    }

    /// Runs the compiled walk over `configs` and asserts it matches the
    /// record reference walk.
    fn assert_walk_matches_records(configs: &[SchemeConfig], trace: &Trace, options: SimOptions) {
        let mut lanes = lanes_for(configs, trace);
        let results = walk(&mut lanes, trace, options);
        assert_matches_records("compiled walk", configs, trace, options, &lanes, &results);
    }

    #[test]
    fn gang_matches_per_config_simulation_exactly() {
        let trace = SyntheticStream::mixed(0x5eed, 48).generate(5_000);
        let options = SimOptions { ras_entries: 16 };
        let configs = sweep();
        let mut lanes = lanes_for(&configs, &trace);
        let ganged = walk(&mut lanes, &trace, options);
        for (config, gang_result) in configs.iter().zip(&ganged) {
            let mut solo = config.build(Some(&trace));
            let solo_result = simulate_with(solo.as_mut(), &trace, options);
            assert_eq!(
                gang_result.conditional,
                solo_result.conditional,
                "{} diverged from the single-predictor engine",
                config.label()
            );
            assert_eq!(gang_result.ras, solo_result.ras, "{}", config.label());
        }
    }

    #[test]
    fn record_free_compiled_walk_matches_the_reference() {
        // The streaming path hands the walk a compiled stream and no
        // record trace at all; for every streamable lane kind the
        // results must still be bit-identical to the record reference.
        let trace = SyntheticStream::mixed(0xfeed, 32).generate(6_000);
        let compiled = CompiledTrace::compile(&trace);
        let options = SimOptions { ras_entries: 16 };
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::st(HrtConfig::ahrt(512), 12, TrainingData::Same),
            SchemeConfig::Profile,
        ];
        let mut lanes = lanes_for(&configs, &trace);
        let free = gang_simulate_compiled(&mut lanes, &compiled, None, options);
        assert_matches_records("record-free walk", &configs, &trace, options, &lanes, &free);
    }

    #[test]
    fn compiled_walk_matches_record_walk_bit_for_bit() {
        // The tentpole identity: the compiled event-stream inner loop
        // must be observably indistinguishable from the raw-record
        // reference walk, for every lane kind at once.
        let trace = SyntheticStream::mixed(0xc0de, 64).generate(8_000);
        assert_walk_matches_records(&sweep(), &trace, SimOptions { ras_entries: 8 });
    }

    /// Every Two-Level and LS organization, one lane each.
    fn organizations() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(64), 8, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::hhrt(32), 6, AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(32), AutomatonKind::A4),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::LastTime),
        ]
    }

    #[test]
    fn compiled_walk_covers_every_hrt_organization() {
        let trace = SyntheticStream::mixed(0xfeed, 96).generate(6_000);
        assert_walk_matches_records(&organizations(), &trace, SimOptions::default());
    }

    #[test]
    fn dyn_lanes_match_the_record_walk() {
        // A caller's own boxed predictor rides the compiled walk on the
        // record stream it is handed.
        let trace = SyntheticStream::mixed(0xd1, 16).generate(2_000);
        let configs = vec![
            SchemeConfig::Btfn,
            SchemeConfig::AlwaysTaken,
            SchemeConfig::Gshare(GshareConfig::default_12bit()),
        ];
        let mut lanes: Vec<GangLane> = configs
            .iter()
            .map(|c| GangLane::Dyn(c.build(Some(&trace))))
            .collect();
        let options = SimOptions::default();
        let results = walk(&mut lanes, &trace, options);
        assert_matches_records("dyn lanes", &configs, &trace, options, &lanes, &results);
    }

    #[test]
    fn every_scheme_gets_a_monomorphized_lane() {
        let trace = Trace::new();
        let specs = crate::experiment::sweep_specs();
        let configs = specs
            .iter()
            .flat_map(|spec| spec.configs.iter())
            .chain(&crate::config::table2())
            .chain(&[SchemeConfig::AlwaysNotTaken])
            .cloned()
            .collect::<Vec<_>>();
        for lane in lanes_for(&configs, &trace) {
            assert!(!matches!(lane, GangLane::Dyn(_)), "{lane:?} is boxed");
        }
        let lanes = lanes_for(&sweep(), &trace);
        assert!(matches!(lanes[3], GangLane::Fixed(FixedRule::Btfn)));
        // Lane names still come through for diagnostics.
        assert!(lanes[0].name().starts_with("AT("));
        assert!(format!("{:?}", lanes[1]).contains("LS("));
        assert!(lanes[2].name().starts_with("ST("));
        assert_eq!(lanes[3].name(), "Btfn");
        assert_eq!(lanes[4].name(), "Profile");
    }

    #[test]
    fn btfn_scores_escaped_targets_in_closed_form() {
        // One pc alternates a backward and a forward target, so every
        // other event deviates from its site template and rides a TLA3
        // ESC packet; the streaming decoder must count BTFN exactly as
        // compiling the records does, and the closed-form score must
        // equal the record walk's.
        let mut trace = Trace::new();
        for i in 0..900u32 {
            let target = if i % 2 == 0 { 0x0800 } else { 0x1800 };
            trace.push(BranchRecord::conditional(0x1000, target, i % 3 != 0));
            trace.push(BranchRecord::conditional(0x2000, 0x1f00, i % 5 != 0));
        }
        let compiled = CompiledTrace::compile(&trace);
        let decoded = tlat_trace::packet::decode_compiled(&tlat_trace::packet::encode(&trace))
            .expect("TLA3 round trip");
        assert_eq!(decoded, compiled);
        let configs = [SchemeConfig::Btfn];
        let options = SimOptions::default();
        let mut lanes = lanes_for(&configs, &trace);
        let closed = gang_simulate_compiled(&mut lanes, &decoded, None, options);
        assert_matches_records(
            "closed-form BTFN",
            &configs,
            &trace,
            options,
            &lanes,
            &closed,
        );
    }

    #[test]
    fn empty_gang_walks_without_results() {
        let trace = SyntheticStream::mixed(1, 4).generate(100);
        let compiled = CompiledTrace::compile(&trace);
        assert!(gang_simulate_compiled(&mut [], &compiled, None, SimOptions::default()).is_empty());
        assert!(gang_simulate_records(&mut [], &trace, SimOptions::default()).is_empty());
    }

    /// A predictor that panics after `fuse` conditional branches —
    /// stands in for a lane with a latent bug.
    struct ShortFuse {
        fuse: usize,
        seen: usize,
    }

    impl Predictor for ShortFuse {
        fn name(&self) -> String {
            "ShortFuse".to_owned()
        }
        fn predict(&mut self, _branch: &BranchRecord) -> bool {
            self.seen += 1;
            assert!(self.seen <= self.fuse, "short fuse blew at {}", self.seen);
            true
        }
        fn update(&mut self, _branch: &BranchRecord) {}
    }

    fn solo_reference(config: &SchemeConfig, trace: &Trace) -> SimResult {
        let mut lanes = lanes_for(std::slice::from_ref(config), trace);
        gang_simulate_records(&mut lanes, trace, SimOptions::default())
            .pop()
            .unwrap()
    }

    #[test]
    fn isolated_walk_contains_a_build_panic() {
        let trace = SyntheticStream::mixed(0xabc, 32).generate(2_000);
        let compiled = CompiledTrace::compile(&trace);
        let configs = sweep();
        let outcomes = gang_simulate_isolated_compiled(
            configs.len(),
            |i| {
                if i == 1 {
                    panic!("injected build failure");
                }
                Some(GangLane::from_config(&configs[i], Some(&trace)))
            },
            &compiled,
            Some(&trace),
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 1 {
                let err = outcome.as_ref().unwrap().as_ref().unwrap_err();
                assert!(err.message.contains("injected build failure"));
            } else {
                let got = outcome.as_ref().unwrap().as_ref().unwrap();
                assert_eq!(
                    got.conditional,
                    solo_reference(&configs[i], &trace).conditional,
                    "surviving lane {i} must match its solo run"
                );
            }
        }
    }

    #[test]
    fn isolated_walk_recovers_from_a_mid_walk_panic() {
        let trace = SyntheticStream::mixed(0xdef, 32).generate(2_000);
        let compiled = CompiledTrace::compile(&trace);
        let configs = sweep();
        // Lane 2 blows up after 100 branches *inside the shared walk*;
        // the fallback re-runs every lane solo.
        let outcomes = gang_simulate_isolated_compiled(
            configs.len(),
            |i| {
                if i == 2 {
                    Some(GangLane::Dyn(Box::new(ShortFuse { fuse: 100, seen: 0 })))
                } else {
                    Some(GangLane::from_config(&configs[i], Some(&trace)))
                }
            },
            &compiled,
            Some(&trace),
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let err = outcome.as_ref().unwrap().as_ref().unwrap_err();
                assert!(err.message.contains("short fuse"), "{}", err.message);
            } else {
                let got = outcome.as_ref().unwrap().as_ref().unwrap();
                assert_eq!(
                    got.conditional,
                    solo_reference(&configs[i], &trace).conditional,
                    "lane {i} must survive a neighbour's mid-walk panic bit-for-bit"
                );
            }
        }
    }

    #[test]
    fn isolated_walk_keeps_not_applicable_lanes_blank() {
        let trace = SyntheticStream::mixed(0x11, 8).generate(500);
        let compiled = CompiledTrace::compile(&trace);
        let configs = sweep();
        let outcomes = gang_simulate_isolated_compiled(
            3,
            |i| {
                if i == 1 {
                    None // e.g. Diff training without a training set
                } else {
                    Some(GangLane::from_config(&configs[i], Some(&trace)))
                }
            },
            &compiled,
            None,
        );
        assert!(outcomes[0].as_ref().unwrap().is_ok());
        assert!(outcomes[1].is_none());
        assert!(outcomes[2].as_ref().unwrap().is_ok());
    }

    /// LS lanes on every organization beside an AT lane: five automata
    /// on the paper AHRT, pairs on ideal / hashed / a small
    /// eviction-heavy associative table, and one LS lane alone on
    /// ahrt(256). Each organization's LS lanes walk as one group. The
    /// paper AHRT's LS group and AT lane are its two consumers, so they
    /// read one engine's probe log; the small table's pair and the
    /// ahrt(256) lane are their geometries' only consumers and probe
    /// inline.
    fn ls_lanes_on_every_organization() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A1),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A4),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::A4),
            SchemeConfig::ls(SMALL, AutomatonKind::A2),
            SchemeConfig::ls(SMALL, AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::ahrt(256), AutomatonKind::A2), // alone on its table
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        ]
    }

    #[test]
    fn ls_lanes_match_the_record_walk_across_organizations() {
        let trace = SyntheticStream::mixed(0xb175, 80).generate(6_000);
        let configs = ls_lanes_on_every_organization();
        let plan = plan(&lanes_for(&configs, &trace));
        assert_eq!(plan.engines, [HrtConfig::ahrt(512)]);
        use SlotDriver::{Hashed, Ideal, Logged, Private};
        let expected = [
            group(&[0, 1, 2, 3, 4], Logged(0)),
            group(&[5, 6], Ideal),
            group(&[7, 8], Hashed),
            group(&[9, 10], Private),
            group(&[11], Private),
            group(&[12], Logged(0)),
        ];
        assert_eq!(plan.groups, expected);
        assert_eq!(plan.lanes, grouped([0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5]));
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// A trace shaped like nested loops: each visit to a site emits a
    /// burst of consecutive events there, with the outcome flipping
    /// near the burst's end (a loop exit) so runs of both directions
    /// straddle word boundaries in the outcome bitvec. Most bursts are
    /// short, 2–8 events; every third is a long loop of 18–46, half of
    /// them not-taken until the exit, whose same-outcome run outlasts
    /// every sweep lane's bound (history bits + 3, at most 15), so
    /// walks collapse it. Site `s` branches at `base + 4 s`.
    fn loop_heavy_trace_at(base: u32, events: usize) -> Trace {
        let sites = 48u32;
        let mut trace = Trace::with_capacity(events);
        let mut t = 0usize;
        while trace.len() < events {
            let site = ((t * 7 + t / 11) % sites as usize) as u32;
            let pc = base + site * 4;
            let long = t.is_multiple_of(3);
            let burst = if long { 18 + t % 29 } else { 2 + t % 7 };
            let exit_at = burst - 1 - t % 2;
            let falls_through = long && t % 2 == 1;
            for k in 0..burst {
                let taken = (k < exit_at) != falls_through;
                trace.push(BranchRecord::conditional(pc, pc + 0x40, taken));
            }
            t += 1;
        }
        trace
    }

    fn loop_heavy_trace(events: usize) -> Trace {
        loop_heavy_trace_at(0x2000, events)
    }

    /// A reinit-on-replace AT lane beside LS lanes that inherit replaced
    /// slots: it and the paper AHRT's group of four LS lanes read one
    /// probe log, and the tiny 2-way table's pair, which forces
    /// evictions and refills mid-stream, walks as one group probing
    /// inline.
    fn ls_lanes_beside_a_reinit_lane() -> Vec<SchemeConfig> {
        vec![
            at_full(
                HrtConfig::ahrt(512),
                12,
                AutomatonKind::A2,
                true,
                true,
                false,
            ),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A1),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A4),
            SchemeConfig::ls(SMALL, AutomatonKind::A2),
            SchemeConfig::ls(SMALL, AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A4),
        ]
    }

    #[test]
    fn mixed_gangs_on_loop_heavy_streams_read_the_slot_log() {
        // The shared engine logs each probe once, and both of its
        // groups read the logged slots, fills and replacements included:
        // the AT lane re-initializes a replaced slot, the LS lanes
        // inherit it. Still bit-identical.
        let trace = loop_heavy_trace(6_000);
        let configs = ls_lanes_beside_a_reinit_lane();
        let plan = plan(&lanes_for(&configs, &trace));
        assert_eq!(plan.engines, [HrtConfig::ahrt(512)]);
        use SlotDriver::{Ideal, Logged, Private};
        let expected = [
            group(&[0], Logged(0)),
            group(&[1, 2, 3, 4], Logged(0)),
            group(&[5, 6], Private),
            group(&[7, 8], Ideal),
        ];
        assert_eq!(plan.groups, expected);
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// Nothing but LS lanes, two or more on each organization: each
    /// organization's lanes walk as one group, its only consumer, so no
    /// associative geometry gets a shared engine.
    fn ls_only() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A1),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A4),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::LastTime),
            SchemeConfig::ls(SMALL, AutomatonKind::A2),
            SchemeConfig::ls(SMALL, AutomatonKind::A4),
        ]
    }

    #[test]
    fn ls_only_gangs_walk_one_group_per_geometry() {
        let trace = SyntheticStream::mixed(0x517e, 64).generate(6_000);
        let configs = ls_only();
        let plan = plan(&lanes_for(&configs, &trace));
        assert!(plan.engines.is_empty());
        use SlotDriver::{Hashed, Ideal, Private};
        let expected = [
            group(&[0, 1, 2, 3, 4], Private),
            group(&[5, 6], Ideal),
            group(&[7, 8], Hashed),
            group(&[9, 10], Private),
        ];
        assert_eq!(plan.groups, expected);
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn wide_ls_gangs_walk_as_one_group() {
        // 65 same-geometry LS lanes, more than one word of lanes: they
        // walk as one group, probing inline, each slot holding all 65
        // automata.
        let trace = SyntheticStream::mixed(0x65, 24).generate(2_000);
        let kinds = AutomatonKind::ALL;
        let configs: Vec<SchemeConfig> = (0..65)
            .map(|i| SchemeConfig::ls(HrtConfig::ahrt(512), kinds[i % kinds.len()]))
            .collect();
        let plan = plan(&lanes_for(&configs, &trace));
        assert!(plan.engines.is_empty());
        let members: Vec<usize> = (0..65).collect();
        assert_eq!(plan.groups, [group(&members, SlotDriver::Private)]);
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    /// Trained on a loop of 12 taken events then one not-taken, a
    /// 12-bit ST lane presets the all-ones pattern not-taken. On a loop
    /// of 40 taken then one not-taken its register saturates 12 events
    /// into each run, and the other 28 taken events all guess
    /// not-taken: a walk that credited a run's tail would score them
    /// correct.
    #[test]
    fn static_training_tails_score_presets_set_against_the_run() {
        let loop_of = |trips: usize| -> Trace {
            (0..50)
                .flat_map(|_| {
                    (0..=trips).map(move |k| BranchRecord::conditional(0x1000, 0x0f00, k < trips))
                })
                .collect()
        };
        let (train, test) = (loop_of(12), loop_of(40));
        let compiled = CompiledTrace::compile(&test);
        for hrt in [HrtConfig::Ideal, HrtConfig::hhrt(8), HrtConfig::ahrt(512)] {
            let config = SchemeConfig::st(hrt, 12, TrainingData::Diff);
            let lane = || vec![GangLane::from_config(&config, Some(&train))];
            let mut walked = lane();
            let GangLane::StaticTraining(st) = &walked[0] else {
                unreachable!("an ST configuration builds an ST lane");
            };
            assert!(!st.preset(0xfff), "the profile presets all-ones not-taken");
            let options = SimOptions::default();
            let results = gang_simulate_compiled(&mut walked, &compiled, None, options);
            let mut reference = lane();
            let records = gang_simulate_records(&mut reference, &test, options);
            assert_eq!(results[0].conditional, records[0].conditional, "{hrt}");
            assert_eq!(results[0].ras, records[0].ras, "{hrt}");
            assert_eq!(table_stats(&walked[0]), table_stats(&reference[0]), "{hrt}");
        }
    }

    /// A generated stream of bursts `(site, taken, exits)`: `taken`
    /// taken events then `exits` not-taken ones at one site. Taken runs
    /// of up to 200 events cross 64-bit words, and exits of up to 8
    /// give not-taken runs past every automaton's convergence and the
    /// long-run floor.
    fn burst_stream(bursts: &[(u32, usize, usize)]) -> Trace {
        let mut trace = Trace::new();
        for &(site, taken, exits) in bursts {
            let pc = 0x1000 + site * 4;
            for k in 0..taken + exits {
                trace.push(BranchRecord::conditional(pc, pc + 0x40, k < taken));
            }
        }
        trace
    }

    /// Random bursts for [`burst_stream`], at 48 sites.
    fn burst_draws() -> tlat_check::Gen<Vec<(u32, usize, usize)>> {
        use tlat_check::gen;
        let burst = gen::tuple3(
            gen::u32_in(0, 47),
            gen::usize_in(0, 200),
            gen::usize_in(0, 8),
        );
        gen::vec_of(burst, 1, 120)
    }

    /// An AT configuration with the ablation flags spelled out, for
    /// exercising the lane mixes the `at` convenience hides.
    fn at_full(
        hrt: HrtConfig,
        history_bits: u8,
        automaton: AutomatonKind,
        cached: bool,
        reinit: bool,
        init_nt: bool,
    ) -> SchemeConfig {
        SchemeConfig::TwoLevel(tlat_core::TwoLevelConfig {
            history_bits,
            automaton,
            hrt,
            cached_prediction: cached,
            reinit_on_replace: reinit,
            init_not_taken: init_nt,
        })
    }

    /// Two-Level lanes on every organization: on the paper AHRT a group
    /// mixing automaton variants, three history lengths, §3.2 caching vs
    /// pure two-lookup and init polarity, beside a reinit-on-replace
    /// lane (a group of its own) and an LS pair, the three groups on one
    /// probe log; ideal, hashed and eviction-heavy associative pairs,
    /// each a group; and an ahrt(256) lane alone on its geometry,
    /// probing inline.
    fn at_lane_mix() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::ahrt(512), 8, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::ahrt(512), 6, AutomatonKind::LastTime),
            at_full(
                HrtConfig::ahrt(512),
                6,
                AutomatonKind::A4,
                false,
                false,
                false,
            ),
            at_full(
                HrtConfig::ahrt(512),
                6,
                AutomatonKind::A1,
                true,
                false,
                true,
            ),
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::hhrt(64), 8, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::hhrt(64), 8, AutomatonKind::A4),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A2),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A3),
            at_full(
                HrtConfig::ahrt(512),
                12,
                AutomatonKind::A2,
                true,
                true,
                false,
            ),
            SchemeConfig::at(HrtConfig::ahrt(256), 12, AutomatonKind::A2), // alone: inline probe
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
        ]
    }

    #[test]
    fn at_lane_mixes_match_the_record_walk_on_both_stream_shapes() {
        let configs = at_lane_mix();
        let plan = plan(&lanes_for(&configs, &Trace::new()));
        assert_eq!(plan.engines, [HrtConfig::ahrt(512)]);
        use SlotDriver::{Hashed, Ideal, Logged, Private};
        let expected = [
            group(&[0, 1, 2, 3, 4, 5], Logged(0)),
            group(&[6, 7], Ideal),
            group(&[8, 9], Hashed),
            group(&[10, 11], Private),
            group(&[12], Logged(0)),
            group(&[13], Private),
            group(&[14, 15], Logged(0)),
        ];
        assert_eq!(plan.groups, expected);
        for trace in [
            SyntheticStream::mixed(0xa7b1, 80).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
        }
    }

    /// The eviction-interplay mix: a group of AT lanes on a tiny 2-way
    /// AHRT that churns through fills, hits, and replacements, reading
    /// only the slot decisions of a shared probe log, never tags. A
    /// replaced slot must inherit the victim's history and every
    /// member's cached bit, and a filled slot must re-read each cached
    /// bit from its member's *evolved* pattern table, or predictions
    /// drift; the small table's LS pair, a second group, reads the same
    /// log. The paper AHRT's pair and the lone ahrt(256) lane probe
    /// inline, the lone ideal and hashed lanes take their own slot
    /// sources, and a reinit-on-replace lane rides the ideal table, a
    /// group apart from the ideal lane that inherits.
    fn at_evictions() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A2),
            SchemeConfig::at(SMALL, 6, AutomatonKind::A3),
            at_full(SMALL, 4, AutomatonKind::LastTime, false, false, false),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 10, AutomatonKind::A4),
            SchemeConfig::at(HrtConfig::ahrt(256), 10, AutomatonKind::A3), // lone: inline probe
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A4), // lone: hashed slots
            SchemeConfig::ls(SMALL, AutomatonKind::A2),
            SchemeConfig::ls(SMALL, AutomatonKind::A4),
            at_full(HrtConfig::Ideal, 12, AutomatonKind::A2, true, true, false),
        ]
    }

    #[test]
    fn at_lanes_inherit_replaced_slots_on_a_shared_log() {
        let configs = at_evictions();
        let plan = plan(&lanes_for(&configs, &Trace::new()));
        assert_eq!(plan.engines, [SMALL]);
        use SlotDriver::{Hashed, Ideal, Logged, Private};
        let expected = [
            group(&[0], Ideal),
            group(&[1, 2, 3], Logged(0)),
            group(&[4, 5], Private),
            group(&[6], Private),
            group(&[7], Ideal),
            group(&[8], Hashed),
            group(&[9, 10], Logged(0)),
            group(&[11], Ideal),
        ];
        assert_eq!(plan.groups, expected);
        for trace in [
            SyntheticStream::mixed(0xe71c, 80).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
        }
    }

    /// Nothing but AT lanes, a pair on each organization: each pair
    /// walks as one group, probing inline on the associative tables,
    /// including evictions on the tiny 2-way table.
    fn at_only() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A3),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A2),
            SchemeConfig::at(SMALL, 8, AutomatonKind::LastTime),
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A4),
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A1),
        ]
    }

    #[test]
    fn at_only_gangs_match_the_record_walk_on_both_stream_shapes() {
        for trace in [
            SyntheticStream::mixed(0x9ac7, 64).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            assert_walk_matches_records(&at_only(), &trace, SimOptions { ras_entries: 8 });
        }
    }

    #[test]
    fn wide_at_grids_walk_as_one_group() {
        // 65 same-organization AT lanes, a variant × history-length
        // grid more than a word of lanes wide: they walk as one group,
        // probing inline, each member reading its own low bits of one
        // 12-bit register per slot.
        let kinds = AutomatonKind::ALL;
        let configs: Vec<SchemeConfig> = (0..65)
            .map(|i| {
                SchemeConfig::at(
                    HrtConfig::ahrt(512),
                    4 + (i % 9) as u8,
                    kinds[i % kinds.len()],
                )
            })
            .collect();
        let plan = plan(&lanes_for(&configs, &Trace::new()));
        assert!(plan.engines.is_empty());
        let members: Vec<usize> = (0..65).collect();
        assert_eq!(plan.groups, [group(&members, SlotDriver::Private)]);
        for trace in [
            SyntheticStream::mixed(0xa65, 24).generate(2_000),
            loop_heavy_trace(2_000),
        ] {
            assert_walk_matches_records(&configs, &trace, SimOptions::default());
        }
    }

    #[test]
    fn table_lanes_keep_slots_past_sixteen_bits() {
        // A direct-mapped AHRT of 2^17 sets with every branch past set
        // 65,535: every group must see the full slot, whether it reads
        // the geometry's one shared log or probes inline, and the
        // reinit AT lane a fill only where the probe filled. The ST
        // lane, the LS pair and the AT lane are the geometry's three
        // groups.
        let trace = loop_heavy_trace_at(0x40000, 6_000);
        let wide = HrtConfig::Associative {
            entries: 1 << 17,
            ways: 1,
        };
        let configs = vec![
            SchemeConfig::st(wide, 12, TrainingData::Same),
            SchemeConfig::ls(wide, AutomatonKind::A2),
            SchemeConfig::ls(wide, AutomatonKind::LastTime),
            at_full(wide, 12, AutomatonKind::A2, true, true, false),
        ];
        let lanes = lanes_for(&configs, &trace);
        let chosen = plan(&lanes);
        assert_eq!(chosen.engines, [wide]);
        let logged = SlotDriver::Logged(0);
        let expected = [
            group(&[0], logged),
            group(&[1, 2], logged),
            group(&[3], logged),
        ];
        assert_eq!(chosen.groups, expected);
        let options = SimOptions::default();
        let compiled = CompiledTrace::compile(&trace);
        for forced in [force_drivers(chosen.clone(), &lanes, |_| false), chosen] {
            let mut lanes = lanes_for(&configs, &trace);
            let results = execute(&mut lanes, &forced, &compiled, None, options);
            let what = format!("{forced:?}");
            assert_matches_records(&what, &configs, &trace, options, &lanes, &results);
        }
    }

    /// A walk group of `members` on `driver`.
    fn group(members: &[usize], driver: SlotDriver) -> WalkGroup {
        WalkGroup {
            members: members.to_vec(),
            driver: Some(driver),
        }
    }

    /// The paths of lanes that each walk in group `groups[i]`.
    fn grouped<const N: usize>(groups: [usize; N]) -> Vec<LanePath> {
        groups.into_iter().map(LanePath::Group).collect()
    }

    /// The plan [`plan`] chooses for `lanes` with derivation off: every
    /// tournament walks its own components, as a group of one.
    fn underived(lanes: &[GangLane]) -> WalkPlan {
        let chosen = plan(lanes);
        let mut groups: Vec<Vec<usize>> = chosen.groups.into_iter().map(|g| g.members).collect();
        let paths = (chosen.lanes.into_iter().enumerate())
            .map(|(i, path)| match path {
                LanePath::Derived { .. } => {
                    groups.push(vec![i]);
                    LanePath::Group(groups.len() - 1)
                }
                path => path,
            })
            .collect();
        share(lanes, paths, groups)
    }

    /// `plan` with every walk group split into groups of one: an
    /// associative organization gets a shared engine wherever two or
    /// more lanes then consume it.
    fn solo(plan: WalkPlan, lanes: &[GangLane]) -> WalkPlan {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let paths = (plan.lanes.into_iter().enumerate())
            .map(|(i, path)| match path {
                LanePath::Group(_) => {
                    groups.push(vec![i]);
                    LanePath::Group(groups.len() - 1)
                }
                path => path,
            })
            .collect();
        share(lanes, paths, groups)
    }

    /// The index of `hrt`'s shared engine, added when missing.
    fn engine_for(engines: &mut Vec<HrtConfig>, hrt: HrtConfig) -> usize {
        match engines.iter().position(|&e| e == hrt) {
            Some(e) => e,
            None => {
                engines.push(hrt);
                engines.len() - 1
            }
        }
    }

    /// `plan` with every group on an associative geometry `hrt` reading
    /// that geometry's shared engine's log when `logged(hrt)`, the
    /// engine added where the plan has none, and probing privately
    /// otherwise.
    fn force_drivers(
        mut plan: WalkPlan,
        lanes: &[GangLane],
        logged: impl Fn(HrtConfig) -> bool,
    ) -> WalkPlan {
        for group in &mut plan.groups {
            let hrt = lanes[group.members[0]].hrt_config();
            if let (Some(driver), Some(hrt @ HrtConfig::Associative { .. })) =
                (&mut group.driver, hrt)
            {
                *driver = match logged(hrt) {
                    true => SlotDriver::Logged(engine_for(&mut plan.engines, hrt)),
                    false => SlotDriver::Private,
                };
            }
        }
        plan
    }

    /// Test support: walks fresh `lanes()` over `compiled` under five
    /// rewrites of the plan [`plan`] chooses for them — every group on
    /// an associative table probing privately, every one reading a
    /// shared log (even a lone one), no tournament deriving, and every
    /// group split into groups of one, with collapsing on and forced
    /// off — and returns each rewrite's name with every lane's result
    /// and adopted table statistics.
    pub(crate) fn walks_under_rewritten_plans(
        lanes: impl Fn() -> Vec<GangLane>,
        compiled: &CompiledTrace,
    ) -> Vec<(&'static str, Vec<LaneReport>)> {
        let built = lanes();
        let chosen = plan(&built);
        let rewrites = [
            (
                "private",
                force_drivers(chosen.clone(), &built, |_| false),
                true,
            ),
            (
                "logged",
                force_drivers(chosen.clone(), &built, |_| true),
                true,
            ),
            ("underived", underived(&built), true),
            ("solo", solo(chosen.clone(), &built), true),
            ("solo, collapsing off", solo(chosen, &built), false),
        ];
        rewrites
            .into_iter()
            .map(|(what, plan, collapsing)| {
                let mut walked = lanes();
                let mut walk =
                    || execute(&mut walked, &plan, compiled, None, SimOptions::default());
                let results = match collapsing {
                    true => walk(),
                    false => without_collapsing(walk),
                };
                (what, lane_reports(&results, &walked))
            })
            .collect()
    }

    /// What a walk reports of one lane: its counts, its RAS statistics
    /// and its adopted table statistics.
    pub(crate) type LaneReport = (PredictionStats, tlat_trace::RasStats, Option<HrtStats>);

    /// Test support: every lane's [`LaneReport`] after a walk.
    pub(crate) fn lane_reports(results: &[SimResult], lanes: &[GangLane]) -> Vec<LaneReport> {
        let results = results.iter().map(|r| (r.conditional, r.ras));
        let stats = lanes.iter().map(table_stats);
        results.zip(stats).map(|((c, r), t)| (c, r, t)).collect()
    }

    /// The taxonomy's lanes and the fixed rules beside an AT lane and
    /// an LS lane. Per-address variants and the tournaments ride the
    /// shared engines of the paper AHRT and the small table,
    /// global-history lanes and gshare take the site path, and the
    /// fixed rules score in closed form; per-address variants on the
    /// ideal and hashed tables cover every organization.
    fn taxonomy_and_fixed_rules() -> Vec<SchemeConfig> {
        use tlat_core::VariantConfig;
        use AutomatonKind::{LastTime, A2, A3, A4};
        let ahrt = HrtConfig::ahrt(512);
        vec![
            SchemeConfig::Variant(VariantConfig::gag(12, A2)),
            SchemeConfig::Variant(VariantConfig::gas(10, A3, 16)),
            SchemeConfig::Variant(VariantConfig::pag(12, A2, ahrt)),
            SchemeConfig::Variant(VariantConfig::pas(12, A2, ahrt, 16)),
            SchemeConfig::Variant(VariantConfig::pag(8, A4, SMALL)),
            SchemeConfig::Variant(VariantConfig::pas(6, LastTime, HrtConfig::Ideal, 4)),
            SchemeConfig::Variant(VariantConfig::pas(8, A2, HrtConfig::hhrt(32), 8)),
            SchemeConfig::at(ahrt, 12, A2),
            SchemeConfig::ls(SMALL, A2),
            SchemeConfig::Gshare(GshareConfig::default_12bit()),
            SchemeConfig::Gshare(GshareConfig {
                history_bits: 6,
                automaton: A3,
            }),
            SchemeConfig::Tournament {
                chooser_entries: 1024,
            },
            SchemeConfig::Tournament {
                chooser_entries: 16,
            },
            SchemeConfig::Btfn,
            SchemeConfig::AlwaysTaken,
            SchemeConfig::AlwaysNotTaken,
        ]
    }

    /// Tournaments that lack a pair of fresh twins, so they run whole:
    /// one beside an `AT(…,A3)` and a 10-bit gshare (neither equals its
    /// components), one beside only its AT twin, and one beside only its
    /// gshare twin.
    fn tournaments_without_twin_pairs() -> [Vec<SchemeConfig>; 3] {
        let tournament = SchemeConfig::Tournament {
            chooser_entries: 1024,
        };
        let ahrt = HrtConfig::ahrt(512);
        [
            vec![
                SchemeConfig::at(ahrt, 12, AutomatonKind::A3),
                SchemeConfig::Gshare(GshareConfig {
                    history_bits: 10,
                    automaton: AutomatonKind::A2,
                }),
                tournament.clone(),
            ],
            vec![
                SchemeConfig::at(ahrt, 12, AutomatonKind::A2),
                tournament.clone(),
            ],
            vec![
                tournament,
                SchemeConfig::Gshare(GshareConfig::default_12bit()),
            ],
        ]
    }

    #[test]
    fn tournaments_derive_only_beside_scalar_twins() {
        // The taxonomy's AT lane walks as a group of one on the AHRT
        // engine it shares with the PAg/PAs group, and gshare in the
        // global group with GAg and GAs, on every stream shape, so the
        // tournament derives from the two of them, and rides no engine
        // itself.
        let configs = crate::config::taxonomy();
        let churny = SyntheticStream::mixed(0x7a0, 64).generate(6_000);
        let loopy = loop_heavy_trace(6_000);
        for trace in [&churny, &loopy] {
            let chosen = plan(&lanes_for(&configs, trace));
            let derived = LanePath::Derived {
                first: 4,
                second: 5,
            };
            let mut expected = grouped([0, 0, 1, 1, 2, 0]);
            expected.push(derived);
            assert_eq!(chosen.lanes, expected);
            assert_eq!(chosen.groups[2], group(&[4], SlotDriver::Logged(0)));
            let global = WalkGroup {
                members: vec![0, 1, 5],
                driver: None,
            };
            assert_eq!(chosen.groups[0], global);
            // It scores, and adopts the table statistics, as its whole
            // walk.
            let compiled = CompiledTrace::compile(trace);
            let tournament = |plan: &WalkPlan| {
                let mut lanes = lanes_for(&configs, trace);
                let results = execute(&mut lanes, plan, &compiled, None, SimOptions::default());
                let GangLane::Tournament(t) = &lanes[6] else {
                    unreachable!("the taxonomy's last lane is its tournament");
                };
                (results[6].conditional, t.first().hrt_stats())
            };
            let whole = underived(&lanes_for(&configs, trace));
            assert_eq!(tournament(&chosen), tournament(&whole));
        }
        // Two tournaments may share one pair of twins.
        let mixed = taxonomy_and_fixed_rules();
        let shared = plan(&lanes_for(&mixed, &churny));
        assert_eq!(
            shared.lanes[11],
            LanePath::Derived {
                first: 7,
                second: 9
            }
        );
        assert_eq!(
            shared.lanes[12],
            LanePath::Derived {
                first: 7,
                second: 9
            }
        );
        // Without both twins a tournament runs whole.
        for configs in tournaments_without_twin_pairs() {
            let plan = plan(&lanes_for(&configs, &churny));
            assert!(
                !plan
                    .lanes
                    .iter()
                    .any(|path| matches!(path, LanePath::Derived { .. })),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn every_forced_plan_matches_the_record_walk() {
        // The planner picks one strategy per lane mix; the executor
        // must be exact under all of them. Force each alternative on a
        // loop-heavy and a churny stream, for every lane mix above:
        // the chosen plan, no tournament derived, every group on an
        // associative table private, or every one logged on a shared
        // engine (a lone group, such as the ahrt(256) lane of the AT
        // lane mix, forced onto a shared log, and a group on a shared
        // geometry forced to probe inline), and every group split into
        // groups of one, each with collapsing on and forced off. A
        // derived lane's twins always walk in groups.
        let [unequal_twins, at_twin_only, gshare_twin_only] = tournaments_without_twin_pairs();
        let mixes = [
            sweep(),
            organizations(),
            ls_lanes_on_every_organization(),
            ls_lanes_beside_a_reinit_lane(),
            ls_only(),
            at_lane_mix(),
            at_evictions(),
            at_only(),
            taxonomy_and_fixed_rules(),
            crate::config::taxonomy(),
            unequal_twins,
            at_twin_only,
            gshare_twin_only,
        ];
        let options = SimOptions { ras_entries: 8 };
        for trace in [
            loop_heavy_trace(6_000),
            SyntheticStream::mixed(0xf0ce, 80).generate(6_000),
        ] {
            let compiled = CompiledTrace::compile(&trace);
            for configs in &mixes {
                let lanes = lanes_for(configs, &trace);
                let chosen = plan(&lanes);
                let plans = [
                    ("underived", underived(&lanes)),
                    ("private", force_drivers(chosen.clone(), &lanes, |_| false)),
                    ("logged", force_drivers(chosen.clone(), &lanes, |_| true)),
                    ("solo", solo(chosen.clone(), &lanes)),
                    ("chosen", chosen),
                ];
                for (what, forced) in plans {
                    for &path in &forced.lanes {
                        if let LanePath::Derived { first, second } = path {
                            let walked =
                                |twin: usize| matches!(forced.lanes[twin], LanePath::Group(_));
                            assert!(walked(first) && walked(second), "{what} plan");
                        }
                    }
                    for collapsing in [true, false] {
                        let mut lanes = lanes_for(configs, &trace);
                        let mut walk =
                            || execute(&mut lanes, &forced, &compiled, Some(&trace), options);
                        let results = match collapsing {
                            true => walk(),
                            false => without_collapsing(walk),
                        };
                        let what = format!("{what} plan, collapsing {collapsing}, {forced:?}");
                        assert_matches_records(&what, configs, &trace, options, &lanes, &results);
                    }
                }
            }
        }
    }

    #[test]
    fn fig10_shares_one_log_on_every_stream_shape() {
        // The AT lane, the ST lane and the LS pair are the paper AHRT's
        // three consumers, so they read one probe log, whatever the
        // stream's shape.
        let configs = crate::experiment::sweep_spec("fig10")
            .expect("fig10 is registered")
            .configs;
        let logged = SlotDriver::Logged(0);
        let mut lanes = grouped([0, 1, 2]);
        lanes.extend([LanePath::ClosedForm, LanePath::Group(2)]);
        let expected = WalkPlan {
            lanes,
            groups: vec![
                group(&[0], logged),
                group(&[1], logged),
                group(&[2, 4], logged),
            ],
            engines: vec![HrtConfig::ahrt(512)],
        };
        for trace in [
            SyntheticStream::mixed(0xf10, 64).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            assert_eq!(plan(&lanes_for(&configs, &trace)), expected);
        }
    }

    #[test]
    fn every_sweep_shares_an_engine_where_a_geometry_has_two_consumers() {
        // A geometry's consumers are its walk groups. fig5's and fig7's
        // four AT lanes form one group, fig8's Same/Diff pairs and
        // fig9's LS pairs one per geometry, and fig6 has one lane per
        // geometry, so none of them shares an engine. fig10's AT lane,
        // ST lane and LS pair, and the taxonomy's PAg/PAs pair and AT
        // lane, put two or more groups on the paper AHRT.
        let trace = SyntheticStream::mixed(0x5eed, 32).generate(2_000);
        let ahrt = HrtConfig::ahrt(512);
        for spec in crate::experiment::sweep_specs() {
            let (engines, sizes): (&[HrtConfig], &[usize]) = match spec.name {
                "fig5" | "fig7" => (&[], &[4]),
                "fig6" => (&[], &[1, 1, 1, 1, 1]),
                "fig8" | "fig9" => (&[], &[2, 2, 2]),
                "fig10" => (&[ahrt], &[1, 1, 2]),
                "taxonomy" => (&[ahrt], &[3, 2, 1]),
                name => panic!("no expected engines for sweep {name}"),
            };
            let plan = plan(&lanes_for(&spec.configs, &trace));
            assert_eq!(plan.engines, engines, "{}", spec.name);
            let got: Vec<usize> = plan.groups.iter().map(|g| g.members.len()).collect();
            assert_eq!(got, sizes, "{}", spec.name);
        }
    }

    #[test]
    fn lone_ls_and_st_lanes_probe_privately_beside_other_geometries() {
        // Another geometry's lane does not make a lone LS or ST lane
        // share its probes: each is its geometry's only consumer.
        let configs = [
            SchemeConfig::at(HrtConfig::hhrt(64), 12, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::st(SMALL, 12, TrainingData::Same),
        ];
        let trace = SyntheticStream::mixed(0x10e, 64).generate(4_000);
        let plan = plan(&lanes_for(&configs, &trace));
        assert!(plan.engines.is_empty());
        use SlotDriver::{Hashed, Private};
        let expected = [
            group(&[0], Hashed),
            group(&[1], Private),
            group(&[2], Private),
        ];
        assert_eq!(plan.groups, expected);
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    /// A stream of `(site, taken, repeats)` draws, each `repeats`
    /// consecutive events at site `s` (branching at `0x1000 + 4 s`)
    /// with outcome `taken`.
    fn site_stream(draws: &[(u32, bool, usize)]) -> Trace {
        draws
            .iter()
            .flat_map(|&(site, taken, repeats)| {
                let branch = BranchRecord::conditional(0x1000 + site * 4, 0x800, taken);
                std::iter::repeat_n(branch, repeats)
            })
            .collect()
    }

    /// Random `(site, taken, repeats)` draws: same-outcome runs of 1–40
    /// events at one of 64 sites, so runs past every lane's bound
    /// occur beside single events.
    fn site_draws() -> tlat_check::Gen<Vec<(u32, bool, usize)>> {
        use tlat_check::gen;
        let draw = gen::tuple3(gen::u32_in(0, 63), gen::bools(), gen::usize_in(1, 40));
        gen::vec_of(draw, 1, 120)
    }

    /// Checks that `config`'s lane, walking `trace`'s stream alone under
    /// every slot source its table allows (its own, and on an
    /// associative table a shared engine's log too), guesses at every
    /// event as the record-driven predictor does, scores the same and
    /// ends with the same table statistics. A tournament records no
    /// guesses of its own, so only its score is compared (on the record
    /// path its Two-Level component also counts a re-ask per event).
    fn assert_walks_guess_as_records(config: &SchemeConfig, trace: &Trace) -> Result<(), String> {
        use tlat_check::prop_assert_eq;
        let compiled = CompiledTrace::compile(trace);
        let mut reference = GangLane::from_config(config, None);
        let branches = trace.iter().filter(|b| b.class == BranchClass::Conditional);
        let want: Vec<bool> = branches.map(|b| reference.predict_update(b)).collect();
        let want_correct = want
            .iter()
            .zip(compiled.outcomes().iter())
            .filter(|(g, t)| g == &t);
        let want_correct = want_correct.count() as u64;
        let label = config.label();
        let hrt = reference.hrt_config();
        let drivers = match hrt {
            None => vec![None],
            Some(HrtConfig::Ideal) => vec![Some(SlotDriver::Ideal)],
            Some(HrtConfig::Hashed { .. }) => vec![Some(SlotDriver::Hashed)],
            Some(_) => vec![Some(SlotDriver::Private), Some(SlotDriver::Logged(0))],
        };
        for driver in drivers {
            let mut lanes = [GangLane::from_config(config, None)];
            let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());
            let logs: Vec<ProbeLog> = hrt
                .filter(|hrt| matches!(hrt, HrtConfig::Associative { .. }))
                .map(|hrt| ProbeLog::probe(hrt, &mut resolver, &compiled))
                .into_iter()
                .collect();
            let record = !matches!(lanes[0], GangLane::Tournament(_));
            let mut guesses = [record.then(Vec::new)];
            let lone = WalkGroup {
                members: vec![0],
                driver,
            };
            let correct = walk_group(
                &mut lanes,
                &lone,
                &logs,
                &mut resolver,
                &compiled,
                &mut guesses,
            );
            if let [Some(guesses)] = guesses {
                let got: Vec<bool> = (0..compiled.len())
                    .map(|i| guesses[i / 64] >> (i % 64) & 1 != 0)
                    .collect();
                prop_assert_eq!(got, want, "{label} guesses under {driver:?}");
                prop_assert_eq!(
                    table_stats(&lanes[0]),
                    table_stats(&reference),
                    "{label} table stats under {driver:?}"
                );
            }
            prop_assert_eq!(correct, [want_correct], "{label} under {driver:?}");
        }
        Ok(())
    }

    /// A Two-Level lane's walk guesses as the record-driven predictor
    /// at every event, and ends with its table statistics, on every
    /// organization and several geometries (small tables force
    /// evictions, so the AHRT's victim inheritance and LRU order are
    /// exercised too).
    #[test]
    fn site_driven_prediction_matches_record_driven_prediction() {
        use tlat_check::{check, gen};
        let geometries = [
            HrtConfig::Ideal,
            HrtConfig::ahrt(512),
            SMALL,
            HrtConfig::hhrt(256),
            HrtConfig::hhrt(8),
        ];
        let inputs = gen::tuple3(gen::choose(&geometries), gen::u8_in(1, 12), site_draws());
        check(
            "site_driven_prediction_matches_record_driven_prediction",
            &inputs,
            |(hrt, bits, stream)| {
                let config = SchemeConfig::TwoLevel(tlat_core::TwoLevelConfig {
                    history_bits: *bits,
                    hrt: *hrt,
                    ..tlat_core::TwoLevelConfig::paper_default()
                });
                assert_walks_guess_as_records(&config, &site_stream(stream))
            },
        );
    }

    /// The taxonomy's walks guess as the record-driven predictors at
    /// every event: every GAg/GAs/PAg/PAs variant and gshare, with
    /// per-address variants on their own slot source and on a shared
    /// engine's log, ending with the same history-table statistics; and
    /// the AT+gshare tournament, walking its own components, scores the
    /// same.
    #[test]
    fn taxonomy_site_and_slot_prediction_matches_record_driven_prediction() {
        use tlat_check::{check, gen};
        use tlat_core::VariantConfig;
        let geometries = [
            HrtConfig::Ideal,
            HrtConfig::ahrt(512),
            SMALL,
            HrtConfig::hhrt(8),
        ];
        let inputs = gen::tuple4(
            gen::choose(&geometries),
            gen::u8_in(1, 12),
            gen::choose(&[1usize, 2, 16]),
            site_draws(),
        );
        check(
            "taxonomy_site_and_slot_prediction_matches_record_driven_prediction",
            &inputs,
            |(hrt, bits, sets, stream)| {
                let (hrt, bits, sets) = (*hrt, *bits, *sets);
                let trace = site_stream(stream);
                let configs = [
                    SchemeConfig::Variant(VariantConfig::gag(bits, AutomatonKind::A2)),
                    SchemeConfig::Variant(VariantConfig::gas(bits, AutomatonKind::A3, sets)),
                    SchemeConfig::Variant(VariantConfig::pag(bits, AutomatonKind::A2, hrt)),
                    SchemeConfig::Variant(VariantConfig::pas(
                        bits,
                        AutomatonKind::LastTime,
                        hrt,
                        sets,
                    )),
                    SchemeConfig::Gshare(GshareConfig {
                        history_bits: bits,
                        automaton: AutomatonKind::A2,
                    }),
                    SchemeConfig::Tournament {
                        chooser_entries: 16,
                    },
                ];
                for config in &configs {
                    assert_walks_guess_as_records(config, &trace)?;
                }
                Ok(())
            },
        );
    }

    /// One generated lane of a drawn kind, under its table
    /// organization: `(kind, history bits, flags, log2 pattern sets,
    /// automaton)`. Kinds 0–10 are an AT lane (flags: cached prediction,
    /// reinit on replace, init not-taken), GAg, GAs, PAg, PAs, gshare, a
    /// tournament (flags: its AT twin, its gshare twin, a 16-entry
    /// chooser), an LS lane, an ST lane (trained on a case's second
    /// stream), a profile lane and a fixed rule (flags pick which).
    type LaneSpec = (u8, u8, u8, u8, AutomatonKind);

    fn lane_configs(
        hrt: HrtConfig,
        &(kind, bits, flags, sets, automaton): &LaneSpec,
    ) -> Vec<SchemeConfig> {
        use tlat_core::VariantConfig;
        let flag = |bit: u8| flags & bit != 0;
        let sets = 1usize << sets;
        match kind {
            0 => vec![at_full(hrt, bits, automaton, flag(1), flag(2), flag(4))],
            1 => vec![SchemeConfig::Variant(VariantConfig::gag(bits, automaton))],
            2 => vec![SchemeConfig::Variant(VariantConfig::gas(
                bits, automaton, sets,
            ))],
            3 => vec![SchemeConfig::Variant(VariantConfig::pag(
                bits, automaton, hrt,
            ))],
            4 => vec![SchemeConfig::Variant(VariantConfig::pas(
                bits, automaton, hrt, sets,
            ))],
            5 => vec![SchemeConfig::Gshare(GshareConfig {
                history_bits: bits,
                automaton,
            })],
            6 => {
                let chooser_entries = if flag(4) { 16 } else { 1024 };
                let mut configs = vec![SchemeConfig::Tournament { chooser_entries }];
                if flag(1) {
                    configs.push(SchemeConfig::at(
                        HrtConfig::ahrt(512),
                        12,
                        AutomatonKind::A2,
                    ));
                }
                if flag(2) {
                    configs.push(SchemeConfig::Gshare(GshareConfig::default_12bit()));
                }
                configs
            }
            7 => vec![SchemeConfig::ls(hrt, automaton)],
            8 => vec![SchemeConfig::st(hrt, bits, TrainingData::Diff)],
            9 => vec![SchemeConfig::Profile],
            _ => vec![match flags % 3 {
                0 => SchemeConfig::AlwaysTaken,
                1 => SchemeConfig::AlwaysNotTaken,
                _ => SchemeConfig::Btfn,
            }],
        }
    }

    #[test]
    fn scalar_lane_walks_match_the_record_walk() {
        // One to four clusters of one to four lanes, each cluster one
        // kind on one table organization of its own drawing, so its
        // lanes walk as one group — or two, where AT lanes draw both
        // reinit flags — while each lane draws its own automaton, 1–16
        // history bits and flags: AT lanes under every ablation flag,
        // LS lanes, ST lanes trained on a second stream (so presets can
        // oppose runs), the four taxonomy variants, gshare, tournaments
        // beside both, one or none of their twins, profile lanes and
        // fixed rules. Over churny and burst streams, under the chosen
        // plan, no tournament derived, every group split into groups of
        // one, and each associative geometry's groups forced onto
        // private probes or a shared log, geometry by geometry, both
        // ways round; each with collapsing on and forced off.
        use tlat_check::{check, gen, prop_assert_eq};
        let geometries = [
            HrtConfig::Ideal,
            HrtConfig::hhrt(8),
            HrtConfig::ahrt(512),
            SMALL,
        ];
        let lane = gen::tuple4(
            gen::u8_in(1, 16),
            gen::u8_in(0, 7),
            gen::u8_in(0, 4),
            gen::choose(&AutomatonKind::ALL),
        );
        // AT lanes, which carry the most flags, are drawn three times as
        // often as each other kind.
        let kinds = [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let cluster = gen::tuple3(
            gen::choose(&geometries),
            gen::choose(&kinds),
            gen::vec_of(lane, 1, 4),
        );
        let clusters = gen::vec_of(cluster, 1, 4);
        let stream = gen::tuple3(gen::bools(), gen::u32_any(), burst_draws());
        let inputs = gen::tuple4(clusters, stream, burst_draws(), gen::u8_in(0, 15));
        check(
            "scalar_lane_walks_match_the_record_walk",
            &inputs,
            |(clusters, (churny, seed, bursts), training, mask)| {
                let trace = match churny {
                    true => SyntheticStream::mixed(u64::from(*seed), 24).generate(1_500),
                    false => burst_stream(bursts),
                };
                let training = burst_stream(training);
                let configs: Vec<SchemeConfig> = clusters
                    .iter()
                    .flat_map(|(hrt, kind, lanes)| {
                        lanes.iter().flat_map(|&(bits, flags, sets, automaton)| {
                            lane_configs(*hrt, &(*kind, bits, flags, sets, automaton))
                        })
                    })
                    .collect();
                let build = || -> Vec<GangLane> {
                    configs
                        .iter()
                        .map(|c| GangLane::from_config(c, Some(&training)))
                        .collect()
                };
                let options = SimOptions::default();
                let mut reference = build();
                let records = gang_simulate_records(&mut reference, &trace, options);
                let want = lane_reports(&records, &reference);
                let compiled = CompiledTrace::compile(&trace);
                let lanes = build();
                let chosen = plan(&lanes);
                // Bit `g` of `mask` puts geometry `g`'s groups on a
                // shared log in the first forced plan, and on private
                // probes in the second.
                let logged = |hrt: HrtConfig| {
                    let g = geometries.iter().position(|&g| g == hrt);
                    mask >> g.expect("a drawn geometry") & 1 != 0
                };
                let plans = [
                    force_drivers(chosen.clone(), &lanes, logged),
                    force_drivers(chosen.clone(), &lanes, |hrt| !logged(hrt)),
                    underived(&lanes),
                    solo(chosen.clone(), &lanes),
                    chosen,
                ];
                for (forced, collapsing) in plans.iter().flat_map(|p| [(p, true), (p, false)]) {
                    let mut walked = build();
                    let mut walk = || execute(&mut walked, forced, &compiled, None, options);
                    let results = match collapsing {
                        true => walk(),
                        false => without_collapsing(walk),
                    };
                    let got = lane_reports(&results, &walked);
                    for (i, config) in configs.iter().enumerate() {
                        let label = config.label();
                        prop_assert_eq!(
                            got[i],
                            want[i],
                            "{label} under collapsing {collapsing}, {forced:?}"
                        );
                    }
                }
                Ok(())
            },
        );
    }
}
