//! Single-pass gang simulation: one trace walk feeding many predictors.
//!
//! `engine::simulate` walks the branch stream once per configuration,
//! so an N-configuration sweep pays N full memory-bandwidth passes over
//! the same trace plus a dyn-dispatched call per branch. Sweeps are the
//! harness's hot path (every table/figure is one), and predictors never
//! interact — so the gang engine walks the trace *once*, feeding every
//! configuration's predictor in turn from the same hot `BranchRecord`.
//!
//! Eight further savings fall out:
//!
//! * **Monomorphization** — every registered scheme runs as a concrete
//!   enum variant of [`GangLane`] ([`GangLane::from_config`] never
//!   boxes), so its per-branch predict/update is a direct (inlinable)
//!   call. The boxed [`GangLane::Dyn`] lane remains only for callers
//!   that bring their own [`Predictor`].
//! * **Stream compilation** — every lane but a dyn one is fed from a
//!   site-interned SoA event stream ([`CompiledTrace`]), compiled once
//!   per workload, and every lane's table coordinates are resolved per
//!   static site up front ([`SiteResolver`]): history-table keys,
//!   GAs/PAs pattern sets, gshare's address term, the tournament's
//!   chooser entry. So the hot loop does no per-branch set/tag/hash
//!   arithmetic and touches ~5 bytes per event instead of a 16-byte
//!   record (see DESIGN.md's "Hot-loop anatomy"), and a sweep never
//!   needs the record trace.
//! * **Shared probe engines** — associative lanes with the same table
//!   geometry see identical tag/LRU decision sequences, so one
//!   payload-free [`SlotProbe`] per geometry (built only when two or
//!   more lanes share it) pays the way scan and victim search once per
//!   event; each lane applies the replayed slot decision via a direct
//!   indexed entry access, and the engine's access statistics are
//!   folded back into every sharing lane once per walk.
//! * **Slot-major replay** — a Lee & Smith (LS) lane keeps one
//!   automaton per table slot and a Static Training (ST) lane one
//!   history register per slot, read against preset bits frozen before
//!   the walk. Neither reads another slot's state, neither
//!   re-initializes a replaced way, and a way that fills was never
//!   touched, so it still holds the pre-warmed initial state: each
//!   slot's guesses depend only on that slot's outcomes, in order. So
//!   every LS and ST lane leaves the per-event loop. Per geometry the
//!   walk buckets the outcome bits by slot in one counting pass, then
//!   steps each lane slot by slot through same-outcome runs: an LS
//!   automaton takes at most three steps per run (it then sits at a
//!   fixed point predicting the run), an ST register at most
//!   `history_bits` shifts (it then reads all one direction, so the
//!   rest of the run guesses one preset bit, which a profile may set
//!   against the run).
//! * **Bitsliced AT packs** — packable Two-Level lanes sharing an
//!   [`HrtConfig`] group into SWAR plane packs per pattern-table row
//!   ([`tlat_core::AtPack`]), where the level-one history walk is
//!   shared once per pack — history registers depend only on the
//!   outcome stream and HRT geometry, so one per-slot register drives
//!   every lane's masked row index, and the variant × history-length
//!   grid of a fig10 sweep collapses into a handful of packs. Ideal,
//!   hashed, and private associative packs skip the per-event loop
//!   entirely and replay the stream in `(site, outcome)` runs; packs
//!   riding a mixed gang's shared probe engine either log each probe's
//!   slot (loop-heavy streams; the pack replays the log in `(slot,
//!   outcome)` runs afterwards) or take one branchless plane step per
//!   event in-loop (churny streams). In every run-replayed walk a loop
//!   branch's same-outcome tail applies in O(1) once every history
//!   register saturates and every automaton sits at its fixed point.
//! * **Derived lanes** — a tournament's components train on every event
//!   whatever its chooser picks, so beside fresh twins of both (an
//!   unpacked Two-Level lane and a gshare lane of equal configurations)
//!   its component guesses are the twins' guesses, event for event.
//!   The twins record them, one bit per event, and after the per-event
//!   loop the tournament steps only its chooser, at the events where
//!   the guesses disagree; the agreeing events are credited in bulk
//!   from the twins' counts.
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
//! and the stream's shape into a `WalkPlan` value — each lane's path,
//! the shared engines, and each pack's and slot-major replay's lanes
//! and slot driver — and one executor runs any such plan. Results are bit-identical to driving
//! [`crate::simulate_with`] once per predictor, and to the reference
//! record walk [`gang_simulate_records`], under every plan: each lane
//! observes exactly the same predict/update sequence it would alone.

use crate::config::{self, SchemeConfig};
use crate::engine::SimOptions;
use crate::metrics::{self, Counter, Phase};
use crate::pool::{catch_cell, CellPanic};
use crate::stats::{PredictionStats, SimResult};
use std::collections::HashMap;
use tlat_core::{
    AtLaneConfig, AtPack, Gshare, HrtConfig, HrtStats, LeeSmithBtb, Predictor, Probe, ProbeOutcome,
    ProfilePredictor, SiteKeys, SiteResolver, SliceTables, SlotProbe, StaticTraining,
    StaticTrainingConfig, Tournament, TwoLevelAdaptive, TwoLevelVariant,
};
use tlat_trace::{
    BranchClass, BranchRecord, CompiledTrace, PackedBits, RasEvent, ReturnAddressStack, SiteId,
    Trace,
};

/// One predictor riding a gang walk.
///
/// The concrete variants exist so the per-branch inner loop can call
/// them without dynamic dispatch and, on the compiled stream, with
/// site-resolved table coordinates. Every [`SchemeConfig`] has one;
/// [`GangLane::Dyn`] carries a caller's own predictor.
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
    /// [`Predictor::predict_update`]); the inner-loop call of the gang
    /// walk.
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
    /// sharing an associative organization share a [`SlotProbe`]
    /// during a compiled walk.
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

    /// Folds the access statistics of the probing done on this lane's
    /// behalf (a shared engine, or a pack's or a replay's slot driver)
    /// into its table.
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

/// A lane that steps event by event through a compiled walk: on the
/// site path it probes its own table through site-resolved keys, on the
/// slot path it replays a shared engine's probe for the event's site.
trait ScalarLane {
    /// Resolves the lane's per-site coordinates over `resolver`'s sites.
    fn bind(&mut self, resolver: &mut SiteResolver);
    fn site(&mut self, site: SiteId, taken: bool) -> bool;
    fn slot(&mut self, site: SiteId, probe: Probe, taken: bool) -> bool;
}

/// Implements [`ScalarLane`] for each lane type through its inherent
/// `bind_sites` and `predict_update_site`, with the slot step given as
/// `|lane, site, probe, taken| expr`.
macro_rules! scalar_lane {
    ($($lane:ty => |$p:ident, $site:pat, $probe:ident, $taken:ident| $slot:expr;)*) => {$(
        impl ScalarLane for $lane {
            fn bind(&mut self, resolver: &mut SiteResolver) {
                self.bind_sites(resolver);
            }
            #[inline]
            fn site(&mut self, site: SiteId, taken: bool) -> bool {
                self.predict_update_site(site, taken)
            }
            #[inline]
            fn slot(&mut self, $site: SiteId, $probe: Probe, $taken: bool) -> bool {
                let $p = self;
                $slot
            }
        }
    )*};
}

scalar_lane! {
    TwoLevelAdaptive => |p, _, probe, taken| p.predict_update_slot(probe, taken);
    TwoLevelVariant => |p, site, probe, taken| p.predict_update_slot(site, probe, taken);
    Tournament<TwoLevelAdaptive, Gshare> => |p, site, probe, taken| {
        p.predict_update_slot(site, probe, taken)
    };
    Gshare => |_p, _, _probe, _taken| unreachable!("gshare probes no history table");
}

/// The scalar lanes of one type, split by path, so the per-event loop
/// calls every lane directly with no lane-kind dispatch.
struct Scalars<'a, P> {
    sites: Vec<(&'a mut P, &'a mut PredictionStats)>,
    /// Slot-path lanes, with the index of the engine they ride.
    slots: Vec<(usize, &'a mut P, &'a mut PredictionStats)>,
    /// Twins of derived lanes, on the slot path (with their engine) or
    /// the site path: each also records its guesses, one bit per event.
    /// Kept apart so that no other lane pays the store.
    twins: Vec<(Option<usize>, &'a mut P, &'a mut PredictionStats, &'a mut PackedBits)>,
}

impl<'a, P: ScalarLane> Scalars<'a, P> {
    fn new() -> Self {
        Scalars {
            sites: Vec::new(),
            slots: Vec::new(),
            twins: Vec::new(),
        }
    }

    /// Binds `lane` to the walk's sites and adds it on `path`, recording
    /// its guesses into `guesses` when a derived lane reads them.
    fn push(
        &mut self,
        lane: &'a mut P,
        stat: &'a mut PredictionStats,
        path: LanePath,
        guesses: Option<&'a mut PackedBits>,
        resolver: &mut SiteResolver,
    ) {
        lane.bind(resolver);
        match (path, guesses) {
            (LanePath::Site, None) => self.sites.push((lane, stat)),
            (LanePath::Slot(e), None) => self.slots.push((e, lane, stat)),
            (LanePath::Site, Some(guesses)) => self.twins.push((None, lane, stat, guesses)),
            (LanePath::Slot(e), Some(guesses)) => self.twins.push((Some(e), lane, stat, guesses)),
            _ => unreachable!("only scalar paths step per event"),
        }
    }

    /// One event for every lane of the group.
    #[inline]
    fn step(&mut self, site: SiteId, taken: bool, probes: &[Probe]) {
        for (e, p, stat) in &mut self.slots {
            stat.record(p.slot(site, probes[*e], taken) == taken);
        }
        for (p, stat) in &mut self.sites {
            stat.record(p.site(site, taken) == taken);
        }
        for (e, p, stat, guesses) in &mut self.twins {
            let guess = match *e {
                Some(e) => p.slot(site, probes[e], taken),
                None => p.site(site, taken),
            };
            guesses.push(guess);
            stat.record(guess == taken);
        }
    }
}

/// Lanes per bitsliced pack: one bit of each `u64` plane.
const PACK_WIDTH: usize = 64;

/// Mean same-site run length (in events) from which a stream counts
/// as loop-heavy: a mixed gang's shared AT packs then switch from
/// stepping inside the per-event loop to replaying a logged slot
/// stream in run chunks, and every packable Two-Level lane packs.
/// Below it, runs are too short for chunking to amortize the log's
/// write-and-rescan.
const LOG_REPLAY_MIN_RUN: usize = 3;

/// How many of an AT pack group's `count` candidate lanes go into
/// bitsliced packs on a churny stream (the rest take the scalar
/// site/slot path).
///
/// A single lane gains nothing from plane form, so groups need at
/// least two lanes to pack at all, and when chunking by
/// [`PACK_WIDTH`] would strand exactly one lane in the final chunk,
/// that straggler stays scalar instead of becoming a one-lane pack.
fn packed_quota(count: usize) -> usize {
    match count {
        0 | 1 => 0,
        n if n % PACK_WIDTH == 1 => n - 1,
        n => n,
    }
}

/// How one lane rides a compiled walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LanePath {
    /// Scalar, probing its own table through site-resolved keys.
    Site,
    /// Scalar, replaying shared engine `e`'s probe decisions.
    Slot(usize),
    /// A member of AT pack `p`.
    Packed(usize),
    /// A member of slot-major replay `r`: an LS or ST lane.
    SlotMajor(usize),
    /// A tournament whose components have fresh twins in the walk: the
    /// Two-Level lane `first` and the gshare lane `second`, both scalar.
    /// The twins record their guesses, and after the per-event loop the
    /// tournament steps only its chooser, at the events where they
    /// disagree.
    Derived { first: usize, second: usize },
    /// A profile or fixed-rule lane, scored in closed form from the
    /// stream's tallies.
    ClosedForm,
    /// A dyn lane, fed the raw record stream.
    Dyn,
}

/// Where a pack's or a slot-major replay's slot sequence comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotDriver {
    /// Ideal table: slot = site, a site's first event fills its slot.
    Ideal,
    /// Hashed table: per-site slots, every access hits.
    Hashed,
    /// Associative table: an engine of the group's own, advanced one
    /// real probe per same-site run.
    Private,
    /// Associative table: shared engine `e`, one plane step per event
    /// inside the per-event loop (AT packs only).
    Stepped(usize),
    /// Associative table: shared engine `e`, whose probes the
    /// per-event loop logs for the group to replay afterwards.
    Logged(usize),
}

/// Lanes that ride one slot sequence: a bitsliced AT pack, or the LS
/// and ST lanes of one slot-major replay.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupPlan {
    /// The organization every member's table shares.
    hrt: HrtConfig,
    /// Member lane indices, ascending; a pack holds at most
    /// [`PACK_WIDTH`].
    lanes: Vec<usize>,
    driver: SlotDriver,
}

/// Everything a compiled walk decides before it runs. Engines, packs
/// and replays are numbered in order of their first lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalkPlan {
    /// Each lane's path, in lane order.
    lanes: Vec<LanePath>,
    /// The geometry of each shared [`SlotProbe`].
    engines: Vec<HrtConfig>,
    /// Bitsliced AT packs.
    packs: Vec<GroupPlan>,
    /// Slot-major replays, one per organization with LS or ST lanes.
    replays: Vec<GroupPlan>,
}

/// Decides how `lanes` ride a walk over a stream of the given shape.
///
/// * **Slot-major replay.** Every LS and ST lane joins its
///   organization's slot-major replay, on every stream shape and
///   however many lanes share it.
/// * **Packing.** Packable Two-Level lanes
///   ([`tlat_core::TwoLevelConfig::pack_lane`]) group per organization
///   and chunk [`PACK_WIDTH`] per pack in lane order. A pack's row
///   arithmetic amortizes over lanes sharing a history *mask*: every
///   distinct history length adds its own row visit per event, sixteen
///   bytes of plane where the scalar fused cycle touches one. So on a
///   churny stream a lane is a candidate only beside a mask-group
///   partner, down to [`packed_quota`]'s strand rule; on a loop-heavy
///   stream every packable lane packs, down to a lone one, because the
///   pack leaves the per-event loop and collapses a same-outcome run
///   to at most `history_bits + 3` plane steps where scalar lanes pay
///   every event.
/// * **Derivation.** A tournament derives from the first unpacked
///   Two-Level lane and the first gshare lane whose configurations
///   equal its components', when both exist; otherwise it runs whole.
///   A derived tournament probes nothing, so it counts toward no
///   shared engine.
/// * **Sharing.** Beside scalar per-event consumers, every associative
///   organization probed by two or more lanes gets a shared engine, and
///   every lane on it rides it: unpacked lanes replay its slot
///   decisions, slot-major replays read its probe log, and packs step
///   off it in-loop on churny streams and log its probes on loop-heavy
///   ones. Without scalar consumers there is no per-event loop to ride,
///   and associative packs and replays probe privately.
fn plan(lanes: &[GangLane], loop_heavy: bool) -> WalkPlan {
    // Each packable Two-Level lane's organization and history length:
    // its mask group.
    let keys: Vec<Option<(HrtConfig, u8)>> = lanes
        .iter()
        .map(|lane| match lane {
            GangLane::TwoLevel(p) => Some((p.config().hrt, p.config().pack_lane()?.history_bits)),
            _ => None,
        })
        .collect();
    let mut packed: HashMap<HrtConfig, Vec<usize>> = HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        let Some((hrt, _)) = *key else {
            continue;
        };
        if loop_heavy || keys.iter().filter(|&other| other == key).count() >= 2 {
            packed.entry(hrt).or_default().push(i);
        }
    }
    if !loop_heavy {
        for members in packed.values_mut() {
            members.truncate(packed_quota(members.len()));
        }
    }
    let mut replayed: HashMap<HrtConfig, Vec<usize>> = HashMap::new();
    for (i, lane) in lanes.iter().enumerate() {
        if let GangLane::LeeSmith(_) | GangLane::StaticTraining(_) = lane {
            let hrt = lane.hrt_config().expect("LS and ST lanes have a table");
            replayed.entry(hrt).or_default().push(i);
        }
    }
    let derived: Vec<Option<LanePath>> = lanes
        .iter()
        .map(|lane| {
            let GangLane::Tournament(t) = lane else {
                return None;
            };
            let first = (0..lanes.len()).find(|&i| match &lanes[i] {
                GangLane::TwoLevel(p) => {
                    p.config() == t.first().config() && !packed.values().any(|m| m.contains(&i))
                }
                _ => false,
            })?;
            let second = lanes.iter().position(
                |lane| matches!(lane, GangLane::Gshare(g) if g.config() == t.second().config()),
            )?;
            Some(LanePath::Derived { first, second })
        })
        .collect();
    // Scalar per-event consumers remain exactly when some table lane
    // is neither packed, replayed nor derived.
    let table_lanes: Vec<HrtConfig> = lanes
        .iter()
        .zip(&derived)
        .filter(|(_, derived)| derived.is_none())
        .filter_map(|(lane, _)| lane.hrt_config())
        .collect();
    let grouped: usize = packed.values().chain(replayed.values()).map(Vec::len).sum();
    let mut engines: Vec<HrtConfig> = Vec::new();
    if table_lanes.len() > grouped {
        for &hrt in &table_lanes {
            let shared = table_lanes.iter().filter(|&&other| other == hrt).count() >= 2;
            if shared && matches!(hrt, HrtConfig::Associative { .. }) && !engines.contains(&hrt) {
                engines.push(hrt);
            }
        }
    }
    let engine = |hrt: HrtConfig| engines.iter().position(|&shared| shared == hrt);
    let driver = |hrt: HrtConfig, in_loop: bool| match (hrt, engine(hrt)) {
        (HrtConfig::Ideal, _) => SlotDriver::Ideal,
        (HrtConfig::Hashed { .. }, _) => SlotDriver::Hashed,
        (_, None) => SlotDriver::Private,
        (_, Some(e)) if in_loop => SlotDriver::Stepped(e),
        (_, Some(e)) => SlotDriver::Logged(e),
    };
    let mut packs: Vec<GroupPlan> = Vec::new();
    for (hrt, members) in packed {
        for chunk in members.chunks(PACK_WIDTH) {
            packs.push(GroupPlan {
                hrt,
                lanes: chunk.to_vec(),
                driver: driver(hrt, !loop_heavy),
            });
        }
    }
    packs.sort_by_key(|pack| pack.lanes[0]);
    let mut replays: Vec<GroupPlan> = replayed
        .into_iter()
        .map(|(hrt, lanes)| GroupPlan {
            hrt,
            lanes,
            driver: driver(hrt, false),
        })
        .collect();
    replays.sort_by_key(|replay| replay.lanes[0]);
    let mut paths: Vec<LanePath> = lanes
        .iter()
        .zip(derived)
        .map(|(lane, derived)| {
            derived.unwrap_or(match (lane, lane.hrt_config().and_then(engine)) {
                (GangLane::Profile(_) | GangLane::Fixed(_), _) => LanePath::ClosedForm,
                (GangLane::Dyn(_), _) => LanePath::Dyn,
                (_, Some(e)) => LanePath::Slot(e),
                (_, None) => LanePath::Site,
            })
        })
        .collect();
    for (p, pack) in packs.iter().enumerate() {
        for &i in &pack.lanes {
            paths[i] = LanePath::Packed(p);
        }
    }
    for (r, replay) in replays.iter().enumerate() {
        for &i in &replay.lanes {
            paths[i] = LanePath::SlotMajor(r);
        }
    }
    WalkPlan {
        lanes: paths,
        engines,
        packs,
        replays,
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

/// Builds the planes of every AT pack in `plan`.
fn assemble<'p>(
    plan: &'p WalkPlan,
    lanes: &[GangLane],
    compiled: &CompiledTrace,
) -> Vec<(AtPack, &'p GroupPlan)> {
    plan.packs
        .iter()
        .map(|pack| {
            let specs: Vec<AtLaneConfig> = pack
                .lanes
                .iter()
                .map(|&i| match &lanes[i] {
                    GangLane::TwoLevel(p) => {
                        p.config().pack_lane().expect("only packable lanes pack")
                    }
                    _ => unreachable!("only Two-Level lanes pack"),
                })
                .collect();
            (AtPack::new(&specs, table_slots(pack.hrt, compiled)), pack)
        })
        .collect()
}

/// A logged probe's fill flag: a probe log keeps one `u32` per event,
/// the slot with this bit set when the probe filled it. Slot-major
/// replays read only the slot, and logged AT packs the slot and the
/// flag.
const FILLED: u32 = 1 << 31;

/// Advances a shared engine by one event, logging the probe when a pack
/// or a slot-major replay reads it afterwards. Kept out of line on
/// purpose: with the way scan inlined into the per-event loop, the
/// scalar slot lanes beside it ran ~25 % slower (fig7's four Two-Level
/// slot lanes, 500 k branches per trace).
#[inline(never)]
fn probe(engine: &mut SlotProbe, log: &mut Option<Vec<u32>>, site: SiteId) -> Probe {
    let probe = engine.step(site);
    if let Some(log) = log {
        debug_assert!(probe.slot < FILLED, "slot {} overlaps the fill flag", probe.slot);
        log.push(probe.slot | u32::from(probe.outcome == ProbeOutcome::Filled) * FILLED);
    }
    probe
}

/// One in-loop event for every stepped pack: a branchless plane step
/// off the probe its shared engine just made.
#[inline]
fn step_packs(packs: &mut [(AtPack, &GroupPlan)], probes: &[Probe], taken: bool) {
    for (planes, pack) in packs {
        if let SlotDriver::Stepped(e) = pack.driver {
            let probe = probes[e];
            if probe.outcome == ProbeOutcome::Filled {
                planes.fill_slot(probe.slot as usize);
            }
            planes.step(probe.slot as usize, taken);
        }
    }
}

/// Replays the stream into one pack, off to the side of the per-event
/// loop, in runs of equal `keys` (one key per event): `resolve` maps a
/// run's key and length to its slot and whether the slot fills first.
/// Within a run each same-outcome stretch beyond the pack's
/// convergence depth is a single shared correct-count — every history
/// register saturates and every automaton sits at its fixed point by
/// then (asserted when the transition tables are derived).
fn replay_runs<K: Copy + PartialEq>(
    planes: &mut AtPack,
    compiled: &CompiledTrace,
    keys: &[K],
    mut resolve: impl FnMut(K, u64) -> (usize, bool),
) {
    let outcomes = compiled.outcomes();
    let mut i = 0;
    for run in keys.chunk_by(|a, b| a == b) {
        let j = i + run.len();
        let (slot, filled) = resolve(run[0], run.len() as u64);
        if filled {
            planes.fill_slot(slot);
        }
        while i < j {
            let taken = outcomes.get(i);
            let same = outcomes.run_len(i, j);
            planes.apply_run(slot, taken, same as u64);
            i += same;
        }
    }
}

/// Completes every AT pack: replays the packs that left the per-event
/// loop, then folds each lane's counts and the driver's [`HrtStats`]
/// back by lane index. A packed lane's own table payload goes stale
/// (the pack owns it for the walk, as on the slot path); only
/// predicted/correct and the adopted statistics are observable.
fn finish_packs(
    packs: Vec<(AtPack, &GroupPlan)>,
    engines: &[(SlotProbe, Option<Vec<u32>>)],
    resolver: &mut SiteResolver,
    compiled: &CompiledTrace,
    lanes: &mut [GangLane],
    stats: &mut [PredictionStats],
) {
    for (mut planes, pack) in packs {
        let probe_stats = match pack.driver {
            SlotDriver::Stepped(e) => engines[e].0.stats(),
            // The probing is already paid: equal logged probes group
            // into runs, and a fill applies once, up front — a filled
            // way is valid by its next probe, so a fill cannot repeat
            // within a run. (A replacement inherits the victim's state,
            // as packed lanes never re-initialize, so it steps like a
            // hit.)
            SlotDriver::Logged(e) => {
                let log = engines[e].1.as_deref().expect("a logged engine keeps its log");
                replay_runs(&mut planes, compiled, log, |logged, n| {
                    let filled = logged & FILLED != 0;
                    debug_assert!(n == 1 || !filled, "a filled way is valid on its next probe");
                    ((logged & !FILLED) as usize, filled)
                });
                engines[e].0.stats()
            }
            SlotDriver::Ideal | SlotDriver::Hashed | SlotDriver::Private => {
                let keys = resolver.keys(pack.hrt);
                let mut engine = SlotProbe::build(pack.hrt, resolver);
                let mut counted = HrtStats::default();
                replay_runs(&mut planes, compiled, compiled.cond_sites(), |site, n| {
                    counted.accesses += n;
                    match (&mut engine, &*keys) {
                        (Some(engine), _) => {
                            let probe = engine.step_run(site, n);
                            (probe.slot as usize, probe.outcome == ProbeOutcome::Filled)
                        }
                        (None, SiteKeys::Hashed { slot }) => (slot[site as usize] as usize, false),
                        // Sites intern in first-appearance order, so
                        // the next fresh site is the count seen so far.
                        (None, _) => {
                            let fresh = u64::from(site) == counted.misses;
                            counted.misses += u64::from(fresh);
                            (site as usize, fresh)
                        }
                    }
                });
                engine.map_or(counted, |engine| engine.stats())
            }
        };
        for (&i, correct) in pack.lanes.iter().zip(planes.correct_counts()) {
            stats[i].predicted += compiled.len() as u64;
            stats[i].correct += correct;
            lanes[i].adopt_probe_stats(probe_stats);
        }
    }
}

/// One LS or ST lane of a slot-major replay, with its state in the
/// slot being replayed.
struct SlotLane {
    rule: SlotRule,
    /// The current slot's automaton state code or history register.
    state: u16,
    correct: u64,
}

/// What a slot-major lane keeps per slot, and how it guesses.
enum SlotRule {
    /// An LS automaton, stepped through its derived state codes.
    LeeSmith(SliceTables),
    /// An ST history register, `mask` wide, indexing frozen preset
    /// bits.
    Static { mask: u16, preset: Vec<bool> },
}

impl SlotLane {
    fn new(lane: &GangLane) -> Self {
        let rule = match lane {
            GangLane::LeeSmith(p) => SlotRule::LeeSmith(SliceTables::derive(p.config().automaton)),
            GangLane::StaticTraining(p) => {
                let bits = p.config().history_bits;
                SlotRule::Static {
                    mask: ((1u32 << bits) - 1) as u16,
                    preset: (0..1 << bits).map(|pattern| p.preset(pattern)).collect(),
                }
            }
            lane => unreachable!("{lane:?} keeps no slot-private state"),
        };
        SlotLane {
            rule,
            state: 0,
            correct: 0,
        }
    }

    /// Starts a slot in the table's pre-warmed state, which is where
    /// every slot's first access finds it: no slot-major lane
    /// re-initializes a replaced way, and a way that fills was never
    /// touched.
    fn enter_slot(&mut self) {
        self.state = match &self.rule {
            SlotRule::LeeSmith(tables) => u16::from(tables.init),
            SlotRule::Static { mask, .. } => *mask,
        };
    }

    /// A run of `n` events with outcome `taken` in the current slot.
    #[inline]
    fn run(&mut self, taken: bool, n: u64) {
        match &self.rule {
            // Within three steps every variant sits at a fixed point
            // that predicts the run (`SliceTables::derive` asserts it),
            // so the rest of the run is correct and leaves it there.
            SlotRule::LeeSmith(tables) => {
                let t = usize::from(taken);
                let steps = n.min(3);
                for _ in 0..steps {
                    let s = self.state;
                    self.correct += u64::from((tables.predict >> s & 1 == 1) == taken);
                    self.state = u16::from(tables.next_hi[t] >> s & 1) << 1
                        | u16::from(tables.next_lo[t] >> s & 1);
                }
                self.correct += n - steps;
            }
            // After `history_bits` shifts the register reads all one
            // direction, so every further event guesses one preset bit,
            // which a profile may set against the run.
            SlotRule::Static { mask, preset } => {
                let steps = n.min(u64::from(mask.count_ones()));
                for _ in 0..steps {
                    self.correct += u64::from(preset[usize::from(self.state)] == taken);
                    self.state = (self.state << 1 | u16::from(taken)) & mask;
                }
                let saturated = if taken { *mask } else { 0 };
                self.correct += (n - steps) * u64::from(preset[usize::from(saturated)] == taken);
            }
        }
    }
}

/// The outcome bits regrouped by table slot, given each event's slot:
/// slot `s`'s outcomes, still in event order, are bits `starts[s] ..
/// starts[s + 1]` of the result. One counting pass sizes the buckets
/// and one scatter pass fills them.
fn bucket_by_slot(
    outcomes: &PackedBits,
    slot_count: usize,
    slots: impl Iterator<Item = u32> + Clone,
) -> (PackedBits, Vec<usize>) {
    let mut starts = vec![0usize; slot_count + 1];
    for slot in slots.clone() {
        starts[slot as usize + 1] += 1;
    }
    let mut total = 0;
    for start in &mut starts {
        total += *start;
        *start = total;
    }
    let mut next = starts.clone();
    let ones = slots.zip(outcomes.iter()).filter_map(|(slot, taken)| {
        let at = &mut next[slot as usize];
        *at += 1;
        taken.then_some(*at - 1)
    });
    (PackedBits::from_ones(outcomes.len(), ones), starts)
}

/// Runs one slot-major replay: buckets the outcome stream by table
/// slot, steps every member through each slot's same-outcome runs, and
/// folds each lane's counts and the driver's [`HrtStats`] back by lane
/// index. The ideal table misses once per site and the hashed one
/// never; an associative table's statistics are its engine's.
fn replay_slot_major(
    replay: &GroupPlan,
    engines: &[(SlotProbe, Option<Vec<u32>>)],
    resolver: &mut SiteResolver,
    compiled: &CompiledTrace,
    lanes: &mut [GangLane],
    stats: &mut [PredictionStats],
) {
    let (sites, outcomes) = (compiled.cond_sites(), compiled.outcomes());
    let slot_count = table_slots(replay.hrt, compiled);
    let events = compiled.len() as u64;
    let counted = |misses| HrtStats {
        accesses: events,
        misses,
    };
    let ((bits, starts), probe_stats) = match replay.driver {
        SlotDriver::Ideal => {
            let slots = sites.iter().copied();
            let misses = compiled.num_sites() as u64;
            (bucket_by_slot(outcomes, slot_count, slots), counted(misses))
        }
        SlotDriver::Hashed => {
            let keys = resolver.keys(replay.hrt);
            let SiteKeys::Hashed { slot } = &*keys else {
                unreachable!("a hashed table resolves hashed keys");
            };
            let slots = sites.iter().map(|&site| slot[site as usize]);
            (bucket_by_slot(outcomes, slot_count, slots), counted(0))
        }
        SlotDriver::Private => {
            let mut engine =
                SlotProbe::build(replay.hrt, resolver).expect("private drivers are associative");
            let mut slots = Vec::with_capacity(sites.len());
            for run in sites.chunk_by(|a, b| a == b) {
                let probe = engine.step_run(run[0], run.len() as u64);
                slots.resize(slots.len() + run.len(), probe.slot);
            }
            let slots = slots.iter().copied();
            (bucket_by_slot(outcomes, slot_count, slots), engine.stats())
        }
        SlotDriver::Logged(e) => {
            let log = engines[e].1.as_deref().expect("a logged engine keeps its log");
            let slots = log.iter().map(|&logged| logged & !FILLED);
            (bucket_by_slot(outcomes, slot_count, slots), engines[e].0.stats())
        }
        SlotDriver::Stepped(_) => unreachable!("slot-major replays never step in the event loop"),
    };
    let mut members: Vec<SlotLane> = replay
        .lanes
        .iter()
        .map(|&i| SlotLane::new(&lanes[i]))
        .collect();
    for bounds in starts.windows(2) {
        let (mut i, end) = (bounds[0], bounds[1]);
        for lane in &mut members {
            lane.enter_slot();
        }
        while i < end {
            let taken = bits.get(i);
            let run = bits.run_len(i, end);
            for lane in &mut members {
                lane.run(taken, run as u64);
            }
            i += run;
        }
    }
    for (&i, lane) in replay.lanes.iter().zip(members) {
        stats[i].predicted += events;
        stats[i].correct += lane.correct;
        lanes[i].adopt_probe_stats(probe_stats);
    }
}

/// A derived tournament's correct count, from its twins' recorded
/// guesses and correct counts. Where the twins agree the chooser stays
/// put and the tournament guesses what they guess; at each disagreement
/// exactly one twin is right, so the agreeing events both got right
/// number (first correct + second correct − disagreements) / 2. The
/// chooser then steps at the disagreements alone, in event order.
fn derived_correct(
    tournament: &mut Tournament<TwoLevelAdaptive, Gshare>,
    [(first, first_correct), (second, second_correct)]: [(&PackedBits, u64); 2],
    resolver: &SiteResolver,
    compiled: &CompiledTrace,
) -> u64 {
    let (sites, outcomes) = (compiled.cond_sites(), compiled.outcomes());
    let differ = first.words().iter().zip(second.words()).map(|(a, b)| a ^ b);
    let disagreed: u64 = differ.clone().map(|bits| u64::from(bits.count_ones())).sum();
    let disagreements = differ.enumerate().flat_map(|(word, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let event = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (sites[event], second.get(event), outcomes.get(event))
            })
        })
    });
    let both_right = (first_correct + second_correct - disagreed) / 2;
    both_right + tournament.replay_chooser(resolver, disagreements)
}

/// Runs `plan` over `compiled`: the one executor behind every walk
/// strategy.
///
/// Scalar lanes and stepped packs run event-major: the `(site, taken)`
/// decode and the shared engines' probes are paid once per event and
/// amortized over all of them (the tables of a paper-sized sweep are
/// small enough to stay cache-resident across lanes), and a plan with
/// no per-event consumer skips that loop outright. Every other pack,
/// every slot-major replay and every other lane finishes on its own
/// afterwards. Lanes never interact, so any event-vs-lane loop order
/// is observably identical.
fn execute(
    lanes: &mut [GangLane],
    plan: &WalkPlan,
    compiled: &CompiledTrace,
    dyn_source: Option<&Trace>,
    options: SimOptions,
) -> Vec<SimResult> {
    let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());
    // Each shared engine, with a log of its probes when a pack or a
    // replay reads them afterwards.
    let mut engines: Vec<(SlotProbe, Option<Vec<u32>>)> = plan
        .engines
        .iter()
        .enumerate()
        .map(|(e, &hrt)| {
            let engine = SlotProbe::build(hrt, &mut resolver).expect("engines are associative");
            let logged = plan
                .packs
                .iter()
                .chain(&plan.replays)
                .any(|group| group.driver == SlotDriver::Logged(e));
            (engine, logged.then(|| Vec::with_capacity(compiled.len())))
        })
        .collect();
    let mut packs = assemble(plan, lanes, compiled);
    metrics::add(Counter::AtPacksFormed, packs.len() as u64);
    let packed: usize = plan.packs.iter().map(|pack| pack.lanes.len()).sum();
    metrics::add(Counter::LanesPacked, packed as u64);
    let mut stats = vec![PredictionStats::default(); lanes.len()];
    // The guesses of every twin a derived lane reads.
    let mut guesses: Vec<Option<PackedBits>> = vec![None; lanes.len()];
    let mut derived = 0;
    for &path in &plan.lanes {
        if let LanePath::Derived { first, second } = path {
            derived += 1;
            for twin in [first, second] {
                guesses[twin].get_or_insert_with(|| PackedBits::with_capacity(compiled.len()));
            }
        }
    }
    metrics::add(Counter::LanesDerived, derived);
    // Partition once so the per-event loop is free of lane-kind
    // dispatch: each group's calls are direct.
    let (mut at, mut var) = (Scalars::new(), Scalars::new());
    let (mut gshare, mut tour) = (Scalars::new(), Scalars::new());
    let lanes_with_paths = lanes.iter_mut().zip(&mut stats).zip(&mut guesses).zip(&plan.lanes);
    for (((lane, stat), guesses), &path) in lanes_with_paths {
        if !matches!(path, LanePath::Site | LanePath::Slot(_)) {
            continue; // finished below
        }
        let (guesses, resolver) = (guesses.as_mut(), &mut resolver);
        match lane {
            GangLane::TwoLevel(p) => at.push(p, stat, path, guesses, resolver),
            GangLane::Variant(p) => var.push(p, stat, path, guesses, resolver),
            GangLane::Gshare(p) => gshare.push(p, stat, path, guesses, resolver),
            GangLane::Tournament(p) => tour.push(p, stat, path, guesses, resolver),
            lane => unreachable!("{lane:?} cannot take the {path:?} path"),
        }
    }
    if !engines.is_empty() || plan.lanes.contains(&LanePath::Site) {
        let mut probes = vec![
            Probe {
                slot: 0,
                outcome: ProbeOutcome::Hit,
            };
            engines.len()
        ];
        for (site, taken) in compiled.events() {
            for ((engine, log), slot) in engines.iter_mut().zip(&mut probes) {
                *slot = probe(engine, log, site);
            }
            at.step(site, taken, &probes);
            var.step(site, taken, &probes);
            gshare.step(site, taken, &probes);
            tour.step(site, taken, &probes);
            step_packs(&mut packs, &probes, taken);
        }
    }
    finish_packs(packs, &engines, &mut resolver, compiled, lanes, &mut stats);
    for replay in &plan.replays {
        replay_slot_major(replay, &engines, &mut resolver, compiled, lanes, &mut stats);
    }
    for ((lane, stat), &path) in lanes.iter_mut().zip(&mut stats).zip(&plan.lanes) {
        match (lane, path) {
            // Slot-path lanes skipped their own per-event access
            // accounting; the shared engine counted the group's
            // (identical) statistics once.
            (lane, LanePath::Slot(e)) => lane.adopt_probe_stats(engines[e].0.stats()),
            // A profile lane's bits are frozen, so its score over the
            // stream is a per-site weighted sum — identical to
            // recording every event, with no per-event work at all.
            (GangLane::Profile(p), _) => {
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
            (GangLane::Fixed(rule), _) => {
                stat.predicted += compiled.len() as u64;
                stat.correct += rule.correct(compiled);
            }
            // Dyn lanes take the record stream they have always seen; a
            // lane observes only its own predict/update sequence, so a
            // pass of its own changes nothing for any lane.
            (GangLane::Dyn(p), _) => {
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
            (guesses, stats[twin].correct)
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

/// Simulates every lane over a compiled event stream in a single walk.
/// Returns one [`SimResult`] per lane, in lane order.
///
/// Each conditional branch runs the predict → score → update cycle for
/// every lane before the walk advances; returns and calls drive one
/// shared return-address stack whose stats are replicated into every
/// result (RAS behaviour is predictor-independent). Monomorphized lanes
/// are fed from `compiled` alone, through their `predict_update_site`
/// entry points (e.g. [`TwoLevelAdaptive::predict_update_site`]), the
/// shared engines, packs and slot-major replays the walk's plan picks
/// for them, or a closed-form score; the stream's shape (its mean same-site run) is
/// read O(1) from the compiled stream. `dyn_source` supplies the raw
/// record stream for [`GangLane::Dyn`] lanes, which
/// [`GangLane::from_config`] never builds: the sweep path passes
/// `None`, so a TLA3 cache entry decodes straight into `compiled` and
/// the records are never materialized. Results are bit-identical to
/// [`gang_simulate_records`], which is pinned by tests and kept as the
/// reference walk.
///
/// Every lane must be fresh: as built, never yet stepped. The walk's
/// shared engines start from a fresh probe state, AT packs from fresh
/// planes, and a tournament beside twins of its components takes their
/// guesses for its components' (see the module docs), which holds only
/// when all of them start from the same state.
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
    let loop_heavy = compiled.len() >= LOG_REPLAY_MIN_RUN * compiled.site_run_count();
    execute(lanes, &plan(lanes, loop_heavy), compiled, dyn_source, options)
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
mod tests {
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

    /// Whether `trace` compiles to a stream the walk treats as
    /// loop-heavy.
    fn is_loop_heavy(trace: &Trace) -> bool {
        let compiled = CompiledTrace::compile(trace);
        compiled.len() >= LOG_REPLAY_MIN_RUN * compiled.site_run_count()
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
            assert_eq!(results[i].conditional, records[i].conditional, "{what}: {label}");
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
                gang_result.conditional, solo_result.conditional,
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

    /// LS lanes on every organization beside a lone AT lane: five
    /// automata on the paper AHRT, pairs on ideal / hashed / a small
    /// eviction-heavy associative table, and one LS lane alone on
    /// ahrt(256). On a churny stream the AT lane has no mask-group
    /// partner, so it stays scalar and keeps the per-event loop alive:
    /// the shared geometries' replays read their engine's probe log,
    /// and the lone ahrt(256) replay probes privately.
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
    fn slot_major_replays_match_the_record_walk_across_organizations() {
        let trace = SyntheticStream::mixed(0xb175, 80).generate(6_000);
        assert!(
            !is_loop_heavy(&trace),
            "trace drifted loop-heavy; this test pins the churny plan"
        );
        let configs = ls_lanes_on_every_organization();
        let plan = plan(&lanes_for(&configs, &trace), false);
        let drivers: Vec<SlotDriver> = plan.replays.iter().map(|replay| replay.driver).collect();
        assert_eq!(
            drivers,
            [
                SlotDriver::Logged(0),
                SlotDriver::Ideal,
                SlotDriver::Hashed,
                SlotDriver::Logged(1),
                SlotDriver::Private,
            ]
        );
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// A trace shaped like nested loops: each visit to a site emits a
    /// short burst of consecutive events there, with the outcome
    /// flipping partway through some bursts (a loop exit) so runs of
    /// both directions straddle word boundaries in the outcome bitvec.
    /// Site `s` branches at `base + 4 s`.
    fn loop_heavy_trace_at(base: u32, events: usize) -> Trace {
        let sites = 48u32;
        let mut trace = Trace::with_capacity(events);
        let mut t = 0usize;
        while trace.len() < events {
            let site = ((t * 7 + t / 11) % sites as usize) as u32;
            let pc = base + site * 4;
            let burst = 2 + t % 7; // 2..=8 consecutive events, mean ~5
            let exit_at = burst - 1 - t % 2;
            for k in 0..burst {
                let taken = k < exit_at;
                trace.push(BranchRecord::conditional(pc, pc + 0x40, taken));
            }
            t += 1;
        }
        trace
    }

    fn loop_heavy_trace(events: usize) -> Trace {
        loop_heavy_trace_at(0x2000, events)
    }

    /// With a scalar consumer present (an unpackable reinit-on-replace
    /// AT lane, which stays scalar on every stream shape) the shared
    /// geometries' replays read the gang's probe logs; the tiny 2-way
    /// table forces evictions and refills mid-stream.
    fn shared_ls_replays() -> Vec<SchemeConfig> {
        vec![
            at_full(HrtConfig::ahrt(512), 12, AutomatonKind::A2, true, true, false),
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
    fn mixed_gangs_on_loop_heavy_streams_replay_the_slot_log() {
        // The per-event loop records each shared probe, and the
        // replays bucket the logged slots afterwards, fills and
        // replacements included. Still bit-identical.
        let trace = loop_heavy_trace(6_000);
        assert!(
            is_loop_heavy(&trace),
            "trace must be loop-heavy enough to trip the log-replay gate"
        );
        let configs = shared_ls_replays();
        let plan = plan(&lanes_for(&configs, &trace), true);
        assert!(plan
            .replays
            .iter()
            .any(|replay| matches!(replay.driver, SlotDriver::Logged(_))));
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// With no lane but LS ones, the per-event loop has no consumers:
    /// every replay owns its probe (a private engine for associative
    /// geometries) and buckets the stream on its own.
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
    fn ls_only_gangs_skip_the_event_loop() {
        let trace = SyntheticStream::mixed(0x517e, 64).generate(6_000);
        let configs = ls_only();
        let plan = plan(&lanes_for(&configs, &trace), false);
        assert!(plan.engines.is_empty());
        assert!(plan.lanes.iter().all(|p| matches!(p, LanePath::SlotMajor(_))));
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn slot_major_replays_take_any_number_of_lanes() {
        // 65 same-geometry LS lanes: one replay, no chunking by
        // PACK_WIDTH and no scalar straggler.
        let trace = SyntheticStream::mixed(0x65, 24).generate(2_000);
        let kinds = AutomatonKind::ALL;
        let configs: Vec<SchemeConfig> = (0..65)
            .map(|i| SchemeConfig::ls(HrtConfig::ahrt(512), kinds[i % kinds.len()]))
            .collect();
        let plan = plan(&lanes_for(&configs, &trace), false);
        assert_eq!(plan.replays.len(), 1);
        assert_eq!(plan.replays[0].lanes.len(), 65);
        assert!(plan.engines.is_empty() && plan.packs.is_empty());
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    /// Trained on a loop of 12 taken events then one not-taken, a
    /// 12-bit ST lane presets the all-ones pattern not-taken. On a loop
    /// of 40 taken then one not-taken its register saturates 12 events
    /// into each run, and the other 28 taken events all guess
    /// not-taken: a replay that credited a run's whole tail would score
    /// them correct.
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

    /// A generated stream: `(loopy, bursts)`, each burst `(site, taken,
    /// exits)` — `taken` taken events then `exits` not-taken ones at one
    /// site. A churny stream caps `taken` below 3; a loopy one keeps it,
    /// up to 200, so same-outcome runs cross 64-bit words.
    fn burst_stream(&(loopy, ref bursts): &(bool, Vec<(u32, usize, usize)>)) -> Trace {
        let mut trace = Trace::new();
        for &(site, taken, exits) in bursts {
            let pc = 0x1000 + site * 4;
            let taken = if loopy { taken } else { taken % 3 };
            for k in 0..taken + exits {
                trace.push(BranchRecord::conditional(pc, pc + 0x40, k < taken));
            }
        }
        trace
    }

    #[test]
    fn slot_major_replays_match_the_record_walk() {
        // One to six LS and ST lanes on one geometry, over churny and
        // loopy streams, under the planned drivers and with every
        // associative replay forced onto a shared engine's log. ST
        // lanes train on a second stream, so presets can oppose runs.
        use tlat_check::{check, gen, prop_assert_eq};
        let geometries = [HrtConfig::Ideal, HrtConfig::hhrt(8), HrtConfig::ahrt(512), SMALL];
        let lane = gen::tuple3(gen::bools(), gen::choose(&AutomatonKind::ALL), gen::u8_in(1, 12));
        let bursts = gen::tuple3(gen::u32_in(0, 47), gen::usize_in(0, 200), gen::usize_in(0, 2));
        let stream = gen::tuple2(gen::bools(), gen::vec_of(bursts, 1, 120));
        let inputs = gen::tuple4(
            gen::choose(&geometries),
            gen::vec_of(lane, 1, 6),
            stream.clone(),
            stream,
        );
        check(
            "slot_major_replays_match_the_record_walk",
            &inputs,
            |(hrt, lanes, test, train)| {
                let (test, train) = (burst_stream(test), burst_stream(train));
                let configs: Vec<SchemeConfig> = lanes
                    .iter()
                    .map(|&(ls, kind, bits)| match ls {
                        true => SchemeConfig::ls(*hrt, kind),
                        false => SchemeConfig::st(*hrt, bits, TrainingData::Diff),
                    })
                    .collect();
                let build = || -> Vec<GangLane> {
                    configs
                        .iter()
                        .map(|c| GangLane::from_config(c, Some(&train)))
                        .collect()
                };
                let options = SimOptions::default();
                let mut reference = build();
                let records = gang_simulate_records(&mut reference, &test, options);
                let compiled = CompiledTrace::compile(&test);
                let chosen = plan(&build(), is_loop_heavy(&test));
                for forced in [chosen.clone(), drive_packs(chosen, Some(SlotDriver::Logged))] {
                    let mut walked = build();
                    let results = execute(&mut walked, &forced, &compiled, None, options);
                    for (i, config) in configs.iter().enumerate() {
                        let label = config.label();
                        prop_assert_eq!(
                            results[i].conditional,
                            records[i].conditional,
                            "{label} under {forced:?}"
                        );
                        prop_assert_eq!(results[i].ras, records[i].ras, "{label} RAS");
                        prop_assert_eq!(
                            table_stats(&walked[i]),
                            table_stats(&reference[i]),
                            "{label} table stats under {forced:?}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// An AT configuration with the ablation flags spelled out, for
    /// exercising pack-lane mixes the `at` convenience hides.
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

    /// AT packs form wherever ≥2 packable Two-Level lanes share a
    /// history mask on one HRT organization (on a churny stream a
    /// mask-singleton has nothing to amortize its row planes over, so
    /// it stays scalar). The paper-AHRT pack mixes automaton variants,
    /// two history lengths (masked rows of the shared register), §3.2
    /// caching vs pure two-lookup, and init polarity; ideal / hashed /
    /// eviction-heavy associative same-mask pairs pack too. A
    /// reinit-on-replace lane is unpackable and must take the scalar
    /// path (becoming the gang's scalar consumer), a k=8 lane on the
    /// packing AHRT and an ahrt(256) lane are mask-singletons pinned
    /// scalar by the churny gate, and an LS replay rides alongside.
    fn at_packs_with_singletons() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::ahrt(512), 8, AutomatonKind::A3), // mask-singleton
            SchemeConfig::at(HrtConfig::ahrt(512), 6, AutomatonKind::LastTime),
            at_full(HrtConfig::ahrt(512), 6, AutomatonKind::A4, false, false, false),
            at_full(HrtConfig::ahrt(512), 6, AutomatonKind::A1, true, false, true),
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::hhrt(64), 8, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::hhrt(64), 8, AutomatonKind::A4),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A2),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A3),
            at_full(HrtConfig::ahrt(512), 12, AutomatonKind::A2, true, true, false),
            SchemeConfig::at(HrtConfig::ahrt(256), 12, AutomatonKind::A2), // mask-singleton
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
        ]
    }

    #[test]
    fn bitsliced_at_packs_match_the_record_walk_across_organizations() {
        // Random site visits: shared packs must take the in-loop
        // stepping strategy here (the reinit lane is the scalar
        // consumer keeping the event loop alive).
        let trace = SyntheticStream::mixed(0xa7b1, 80).generate(6_000);
        assert!(
            !is_loop_heavy(&trace),
            "trace drifted loop-heavy; this test pins the stepped-pack path"
        );
        let configs = at_packs_with_singletons();
        let plan = plan(&lanes_for(&configs, &trace), false);
        assert!(plan
            .packs
            .iter()
            .any(|pack| matches!(pack.driver, SlotDriver::Stepped(_))));
        assert_eq!(plan.lanes[2], LanePath::Slot(0), "mask-singletons stay scalar");
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// The eviction-interplay mix: AT packs on a tiny 2-way AHRT that
    /// churns through fills, hits, and replacements, never seeing tags
    /// — only slot decisions. A replaced slot must inherit the victim's
    /// plane state and a filled slot must re-read its cached plane from
    /// the *evolved* pattern tables, or predictions drift. An
    /// unpackable reinit-on-replace lane keeps a scalar consumer in the
    /// gang, so the small table's packs and LS replay read a shared
    /// engine's log. On a loop-heavy stream AT singletons pack too: the
    /// lone ahrt(256) lane is alone on its geometry and falls back to a
    /// private probe, and the lone ideal and hashed singletons take
    /// their own run replay.
    fn at_evictions() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same),
            SchemeConfig::at(SMALL, 8, AutomatonKind::A2),
            SchemeConfig::at(SMALL, 6, AutomatonKind::A3),
            at_full(SMALL, 4, AutomatonKind::LastTime, false, false, false),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 10, AutomatonKind::A4),
            SchemeConfig::at(HrtConfig::ahrt(256), 10, AutomatonKind::A3), // lone: private probe
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A2), // lone: ideal replay
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A4), // lone: hashed replay
            SchemeConfig::ls(SMALL, AutomatonKind::A2),
            SchemeConfig::ls(SMALL, AutomatonKind::A4),
            at_full(HrtConfig::Ideal, 12, AutomatonKind::A2, true, true, false), // scalar
        ]
    }

    #[test]
    fn at_packs_replay_ahrt_evictions_from_the_slot_log_byte_for_byte() {
        let trace = loop_heavy_trace(6_000);
        assert!(
            is_loop_heavy(&trace),
            "trace must be loop-heavy enough to trip the log-replay gate"
        );
        let configs = at_evictions();
        let plan = plan(&lanes_for(&configs, &trace), true);
        let LanePath::Packed(lone) = plan.lanes[6] else {
            panic!("the lone ahrt(256) lane packs on a loop-heavy stream")
        };
        assert_eq!(plan.packs[lone].driver, SlotDriver::Private);
        assert_eq!(plan.packs[0].driver, SlotDriver::Logged(0), "the small table's pack");
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// Every conditional consumer packs: no scalar lane remains, so the
    /// per-event loop never runs and the associative AT packs own
    /// private probe engines, replaying the stream in (site, outcome)
    /// runs — including evictions on the tiny 2-way table. Each
    /// geometry's pair shares a history mask so the churny gate packs
    /// them too.
    fn at_pack_only() -> Vec<SchemeConfig> {
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
    fn pack_only_at_gangs_take_the_chunked_run_walk() {
        // Run on both stream shapes, since the private path chunks
        // same-site runs either way.
        for trace in [
            SyntheticStream::mixed(0x9ac7, 64).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            assert_walk_matches_records(&at_pack_only(), &trace, SimOptions { ras_entries: 8 });
        }
    }

    #[test]
    fn at_packs_wider_than_a_word_chunk_and_strand_the_straggler() {
        // 65 same-organization AT lanes on a churny stream, a variant
        // × history-length grid whose every history mask holds ≥ 2
        // lanes: all 65 are pack-eligible, so the strand rule applies —
        // one full 64-lane pack plus one scalar straggler (a one-lane
        // final chunk would be pure overhead here).
        assert_eq!(packed_quota(0), 0);
        assert_eq!(packed_quota(1), 0);
        assert_eq!(packed_quota(2), 2);
        assert_eq!(packed_quota(64), 64);
        assert_eq!(packed_quota(65), 64);
        assert_eq!(packed_quota(66), 66);
        assert_eq!(packed_quota(129), 128);
        let trace = SyntheticStream::mixed(0xa65, 24).generate(2_000);
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
        let plan = plan(&lanes_for(&configs, &trace), false);
        assert_eq!(plan.packs.len(), 1);
        assert_eq!(plan.lanes[64], LanePath::Slot(0), "the straggler rides the pack's engine");
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    #[test]
    fn slot_log_replay_keeps_slots_past_sixteen_bits() {
        // A direct-mapped AHRT of 2^17 sets with every branch past set
        // 65,535: the slot-log replay must see the full slot, and a
        // fill only where the probe filled. The unpackable reinit AT
        // lane keeps the shared engine, and its log, in the walk.
        let trace = loop_heavy_trace_at(0x40000, 6_000);
        assert!(is_loop_heavy(&trace));
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
        let plan = plan(&lanes_for(&configs, &trace), true);
        assert_eq!(plan.replays[0].driver, SlotDriver::Logged(0));
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    /// `plan` with packing off: every Two-Level and taxonomy table lane
    /// scalar, riding a shared engine wherever two or more lanes share
    /// an associative organization, and every LS and ST lane in its
    /// organization's slot-major replay, reading that engine's log.
    fn scalar_plan(lanes: &[GangLane]) -> WalkPlan {
        let mut plan = WalkPlan {
            lanes: Vec::new(),
            engines: Vec::new(),
            packs: Vec::new(),
            replays: Vec::new(),
        };
        for (i, lane) in lanes.iter().enumerate() {
            let hrt = lane.hrt_config();
            let sharers = lanes.iter().filter(|l| l.hrt_config() == hrt).count();
            let engine = match hrt {
                Some(hrt @ HrtConfig::Associative { .. }) if sharers >= 2 => {
                    Some(engine_for(&mut plan.engines, hrt))
                }
                _ => None,
            };
            let path = match (lane, hrt, engine) {
                (GangLane::Profile(_) | GangLane::Fixed(_), _, _) => LanePath::ClosedForm,
                (GangLane::Dyn(_), _, _) => LanePath::Dyn,
                (GangLane::LeeSmith(_) | GangLane::StaticTraining(_), Some(hrt), _) => {
                    let r = match plan.replays.iter().position(|replay| replay.hrt == hrt) {
                        Some(r) => r,
                        None => {
                            let driver = match (hrt, engine) {
                                (HrtConfig::Ideal, _) => SlotDriver::Ideal,
                                (HrtConfig::Hashed { .. }, _) => SlotDriver::Hashed,
                                (_, Some(e)) => SlotDriver::Logged(e),
                                (_, None) => SlotDriver::Private,
                            };
                            let lanes = Vec::new();
                            plan.replays.push(GroupPlan { hrt, lanes, driver });
                            plan.replays.len() - 1
                        }
                    };
                    plan.replays[r].lanes.push(i);
                    LanePath::SlotMajor(r)
                }
                (_, _, Some(e)) => LanePath::Slot(e),
                _ => LanePath::Site,
            };
            plan.lanes.push(path);
        }
        plan
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

    /// `plan` with every associative pack probing privately (`None`) or
    /// through `shared` on its geometry's shared engine, which is added
    /// where the plan has none. Associative slot-major replays probe
    /// privately or read that engine's log: they never step in the
    /// event loop.
    fn drive_packs(mut plan: WalkPlan, shared: Option<fn(usize) -> SlotDriver>) -> WalkPlan {
        for pack in &mut plan.packs {
            if matches!(pack.hrt, HrtConfig::Associative { .. }) {
                pack.driver = match shared {
                    Some(driver) => driver(engine_for(&mut plan.engines, pack.hrt)),
                    None => SlotDriver::Private,
                };
            }
        }
        for replay in &mut plan.replays {
            if matches!(replay.hrt, HrtConfig::Associative { .. }) {
                replay.driver = match shared {
                    Some(_) => SlotDriver::Logged(engine_for(&mut plan.engines, replay.hrt)),
                    None => SlotDriver::Private,
                };
            }
        }
        plan
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
            vec![SchemeConfig::at(ahrt, 12, AutomatonKind::A2), tournament.clone()],
            vec![tournament, SchemeConfig::Gshare(GshareConfig::default_12bit())],
        ]
    }

    #[test]
    fn tournaments_derive_only_beside_scalar_twins() {
        // Churny: the taxonomy's AT lane stays scalar on the AHRT engine
        // it shares with PAg and PAs, so the tournament derives from it
        // and the gshare lane, and rides no engine itself.
        let configs = crate::config::taxonomy();
        let churny = SyntheticStream::mixed(0x7a0, 64).generate(6_000);
        assert!(!is_loop_heavy(&churny));
        let chosen = plan(&lanes_for(&configs, &churny), false);
        assert_eq!(chosen.lanes[4], LanePath::Slot(0));
        assert_eq!(chosen.lanes[5], LanePath::Site);
        assert_eq!(chosen.lanes[6], LanePath::Derived { first: 4, second: 5 });
        // It scores, and adopts the table statistics, as its whole walk.
        let compiled = CompiledTrace::compile(&churny);
        let tournament = |plan: &WalkPlan| {
            let mut lanes = lanes_for(&configs, &churny);
            let results = execute(&mut lanes, plan, &compiled, None, SimOptions::default());
            let GangLane::Tournament(t) = &lanes[6] else {
                unreachable!("the taxonomy's last lane is its tournament");
            };
            (results[6].conditional, t.first().hrt_stats())
        };
        let whole = scalar_plan(&lanes_for(&configs, &churny));
        assert_eq!(tournament(&chosen), tournament(&whole));
        // Two tournaments may share one pair of twins.
        let mixed = taxonomy_and_fixed_rules();
        let shared = plan(&lanes_for(&mixed, &churny), false);
        assert_eq!(shared.lanes[11], LanePath::Derived { first: 7, second: 9 });
        assert_eq!(shared.lanes[12], LanePath::Derived { first: 7, second: 9 });
        // Loop-heavy: the AT lane packs, so the tournament has no scalar
        // twin and runs whole on the AHRT engine.
        let loopy = loop_heavy_trace(6_000);
        assert!(is_loop_heavy(&loopy));
        let packed = plan(&lanes_for(&configs, &loopy), true);
        assert_eq!(packed.lanes[4], LanePath::Packed(0));
        assert_eq!(packed.lanes[6], LanePath::Slot(0));
        // Without both twins a tournament runs whole on either shape.
        for configs in tournaments_without_twin_pairs() {
            for loop_heavy in [false, true] {
                let plan = plan(&lanes_for(&configs, &churny), loop_heavy);
                assert!(
                    !plan.lanes.iter().any(|path| matches!(path, LanePath::Derived { .. })),
                    "{plan:?}"
                );
            }
        }
    }

    #[test]
    fn every_forced_plan_matches_the_record_walk() {
        // The planner picks one strategy per stream shape; the executor
        // must be exact under all of them. Force each alternative on a
        // loop-heavy and a churny stream, for every lane mix above:
        // the chosen plan, every lane scalar but the slot-major ones,
        // every associative pack private / stepped / logged on a shared
        // engine (replays private or logged), and the other shape's plan
        // (mask-singleton AT lanes packed on the churny stream, unpacked
        // on the loop-heavy one) under each driver. No plan ever steps
        // an LS or ST lane per event, and a derived lane's twins always
        // step per event.
        let [unequal_twins, at_twin_only, gshare_twin_only] = tournaments_without_twin_pairs();
        let mixes = [
            sweep(),
            organizations(),
            ls_lanes_on_every_organization(),
            shared_ls_replays(),
            ls_only(),
            at_packs_with_singletons(),
            at_evictions(),
            at_pack_only(),
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
            let loop_heavy = is_loop_heavy(&trace);
            for configs in &mixes {
                let lanes = lanes_for(configs, &trace);
                let mut plans = vec![("all lanes scalar", scalar_plan(&lanes))];
                for (shape, base) in [
                    ("chosen", plan(&lanes, loop_heavy)),
                    ("other shape's", plan(&lanes, !loop_heavy)),
                ] {
                    plans.push((shape, base.clone()));
                    plans.push(("private", drive_packs(base.clone(), None)));
                    plans.push(("stepped", drive_packs(base.clone(), Some(SlotDriver::Stepped))));
                    plans.push(("logged", drive_packs(base, Some(SlotDriver::Logged))));
                }
                for (what, forced) in plans {
                    for (i, lane) in lanes.iter().enumerate() {
                        if let GangLane::LeeSmith(_) | GangLane::StaticTraining(_) = lane {
                            let path = forced.lanes[i];
                            let LanePath::SlotMajor(r) = path else {
                                panic!("{what} plan gives {lane:?} the {path:?} path");
                            };
                            assert!(forced.replays[r].lanes.contains(&i), "{what} plan");
                        }
                        if let LanePath::Derived { first, second } = forced.lanes[i] {
                            let scalar = |twin: usize| {
                                matches!(forced.lanes[twin], LanePath::Site | LanePath::Slot(_))
                            };
                            assert!(scalar(first) && scalar(second), "{what} plan");
                        }
                    }
                    let mut lanes = lanes_for(configs, &trace);
                    let results = execute(&mut lanes, &forced, &compiled, Some(&trace), options);
                    let what = format!("{what} plan {forced:?} (loop-heavy: {loop_heavy})");
                    assert_matches_records(&what, configs, &trace, options, &lanes, &results);
                }
            }
        }
    }

    #[test]
    fn fig10_lone_at_lane_packs_only_on_loop_heavy_streams() {
        let configs = crate::experiment::sweep_spec("fig10")
            .expect("fig10 is registered")
            .configs;
        let ahrt = HrtConfig::ahrt(512);
        let replay = |driver| GroupPlan {
            hrt: ahrt,
            lanes: vec![1, 2, 4],
            driver,
        };
        // Churny: the lone AT lane stays scalar on the shared engine,
        // and the ST and LS lanes replay its probe log.
        let churny = SyntheticStream::mixed(0xf10, 64).generate(6_000);
        assert!(!is_loop_heavy(&churny));
        assert_eq!(
            plan(&lanes_for(&configs, &churny), false),
            WalkPlan {
                lanes: vec![
                    LanePath::Slot(0),
                    LanePath::SlotMajor(0),
                    LanePath::SlotMajor(0),
                    LanePath::ClosedForm,
                    LanePath::SlotMajor(0),
                ],
                engines: vec![ahrt],
                packs: vec![],
                replays: vec![replay(SlotDriver::Logged(0))],
            }
        );
        // Loop-heavy: the AT lane packs, no scalar lane is left, and
        // the pack and the replay each probe privately.
        let loopy = loop_heavy_trace(6_000);
        assert!(is_loop_heavy(&loopy));
        assert_eq!(
            plan(&lanes_for(&configs, &loopy), true),
            WalkPlan {
                lanes: vec![
                    LanePath::Packed(0),
                    LanePath::SlotMajor(0),
                    LanePath::SlotMajor(0),
                    LanePath::ClosedForm,
                    LanePath::SlotMajor(0),
                ],
                engines: vec![],
                packs: vec![GroupPlan {
                    hrt: ahrt,
                    lanes: vec![0],
                    driver: SlotDriver::Private,
                }],
                replays: vec![replay(SlotDriver::Private)],
            }
        );
    }
}
