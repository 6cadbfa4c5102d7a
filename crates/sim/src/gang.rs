//! Single-pass gang simulation: one trace walk feeding many predictors.
//!
//! `engine::simulate` walks the branch stream once per configuration,
//! so an N-configuration sweep pays N full memory-bandwidth passes over
//! the same trace plus a dyn-dispatched call per branch. Sweeps are the
//! harness's hot path (every table/figure is one), and predictors never
//! interact — so the gang engine walks the trace *once*, feeding every
//! configuration's predictor in turn from the same hot `BranchRecord`.
//!
//! Six further savings fall out:
//!
//! * **Monomorphization** — the common sweep schemes
//!   ([`TwoLevelAdaptive`], [`LeeSmithBtb`], [`StaticTraining`],
//!   [`ProfilePredictor`]) run as concrete enum variants of
//!   [`GangLane`], so their per-branch predict/update is a direct
//!   (inlinable) call; everything else takes the boxed dyn fallback
//!   lane.
//! * **Stream compilation** — monomorphized lanes are fed from a
//!   site-interned SoA event stream ([`CompiledTrace`]), compiled once
//!   per workload, and every lane's table coordinates are resolved per
//!   static site up front ([`SiteResolver`]), so the hot loop does no
//!   per-branch set/tag/hash arithmetic and touches ~5 bytes per event
//!   instead of a 16-byte record (see DESIGN.md's "Hot-loop anatomy").
//! * **Shared probe engines** — associative lanes with the same table
//!   geometry see identical tag/LRU decision sequences, so one
//!   payload-free [`SlotProbe`] per geometry (built only when two or
//!   more lanes share it) pays the way scan and victim search once per
//!   event; each lane applies the replayed slot decision via a direct
//!   indexed entry access, and the engine's access statistics are
//!   folded back into every sharing lane once per walk.
//! * **Bitsliced gang lanes** — same-geometry lanes whose per-event
//!   state fits two-bit automata group into SWAR plane packs. LS
//!   lanes pack per table slot (one automaton each,
//!   [`tlat_core::LanePack`]); Two-Level lanes sharing an
//!   [`HrtConfig`] pack per pattern-table row
//!   ([`tlat_core::AtPack`]), where the level-one history walk is
//!   shared once per pack — history registers depend only on the
//!   outcome stream and HRT geometry, so one per-slot register
//!   drives every lane's masked row index, and the variant ×
//!   history-length grid of a fig10 sweep collapses into a handful
//!   of packs. Both flavors share the slot drivers: ideal, hashed,
//!   and private associative packs skip the per-event loop entirely
//!   and replay the stream in `(site, outcome)` runs; packs riding a
//!   mixed gang's shared probe engine either log each probe's slot
//!   (loop-heavy streams; the pack replays the log in `(slot,
//!   outcome)` runs afterwards) or take one branchless plane step per
//!   event in-loop (churny streams). In every run-replayed walk a
//!   loop branch's same-outcome tail applies in O(1) once every
//!   history register saturates and every automaton sits at its
//!   fixed point.
//! * **Closed-form profile scoring** — a profile lane's frozen
//!   per-site bits never change during a walk, so its score is a
//!   weighted sum over the compiled stream's per-site taken counts:
//!   per site, not per event, and identical to event-by-event
//!   recording.
//! * **Shared RAS** — return-address-stack behaviour depends only on
//!   the trace, never on the direction predictor, so the gang simulates
//!   the RAS once and stamps the same stats into every lane's result.
//!
//! A compiled walk is decided before it runs: `plan` turns the lanes
//! and the stream's shape into a `WalkPlan` value — each lane's path,
//! the shared engines, and each pack's lanes and slot driver — and one
//! executor runs any such plan. Results are bit-identical to driving
//! [`crate::simulate_with`] once per predictor, and to the reference
//! record walk [`gang_simulate_records`], under every plan: each lane
//! observes exactly the same predict/update sequence it would alone.

use crate::config::SchemeConfig;
use crate::engine::SimOptions;
use crate::metrics::{self, Counter, Phase};
use crate::pool::{catch_cell, CellPanic};
use crate::stats::{PredictionStats, SimResult};
use std::collections::HashMap;
use tlat_core::{
    AtPack, HrtConfig, HrtStats, LanePack, LeeSmithBtb, Predictor, Probe, ProbeOutcome,
    ProfilePredictor, SiteKeys, SiteResolver, SlotProbe, StaticTraining, StaticTrainingConfig,
    TwoLevelAdaptive,
};
use tlat_trace::{
    BranchClass, BranchRecord, CompiledTrace, RasEvent, ReturnAddressStack, SiteId, Trace,
};

/// One predictor riding a gang walk.
///
/// The concrete variants exist purely so the per-branch inner loop can
/// call them without dynamic dispatch (and, on the compiled stream,
/// with site-resolved table coordinates); [`GangLane::Dyn`] carries
/// every other scheme.
pub enum GangLane {
    /// The paper's Two-Level Adaptive Training scheme, monomorphized.
    TwoLevel(TwoLevelAdaptive),
    /// The Lee & Smith BTB scheme, monomorphized.
    LeeSmith(LeeSmithBtb),
    /// Lee & Smith's Static Training scheme, monomorphized.
    StaticTraining(StaticTraining),
    /// The §4.2 profiling scheme, monomorphized (its frozen per-branch
    /// bits resolve to a dense per-site table on the compiled stream).
    Profile(ProfilePredictor),
    /// Any other predictor, behind the usual trait object.
    Dyn(Box<dyn Predictor>),
}

impl std::fmt::Debug for GangLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("GangLane").field(&self.name()).finish()
    }
}

impl GangLane {
    /// Builds the lane for a configuration, picking the monomorphized
    /// variant when one exists.
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
            other => GangLane::Dyn(other.build(training)),
        }
    }

    /// The predictor's configuration string.
    pub fn name(&self) -> String {
        match self {
            GangLane::TwoLevel(p) => p.name(),
            GangLane::LeeSmith(p) => p.name(),
            GangLane::StaticTraining(p) => p.name(),
            GangLane::Profile(p) => p.name(),
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
            GangLane::Profile(p) => p.predict_update(branch),
            GangLane::Dyn(p) => p.predict_update(branch),
        }
    }

    /// The lane's history-table organization, for monomorphized lanes
    /// that probe one (`None` for Profile and dyn lanes). Lanes sharing
    /// an associative organization share a [`SlotProbe`] during a
    /// compiled walk.
    fn hrt_config(&self) -> Option<HrtConfig> {
        match self {
            GangLane::TwoLevel(p) => Some(p.config().hrt),
            GangLane::LeeSmith(p) => Some(p.config().hrt),
            GangLane::StaticTraining(p) => Some(p.config().hrt),
            GangLane::Profile(_) | GangLane::Dyn(_) => None,
        }
    }

    /// Folds the access statistics of the probing done on this lane's
    /// behalf (a shared engine or a pack's slot driver) into its table.
    fn adopt_probe_stats(&mut self, stats: HrtStats) {
        match self {
            GangLane::TwoLevel(p) => p.adopt_probe_stats(stats),
            GangLane::LeeSmith(p) => p.adopt_probe_stats(stats),
            GangLane::StaticTraining(p) => p.adopt_probe_stats(stats),
            GangLane::Profile(_) | GangLane::Dyn(_) => unreachable!("only table lanes probe"),
        }
    }
}

/// Lanes per bitsliced pack: one bit of each `u64` plane.
const PACK_WIDTH: usize = 64;

/// Mean same-site run length (in events) from which a stream counts
/// as loop-heavy: a mixed gang's shared packs then switch from
/// stepping inside the per-event loop to replaying a logged slot
/// stream in run chunks, and every packable Two-Level lane packs.
/// Below it, runs are too short for chunking to amortize the log's
/// write-and-rescan.
const LOG_REPLAY_MIN_RUN: usize = 3;

/// How many of a pack group's `count` candidate lanes go into bitsliced
/// packs (the rest take the scalar site/slot path).
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
    /// A member of pack `p`.
    Packed(usize),
    /// A profile lane, scored in closed form from per-site tallies.
    Profile,
    /// A dyn lane, fed the raw record stream.
    Dyn,
}

/// The bitsliced pack flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Flavor {
    /// Lee & Smith lanes on a [`LanePack`].
    LeeSmith,
    /// Two-Level lanes on an [`AtPack`].
    TwoLevel,
}

/// Where a pack's slot sequence comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotDriver {
    /// Ideal table: slot = site, a site's first run fills its slot.
    Ideal,
    /// Hashed table: per-site slots, every access hits.
    Hashed,
    /// Associative table: a pack-owned engine, advanced one real probe
    /// per same-site run.
    Private,
    /// Associative table: shared engine `e`, one plane step per event
    /// inside the per-event loop.
    Stepped(usize),
    /// Associative table: shared engine `e`, whose probes the
    /// per-event loop logs for the pack to replay in runs afterwards.
    Logged(usize),
}

/// One bitsliced pack of a [`WalkPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct PackPlan {
    flavor: Flavor,
    /// The organization every member's table shares.
    hrt: HrtConfig,
    /// Member lane indices, ascending; at most [`PACK_WIDTH`].
    lanes: Vec<usize>,
    driver: SlotDriver,
}

/// Everything a compiled walk decides before it runs. Engines and
/// packs are numbered in order of their first lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalkPlan {
    /// Each lane's path, in lane order.
    lanes: Vec<LanePath>,
    /// The geometry of each shared [`SlotProbe`].
    engines: Vec<HrtConfig>,
    packs: Vec<PackPlan>,
}

/// Decides how `lanes` ride a walk over a stream of the given shape.
///
/// * **Packing.** LS lanes sharing an exact organization, and packable
///   Two-Level lanes ([`tlat_core::TwoLevelConfig::pack_lane`]), group
///   per flavor and organization and chunk [`PACK_WIDTH`] per pack in
///   lane order, down to [`packed_quota`]'s strand rule. An AT pack's
///   row arithmetic amortizes over lanes sharing a history *mask*:
///   every distinct history length adds its own row visit per event,
///   sixteen bytes of plane where the scalar fused cycle touches one.
///   So on a churny stream an AT lane is a candidate only beside a
///   mask-group partner; on a loop-heavy stream every packable AT lane
///   packs, down to a lone one, because the pack leaves the per-event
///   loop and collapses a same-outcome run to at most `history_bits +
///   3` plane steps where scalar lanes pay every event.
/// * **Sharing.** Beside scalar per-event consumers, every associative
///   organization probed by two or more lanes gets a shared engine, and
///   every lane on it rides it: unpacked lanes replay its slot
///   decisions, packs step off it in-loop on churny streams and log its
///   probes on loop-heavy ones. Without scalar consumers there is no
///   per-event loop to ride, and associative packs probe privately.
fn plan(lanes: &[GangLane], loop_heavy: bool) -> WalkPlan {
    // The pack group each lane could join, with a Two-Level lane's
    // history length: its mask group.
    let keys: Vec<Option<(Flavor, HrtConfig, Option<u8>)>> = lanes
        .iter()
        .map(|lane| match lane {
            GangLane::LeeSmith(p) => Some((Flavor::LeeSmith, p.config().hrt, None)),
            GangLane::TwoLevel(p) => {
                let bits = p.config().pack_lane()?.history_bits;
                Some((Flavor::TwoLevel, p.config().hrt, Some(bits)))
            }
            _ => None,
        })
        .collect();
    let mut groups: HashMap<(Flavor, HrtConfig), Vec<usize>> = HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        let Some((flavor, hrt, mask)) = *key else {
            continue;
        };
        if mask.is_none() || loop_heavy || keys.iter().filter(|&other| other == key).count() >= 2 {
            groups.entry((flavor, hrt)).or_default().push(i);
        }
    }
    for ((flavor, _), members) in &mut groups {
        if *flavor == Flavor::LeeSmith || !loop_heavy {
            members.truncate(packed_quota(members.len()));
        }
    }
    // Scalar per-event consumers remain exactly when some table lane
    // went unpacked.
    let table_lanes: Vec<HrtConfig> = lanes.iter().filter_map(GangLane::hrt_config).collect();
    let packed: usize = groups.values().map(Vec::len).sum();
    let mut engines: Vec<HrtConfig> = Vec::new();
    if table_lanes.len() > packed {
        for &hrt in &table_lanes {
            let shared = table_lanes.iter().filter(|&&other| other == hrt).count() >= 2;
            if shared && matches!(hrt, HrtConfig::Associative { .. }) && !engines.contains(&hrt) {
                engines.push(hrt);
            }
        }
    }
    let engine = |hrt: HrtConfig| engines.iter().position(|&shared| shared == hrt);
    let mut packs: Vec<PackPlan> = Vec::new();
    for ((flavor, hrt), members) in groups {
        let driver = match (hrt, engine(hrt)) {
            (HrtConfig::Ideal, _) => SlotDriver::Ideal,
            (HrtConfig::Hashed { .. }, _) => SlotDriver::Hashed,
            (_, None) => SlotDriver::Private,
            (_, Some(e)) if loop_heavy => SlotDriver::Logged(e),
            (_, Some(e)) => SlotDriver::Stepped(e),
        };
        for chunk in members.chunks(PACK_WIDTH) {
            packs.push(PackPlan {
                flavor,
                hrt,
                lanes: chunk.to_vec(),
                driver,
            });
        }
    }
    packs.sort_by_key(|pack| pack.lanes[0]);
    let mut paths: Vec<LanePath> = lanes
        .iter()
        .map(|lane| match (lane, lane.hrt_config().and_then(engine)) {
            (GangLane::Profile(_), _) => LanePath::Profile,
            (GangLane::Dyn(_), _) => LanePath::Dyn,
            (_, Some(e)) => LanePath::Slot(e),
            (_, None) => LanePath::Site,
        })
        .collect();
    for (p, pack) in packs.iter().enumerate() {
        for &i in &pack.lanes {
            paths[i] = LanePath::Packed(p);
        }
    }
    WalkPlan {
        lanes: paths,
        engines,
        packs,
    }
}

/// The plane operations both pack flavors share, so assembly, the
/// slot drivers, run replay and fold-back are written once: a pack
/// re-initializes a slot on a fill, steps a slot per event, applies
/// same-outcome runs in O(1) past its convergence depth, and reports
/// its per-lane correct counts (every pack predicts every event once).
trait RunPack: Sized {
    /// Planes for `members` of `lanes` (all of this pack's flavor) over
    /// `slots` table slots.
    fn assemble(lanes: &[GangLane], members: &[usize], slots: usize) -> Self;
    fn fill_slot(&mut self, slot: usize);
    fn step(&mut self, slot: usize, taken: bool) -> u64;
    fn apply_run(&mut self, slot: usize, taken: bool, n: u64);
    fn correct_counts(&mut self) -> Vec<u64>;
}

/// Implements [`RunPack`] for a plane type through its same-named
/// inherent methods, building it from each `GangLane::$lane` member's
/// `$spec`.
macro_rules! run_pack {
    ($planes:ident, $lane:ident, $spec:expr) => {
        impl RunPack for $planes {
            fn assemble(lanes: &[GangLane], members: &[usize], slots: usize) -> Self {
                let specs: Vec<_> = members
                    .iter()
                    .map(|&i| match &lanes[i] {
                        GangLane::$lane(p) => $spec(p),
                        _ => unreachable!("a pack carries one lane kind"),
                    })
                    .collect();
                $planes::new(&specs, slots)
            }
            fn fill_slot(&mut self, slot: usize) {
                $planes::fill_slot(self, slot);
            }
            fn step(&mut self, slot: usize, taken: bool) -> u64 {
                $planes::step(self, slot, taken)
            }
            fn apply_run(&mut self, slot: usize, taken: bool, n: u64) {
                $planes::apply_run(self, slot, taken, n);
            }
            fn correct_counts(&mut self) -> Vec<u64> {
                $planes::correct_counts(self)
            }
        }
    };
}

run_pack!(LanePack, LeeSmith, |p: &LeeSmithBtb| p.config().automaton);
run_pack!(AtPack, TwoLevel, |p: &TwoLevelAdaptive| {
    p.config().pack_lane().expect("only packable lanes pack")
});

/// Builds the planes of every `flavor` pack in `plan`. Ideal planes
/// hold a slot per site (a site's first run fills it, which is what
/// growing the table would do); the others are sized to the table.
fn assemble<'p, P: RunPack>(
    plan: &'p WalkPlan,
    flavor: Flavor,
    lanes: &[GangLane],
    compiled: &CompiledTrace,
) -> Vec<(P, &'p PackPlan)> {
    plan.packs
        .iter()
        .filter(|pack| pack.flavor == flavor)
        .map(|pack| {
            let slots = match pack.hrt {
                HrtConfig::Ideal => compiled.num_sites(),
                HrtConfig::Associative { entries, .. } | HrtConfig::Hashed { entries } => entries,
            };
            (P::assemble(lanes, &pack.lanes, slots), pack)
        })
        .collect()
}

/// Advances a shared engine by one event, logging the probe when a pack
/// replays it afterwards. Kept out of line on purpose: with the way
/// scan inlined into the per-event loop, the scalar slot lanes beside
/// it ran ~25 % slower (fig7's four Two-Level slot lanes, 500 k
/// branches per trace).
#[inline(never)]
fn probe(engine: &mut SlotProbe, log: &mut Option<Vec<Probe>>, site: SiteId) -> Probe {
    let probe = engine.step(site);
    if let Some(log) = log {
        log.push(probe);
    }
    probe
}

/// One in-loop event for every stepped pack: a branchless plane step
/// off the probe its shared engine just made.
#[inline]
fn step_packs<P: RunPack>(packs: &mut [(P, &PackPlan)], probes: &[Probe], taken: bool) {
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
fn replay_runs<P: RunPack, K: Copy + PartialEq>(
    planes: &mut P,
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

/// Completes every pack of one flavor: replays the packs that left
/// the per-event loop, then folds each lane's counts and the driver's
/// [`HrtStats`] back by lane index. A packed lane's own table payload
/// goes stale (the pack owns it for the walk, as on the slot path);
/// only predicted/correct and the adopted statistics are observable.
fn finish_packs<P: RunPack>(
    packs: Vec<(P, &PackPlan)>,
    engines: &[(SlotProbe, Option<Vec<Probe>>)],
    resolver: &mut SiteResolver,
    compiled: &CompiledTrace,
    lanes: &mut [GangLane],
    stats: &mut [PredictionStats],
) {
    for (mut planes, pack) in packs {
        let probe_stats = match pack.driver {
            SlotDriver::Stepped(e) => engines[e].0.stats(),
            // The probing is already paid: equal probes group into
            // runs, and a fill applies once, up front — a filled way
            // is valid by its next probe, so a fill cannot repeat
            // within a run.
            SlotDriver::Logged(e) => {
                let log = engines[e].1.as_deref().expect("a logged engine keeps its log");
                replay_runs(&mut planes, compiled, log, |probe, n| {
                    let filled = probe.outcome == ProbeOutcome::Filled;
                    debug_assert!(n == 1 || !filled, "a filled way is valid on its next probe");
                    (probe.slot as usize, filled)
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

/// Runs `plan` over `compiled`: the one executor behind every walk
/// strategy.
///
/// Scalar lanes and stepped packs run event-major: the `(site, taken)`
/// decode and the shared engines' probes are paid once per event and
/// amortized over all of them (the tables of a paper-sized sweep are
/// small enough to stay cache-resident across lanes), and a plan with
/// no per-event consumer skips that loop outright. Every other pack and
/// lane finishes on its own afterwards. Lanes never interact, so any
/// event-vs-lane loop order is observably identical.
fn execute(
    lanes: &mut [GangLane],
    plan: &WalkPlan,
    compiled: &CompiledTrace,
    dyn_source: Option<&Trace>,
    options: SimOptions,
) -> Vec<SimResult> {
    let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());
    // Each shared engine, with a log of its probes when a pack replays
    // them.
    let mut engines: Vec<(SlotProbe, Option<Vec<Probe>>)> = plan
        .engines
        .iter()
        .enumerate()
        .map(|(e, &hrt)| {
            let engine = SlotProbe::build(hrt, &mut resolver).expect("engines are associative");
            let logged = plan.packs.iter().any(|pack| pack.driver == SlotDriver::Logged(e));
            (engine, logged.then(|| Vec::with_capacity(compiled.len())))
        })
        .collect();
    let mut ls_packs = assemble::<LanePack>(plan, Flavor::LeeSmith, lanes, compiled);
    let mut at_packs = assemble::<AtPack>(plan, Flavor::TwoLevel, lanes, compiled);
    metrics::add(Counter::LsPacksFormed, ls_packs.len() as u64);
    metrics::add(Counter::AtPacksFormed, at_packs.len() as u64);
    let packed: usize = plan.packs.iter().map(|pack| pack.lanes.len()).sum();
    metrics::add(Counter::LanesPacked, packed as u64);
    let mut stats = vec![PredictionStats::default(); lanes.len()];
    // Partition once so the per-event loop is free of lane-kind
    // dispatch: each group's calls are direct.
    let (mut at_sites, mut ls_sites, mut st_sites) = (Vec::new(), Vec::new(), Vec::new());
    let (mut at_slots, mut ls_slots, mut st_slots) = (Vec::new(), Vec::new(), Vec::new());
    for ((lane, stat), &path) in lanes.iter_mut().zip(&mut stats).zip(&plan.lanes) {
        match (lane, path) {
            (GangLane::TwoLevel(p), LanePath::Site) => {
                p.bind_sites(&mut resolver);
                at_sites.push((p, stat));
            }
            (GangLane::LeeSmith(p), LanePath::Site) => {
                p.bind_sites(&mut resolver);
                ls_sites.push((p, stat));
            }
            (GangLane::StaticTraining(p), LanePath::Site) => {
                p.bind_sites(&mut resolver);
                st_sites.push((p, stat));
            }
            (GangLane::TwoLevel(p), LanePath::Slot(e)) => at_slots.push((e, p, stat)),
            (GangLane::LeeSmith(p), LanePath::Slot(e)) => ls_slots.push((e, p, stat)),
            (GangLane::StaticTraining(p), LanePath::Slot(e)) => st_slots.push((e, p, stat)),
            (_, LanePath::Packed(_) | LanePath::Profile | LanePath::Dyn) => {} // finished below
            (lane, path) => unreachable!("{lane:?} cannot take the {path:?} path"),
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
            for (e, p, stat) in &mut at_slots {
                stat.record(p.predict_update_slot(probes[*e], taken) == taken);
            }
            for (e, p, stat) in &mut ls_slots {
                stat.record(p.predict_update_slot(probes[*e], taken) == taken);
            }
            for (e, p, stat) in &mut st_slots {
                stat.record(p.predict_update_slot(probes[*e], taken) == taken);
            }
            for (p, stat) in &mut at_sites {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut ls_sites {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut st_sites {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            step_packs(&mut ls_packs, &probes, taken);
            step_packs(&mut at_packs, &probes, taken);
        }
    }
    finish_packs(ls_packs, &engines, &mut resolver, compiled, lanes, &mut stats);
    finish_packs(at_packs, &engines, &mut resolver, compiled, lanes, &mut stats);
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
/// are fed from `compiled` alone, through
/// [`TwoLevelAdaptive::predict_update_site`] /
/// [`LeeSmithBtb::predict_update_site`] and the shared engines and
/// packs the walk's plan picks for them; the stream's shape (its mean
/// same-site run) is read O(1) from the compiled stream. `dyn_source`
/// supplies the raw record stream for dyn lanes; the streaming sweep
/// path — where a TLA3 cache entry was decoded straight into `compiled`
/// and the records were never materialized — passes `None`, which is
/// valid exactly when every lane is monomorphized. Results are bit-identical to
/// [`gang_simulate_records`], which is pinned by tests and kept as the
/// reference walk.
///
/// # Panics
///
/// Panics if a [`GangLane::Dyn`] lane is present and `dyn_source` is
/// `None` (callers gate on lane kinds before taking the record-free
/// path).
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
/// compiled stream and — only when some lane is dyn — its record
/// source.
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
    use tlat_core::AutomatonKind;
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

    /// A lane's adopted table statistics, where it has a table.
    fn table_stats(lane: &GangLane) -> Option<HrtStats> {
        match lane {
            GangLane::TwoLevel(p) => Some(p.hrt_stats()),
            GangLane::LeeSmith(p) => Some(p.table_stats()),
            GangLane::StaticTraining(p) => Some(p.hrt_stats()),
            GangLane::Profile(_) | GangLane::Dyn(_) => None,
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
    fn dyn_only_gangs_match_the_record_walk() {
        let trace = SyntheticStream::mixed(0xd1, 16).generate(2_000);
        let configs = vec![SchemeConfig::Btfn, SchemeConfig::AlwaysTaken];
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    #[test]
    fn monomorphized_lanes_are_used_for_the_common_schemes() {
        let lanes = lanes_for(&sweep(), &Trace::new());
        assert!(matches!(lanes[0], GangLane::TwoLevel(_)));
        assert!(matches!(lanes[1], GangLane::LeeSmith(_)));
        assert!(matches!(lanes[2], GangLane::StaticTraining(_)));
        assert!(matches!(lanes[3], GangLane::Dyn(_))); // BTFN
        assert!(matches!(lanes[4], GangLane::Profile(_)));
        // Lane names still come through for diagnostics.
        assert!(lanes[0].name().starts_with("AT("));
        assert!(format!("{:?}", lanes[1]).contains("LS("));
        assert!(lanes[2].name().starts_with("ST("));
        assert_eq!(lanes[4].name(), "Profile");
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

    /// Packs form wherever ≥2 LS lanes share an exact geometry: five
    /// automata on the paper AHRT, pairs on ideal / hashed / a small
    /// eviction-heavy associative table, plus a singleton LS straggler
    /// and a lone AT lane — both scalar on a churny stream (an AT lane
    /// with no mask-group partner packs only on loop-heavy streams).
    fn ls_packs_with_stragglers() -> Vec<SchemeConfig> {
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
            SchemeConfig::ls(HrtConfig::ahrt(256), AutomatonKind::A2), // straggler
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        ]
    }

    #[test]
    fn bitsliced_packs_match_the_record_walk_across_organizations() {
        // The synthetic stream visits sites at random, so same-site
        // runs barely form and shared packs must take the in-loop
        // plane-stepping strategy here.
        let trace = SyntheticStream::mixed(0xb175, 80).generate(6_000);
        assert!(
            !is_loop_heavy(&trace),
            "trace drifted loop-heavy; this test pins the stepped-pack path"
        );
        assert_walk_matches_records(
            &ls_packs_with_stragglers(),
            &trace,
            SimOptions { ras_entries: 8 },
        );
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
    /// packs ride the gang's probe engines; the tiny 2-way table forces
    /// evictions and refills mid-stream.
    fn shared_ls_packs() -> Vec<SchemeConfig> {
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
        // On a loop-heavy stream the shared packs take the log-replay
        // strategy: record each probe during the event loop, then apply
        // whole same-slot same-outcome runs in word-sized chunks
        // afterwards; the fill flag rides the log too. Still
        // bit-identical.
        let trace = loop_heavy_trace(6_000);
        assert!(
            is_loop_heavy(&trace),
            "trace must be loop-heavy enough to trip the log-replay gate"
        );
        let configs = shared_ls_packs();
        let plan = plan(&lanes_for(&configs, &trace), true);
        assert!(plan
            .packs
            .iter()
            .any(|pack| matches!(pack.driver, SlotDriver::Logged(_))));
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// With no AT/ST lane and no unpacked LS lane, the per-event loop
    /// has no consumers: every pack owns its probe (private engine for
    /// associative geometries) and replays the stream in (site,
    /// outcome) runs, word-chunked against the outcome bitvec.
    fn ls_pack_only() -> Vec<SchemeConfig> {
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
    fn pack_only_gangs_take_the_chunked_run_walk() {
        let trace = SyntheticStream::mixed(0x517e, 64).generate(6_000);
        let configs = ls_pack_only();
        let plan = plan(&lanes_for(&configs, &trace), false);
        assert!(plan.engines.is_empty() && plan.lanes.iter().all(|p| *p != LanePath::Site));
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn packs_wider_than_a_word_chunk_and_strand_the_straggler() {
        // 65 same-geometry LS lanes: one full 64-lane pack plus one
        // scalar straggler (packed_quota refuses one-lane packs).
        assert_eq!(packed_quota(0), 0);
        assert_eq!(packed_quota(1), 0);
        assert_eq!(packed_quota(2), 2);
        assert_eq!(packed_quota(64), 64);
        assert_eq!(packed_quota(65), 64);
        assert_eq!(packed_quota(66), 66);
        assert_eq!(packed_quota(129), 128);
        let trace = SyntheticStream::mixed(0x65, 24).generate(2_000);
        let kinds = AutomatonKind::ALL;
        let configs: Vec<SchemeConfig> = (0..65)
            .map(|i| SchemeConfig::ls(HrtConfig::ahrt(512), kinds[i % kinds.len()]))
            .collect();
        let plan = plan(&lanes_for(&configs, &trace), false);
        assert_eq!(plan.packs.len(), 1);
        assert_eq!(plan.lanes[64], LanePath::Slot(0), "the straggler rides the pack's engine");
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
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
    /// scalar by the churny gate, and an LS pack rides alongside.
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
            .any(|pack| pack.flavor == Flavor::TwoLevel
                && matches!(pack.driver, SlotDriver::Stepped(_))));
        assert_eq!(plan.lanes[2], LanePath::Slot(0), "mask-singletons stay scalar");
        assert_walk_matches_records(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// The eviction-interplay mix: AT packs on a tiny 2-way AHRT that
    /// churns through fills, hits, and replacements, never seeing tags
    /// — only slot decisions. A replaced slot must inherit the victim's
    /// plane state and a filled slot must re-read its cached plane from
    /// the *evolved* pattern tables, or predictions drift. The ST lane
    /// keeps a scalar consumer in the gang. On a loop-heavy stream AT
    /// singletons pack too: the lone ahrt(256) lane is alone on its
    /// geometry and falls back to a private probe, and the lone ideal
    /// and hashed singletons take their flavor's run replay.
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
        // lanes: all 65 are pack-eligible, so the LS strand rule
        // applies — one full 64-lane pack plus one scalar straggler
        // (a one-lane final chunk would be pure overhead here).
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
        // fill only where the probe filled.
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
        ];
        let plan = plan(&lanes_for(&configs, &trace), true);
        assert_eq!(plan.packs[0].driver, SlotDriver::Logged(0));
        assert_walk_matches_records(&configs, &trace, SimOptions::default());
    }

    /// `plan` with packing off: every table lane scalar, riding a
    /// shared engine wherever two or more lanes share an associative
    /// organization.
    fn scalar_plan(lanes: &[GangLane]) -> WalkPlan {
        let mut plan = WalkPlan {
            lanes: Vec::new(),
            engines: Vec::new(),
            packs: Vec::new(),
        };
        for lane in lanes {
            let hrt = lane.hrt_config();
            let sharers = lanes.iter().filter(|l| l.hrt_config() == hrt).count();
            let path = match (lane, hrt) {
                (GangLane::Profile(_), _) => LanePath::Profile,
                (GangLane::Dyn(_), _) => LanePath::Dyn,
                (_, Some(hrt @ HrtConfig::Associative { .. })) if sharers >= 2 => {
                    LanePath::Slot(engine_for(&mut plan.engines, hrt))
                }
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
    /// where the plan has none.
    fn drive_packs(mut plan: WalkPlan, shared: Option<fn(usize) -> SlotDriver>) -> WalkPlan {
        for pack in &mut plan.packs {
            if matches!(pack.hrt, HrtConfig::Associative { .. }) {
                pack.driver = match shared {
                    Some(driver) => driver(engine_for(&mut plan.engines, pack.hrt)),
                    None => SlotDriver::Private,
                };
            }
        }
        plan
    }

    #[test]
    fn every_forced_plan_matches_the_record_walk() {
        // The planner picks one strategy per stream shape; the executor
        // must be exact under all of them. Force each alternative on a
        // loop-heavy and a churny stream, for every lane mix above:
        // the chosen plan, every lane scalar, every associative pack
        // private / stepped / logged on a shared engine, and the other
        // shape's plan (mask-singleton AT lanes packed on the churny
        // stream, unpacked on the loop-heavy one) under each driver.
        let mixes = [
            sweep(),
            organizations(),
            ls_packs_with_stragglers(),
            shared_ls_packs(),
            ls_pack_only(),
            at_packs_with_singletons(),
            at_evictions(),
            at_pack_only(),
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
        let ls_pack = |driver| PackPlan {
            flavor: Flavor::LeeSmith,
            hrt: ahrt,
            lanes: vec![2, 4],
            driver,
        };
        let churny = SyntheticStream::mixed(0xf10, 64).generate(6_000);
        assert!(!is_loop_heavy(&churny));
        assert_eq!(
            plan(&lanes_for(&configs, &churny), false),
            WalkPlan {
                lanes: vec![
                    LanePath::Slot(0),
                    LanePath::Slot(0),
                    LanePath::Packed(0),
                    LanePath::Profile,
                    LanePath::Packed(0),
                ],
                engines: vec![ahrt],
                packs: vec![ls_pack(SlotDriver::Stepped(0))],
            }
        );
        let loopy = loop_heavy_trace(6_000);
        assert!(is_loop_heavy(&loopy));
        assert_eq!(
            plan(&lanes_for(&configs, &loopy), true),
            WalkPlan {
                lanes: vec![
                    LanePath::Packed(0),
                    LanePath::Slot(0),
                    LanePath::Packed(1),
                    LanePath::Profile,
                    LanePath::Packed(1),
                ],
                engines: vec![ahrt],
                packs: vec![
                    PackPlan {
                        flavor: Flavor::TwoLevel,
                        hrt: ahrt,
                        lanes: vec![0],
                        driver: SlotDriver::Logged(0),
                    },
                    ls_pack(SlotDriver::Logged(0)),
                ],
            }
        );
    }
}
