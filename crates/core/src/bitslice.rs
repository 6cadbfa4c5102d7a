//! Bitsliced pattern-history automata: up to 64 Two-Level lanes'
//! pattern tables kept as two `u64` planes per row.
//!
//! Every automaton variant of the paper's Figure 2 (Last-Time and
//! A1–A4) is expressed as a [`SliceTables`]: per-state λ/δ bit masks
//! *derived* from the scalar [`Automaton`](crate::Automaton)
//! implementations at construction time, so no consumer of the 2-bit
//! state codes can drift from `automaton.rs`. The derivation also
//! asserts the convergence invariant that run-chunked replays rely on:
//! from any state, three same-outcome updates reach a fixed point whose
//! prediction equals that outcome. The gang walk's slot-major replay
//! steps Lee & Smith lanes through these codes one lane at a time; an
//! [`AtPack`] steps up to 64 lanes of them at once.
//!
//! An [`AtPack`] rides up to 64 `AT` lanes whose HRT geometry matches,
//! keeping every lane's *pattern table* as `2^k_max` rows of two
//! `u64` planes and one shared history register per table slot. The
//! level-one walk is shared because history registers depend only on
//! the outcome stream and the slot discipline — never on the
//! automaton variant or the table contents — and a `k`-bit register
//! is exactly the low `k` bits of a longer one fed the same outcomes
//! (both shift left from all-ones under a length mask). Lanes with
//! shorter `history_bits` therefore index their rows through per-lane
//! pattern masks of the shared register, grouped so one masked
//! row-step serves every lane of a given history length.

use crate::automaton::AutomatonKind;
use crate::pattern::PatternTable;

/// Branchless λ/δ tables for one automaton variant, one bit per 2-bit
/// state code (see [`crate::AnyAutomaton::state_bits`]).
///
/// Bit `s` of each mask describes state code `s`:
/// `predict` holds λ(s), `next_hi[t]`/`next_lo[t]` hold the two bits
/// of δ(s, t). Derived from — never hand-written next to — the scalar
/// automaton; `tests/bitslice_prop.rs` pins every mask against
/// `automaton.rs` state by state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceTables {
    /// The variant these tables encode.
    pub kind: AutomatonKind,
    /// Bit `s`: λ(s) — does state `s` predict taken?
    pub predict: u8,
    /// Bit `s` of `next_hi[t]`: high state bit of δ(s, t).
    pub next_hi: [u8; 2],
    /// Bit `s` of `next_lo[t]`: low state bit of δ(s, t).
    pub next_lo: [u8; 2],
    /// State code of [`AutomatonKind::init`].
    pub init: u8,
}

impl SliceTables {
    /// Derives the tables for `kind` by enumerating decode → scalar
    /// step → encode over all four state codes.
    ///
    /// # Panics
    ///
    /// Panics if the variant violates the run-chunking invariant:
    /// δ(δ³(s, t), t) = δ³(s, t) and λ(δ³(s, t)) = t for every state
    /// `s` and outcome `t`. All Figure 2 variants satisfy it (a 2-bit
    /// saturating machine can wander for at most three same-direction
    /// steps before pinning at the agreeing end).
    pub fn derive(kind: AutomatonKind) -> Self {
        let mut predict = 0u8;
        let mut next_hi = [0u8; 2];
        let mut next_lo = [0u8; 2];
        for s in 0..4u8 {
            let a = kind.from_state_bits(s);
            predict |= (a.predict() as u8) << s;
            for (ti, taken) in [false, true].into_iter().enumerate() {
                let next = a.update(taken).state_bits();
                next_hi[ti] |= (next >> 1 & 1) << s;
                next_lo[ti] |= (next & 1) << s;
            }
        }
        for s in 0..4u8 {
            for taken in [false, true] {
                let mut a = kind.from_state_bits(s);
                for _ in 0..3 {
                    a = a.update(taken);
                }
                assert!(
                    a.update(taken) == a && a.predict() == taken,
                    "{}: state {s} does not converge to a {taken}-predicting \
                     fixed point within 3 same-outcome steps",
                    kind.name(),
                );
            }
        }
        SliceTables {
            kind,
            predict,
            next_hi,
            next_lo,
            init: kind.init().state_bits(),
        }
    }
}

/// 255 one-bit adds fit in 8 carry planes (max count 255 = 2⁸ − 1).
const COUNTER_FLUSH_AT: u16 = 255;

/// Packs at or below this width count correctness with plain per-lane
/// adds instead of the vertical carry chain — a few independent
/// increments are cheaper than eight carry stages.
const NARROW_LANES: usize = 8;

/// Per-lane correct-prediction counters kept *vertically*: 8 carry
/// planes of one bit per lane, so counting a 64-lane correctness mask
/// is a short carry chain instead of 64 scalar increments. Flushed to
/// per-lane `u64` totals before the planes can saturate.
#[derive(Debug, Clone)]
struct VerticalCounter {
    planes: [u64; 8],
    pending: u16,
    totals: Vec<u64>,
}

impl VerticalCounter {
    fn new(lanes: usize) -> Self {
        VerticalCounter {
            planes: [0; 8],
            pending: 0,
            totals: vec![0; lanes],
        }
    }

    #[inline]
    fn add(&mut self, mask: u64) {
        // A narrow pack counts straight into the per-lane totals: a
        // handful of independent adds beats any carry chain, and the
        // planes stay empty so `flush` has nothing to do.
        if self.totals.len() <= NARROW_LANES {
            for (lane, total) in self.totals.iter_mut().enumerate() {
                *total += mask >> lane & 1;
            }
            return;
        }
        // Wide packs keep the carry chain fixed-depth: an early exit
        // on dead carry would be a data-dependent branch the predictor
        // can't learn (the exit depth follows each lane's count bits),
        // and the mispredicts cost more than the spare stages.
        let mut carry = mask;
        for plane in &mut self.planes {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
        debug_assert_eq!(carry, 0, "vertical counter overflow");
        self.pending += 1;
        if self.pending == COUNTER_FLUSH_AT {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for (lane, total) in self.totals.iter_mut().enumerate() {
            let mut count = 0u64;
            for (weight, plane) in self.planes.iter().enumerate() {
                count += (*plane >> lane & 1) << weight;
            }
            *total += count;
        }
        self.planes = [0; 8];
        self.pending = 0;
    }
}

/// One Two-Level lane's pack-relevant shape: everything an [`AtPack`]
/// needs to replicate the lane's scalar predict → train cycle
/// exactly. HRT organization is *not* here — slot discipline belongs
/// to the caller (lanes in one pack must share it); everything that
/// varies per lane inside the shared walk is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtLaneConfig {
    /// Pattern-history automaton variant of the lane's pattern table.
    pub kind: AutomatonKind,
    /// History register length k (the lane's table has 2^k rows).
    pub history_bits: u8,
    /// §3.2 cached-prediction-bit lane (`false` = pure two-lookup).
    pub cached_prediction: bool,
    /// Pattern-table rows start strongly-not-taken (ablation).
    pub init_not_taken: bool,
}

/// Lanes sharing one history length: their pattern mask and lane set.
/// A pack holds one group per distinct `history_bits`, so the row
/// step costs one masked read-modify-write per history length, not
/// per lane.
#[derive(Debug, Clone, Copy)]
struct AtGroup {
    /// `(1 << history_bits) - 1`: the group's slice of the shared
    /// register, and the all-ones fresh-history pattern.
    mask: u16,
    /// Lanes with this history length.
    lanes: u64,
}

/// Up to 64 Two-Level Adaptive lanes stepped as pattern-table row
/// planes over one shared per-slot history walk.
///
/// Lane `k`'s pattern-table entry for pattern `p` is the 2-bit code
/// `(rows_hi[p] >> k & 1) << 1 | rows_lo[p] >> k & 1`. Per HRT slot
/// the pack keeps one `k_max`-bit history register and a 64-lane
/// cached-prediction plane; each step walks the history once and
/// advances every lane's indexed automaton through the per-group
/// masked rows. Lanes may mix automaton variants, history lengths,
/// §3.2 caching, and init polarity: the λ/δ masks are assembled per
/// lane from each variant's [`SliceTables`]. The caller owns the slot
/// discipline (probing, fills, growth), because that is table
/// organization, not automaton state.
#[derive(Debug, Clone)]
pub struct AtPack {
    specs: Vec<AtLaneConfig>,
    lane_mask: u64,
    /// `pred[s]`: lanes whose variant predicts taken in state `s`.
    pred: [u64; 4],
    /// `next_hi[t][s]` / `next_lo[t][s]`: lanes whose variant moves to
    /// a state with that bit set on outcome `t` from state `s`.
    next_hi: [[u64; 4]; 2],
    next_lo: [[u64; 4]; 2],
    /// Lanes taking the §3.2 cached guess; the rest read λ(old row).
    cached_sel: u64,
    /// One entry per distinct history length.
    groups: Vec<AtGroup>,
    /// `(1 << k_max) - 1`: width of the shared history registers.
    history_mask: u16,
    /// Pattern-table rows: 2^k_max two-plane rows. A lane with k <
    /// k_max only ever indexes rows below 2^k (its group mask caps the
    /// row index), so its bits in higher rows stay at init.
    rows_hi: Vec<u64>,
    rows_lo: Vec<u64>,
    /// Per-slot shared history register (the level-one walk).
    hist: Vec<u16>,
    /// Per-slot cached-prediction plane (§3.2, all 64 lanes at once).
    cached: Vec<u64>,
    counts: VerticalCounter,
    uniform_correct: u64,
    events: u64,
}

impl AtPack {
    /// Builds a pack of `specs.len()` lanes with `slots` history-table
    /// slots, every slot pre-warmed exactly as the scalar predictor
    /// pre-warms its HRT entries: all-ones history, cached prediction
    /// read from the fresh pattern table.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ..= 64` lanes are requested, every
    /// `history_bits` in range.
    pub fn new(specs: &[AtLaneConfig], slots: usize) -> Self {
        assert!(
            !specs.is_empty() && specs.len() <= 64,
            "a pack holds 1..=64 lanes (got {})",
            specs.len()
        );
        let mut pred = [0u64; 4];
        let mut next_hi = [[0u64; 4]; 2];
        let mut next_lo = [[0u64; 4]; 2];
        let mut init_hi = 0u64;
        let mut init_lo = 0u64;
        let mut cached_sel = 0u64;
        let mut groups: Vec<AtGroup> = Vec::new();
        for (lane, spec) in specs.iter().enumerate() {
            assert!(
                spec.history_bits > 0 && spec.history_bits <= crate::MAX_HISTORY_BITS,
                "history length must be in 1..={}",
                crate::MAX_HISTORY_BITS
            );
            let tables = SliceTables::derive(spec.kind);
            for s in 0..4 {
                pred[s] |= u64::from(tables.predict >> s & 1) << lane;
                for t in 0..2 {
                    next_hi[t][s] |= u64::from(tables.next_hi[t] >> s & 1) << lane;
                    next_lo[t][s] |= u64::from(tables.next_lo[t] >> s & 1) << lane;
                }
            }
            let init = if spec.init_not_taken {
                spec.kind.init_not_taken().state_bits()
            } else {
                tables.init
            };
            init_hi |= u64::from(init >> 1 & 1) << lane;
            init_lo |= u64::from(init & 1) << lane;
            cached_sel |= u64::from(spec.cached_prediction) << lane;
            let mask = ((1u32 << spec.history_bits) - 1) as u16;
            match groups.iter_mut().find(|g| g.mask == mask) {
                Some(g) => g.lanes |= 1 << lane,
                None => groups.push(AtGroup {
                    mask,
                    lanes: 1 << lane,
                }),
            }
        }
        let lane_mask = if specs.len() == 64 {
            u64::MAX
        } else {
            (1u64 << specs.len()) - 1
        };
        let history_mask = groups.iter().map(|g| g.mask).max().expect("lanes exist");
        let mut pack = AtPack {
            specs: specs.to_vec(),
            lane_mask,
            pred,
            next_hi,
            next_lo,
            cached_sel,
            groups,
            history_mask,
            rows_hi: vec![init_hi; history_mask as usize + 1],
            rows_lo: vec![init_lo; history_mask as usize + 1],
            hist: Vec::new(),
            cached: Vec::new(),
            counts: VerticalCounter::new(specs.len()),
            uniform_correct: 0,
            events: 0,
        };
        let fresh = pack.fresh_cached();
        pack.hist = vec![history_mask; slots];
        pack.cached = vec![fresh; slots];
        pack
    }

    /// Number of lanes in the pack.
    pub fn lanes(&self) -> usize {
        self.specs.len()
    }

    /// Number of history-table slots currently held.
    pub fn slots(&self) -> usize {
        self.hist.len()
    }

    /// λ over all 64 lanes of one pattern-table row, read through the
    /// per-lane prediction masks.
    #[inline]
    fn lambda(&self, row: usize) -> u64 {
        let h = self.rows_hi[row];
        let l = self.rows_lo[row];
        (!h & !l & self.pred[0])
            | (!h & l & self.pred[1])
            | (h & !l & self.pred[2])
            | (h & l & self.pred[3])
    }

    /// The cached-prediction plane of a freshly initialized slot: each
    /// lane predicts what its *current* pattern table says for the
    /// all-ones pattern — matching the scalar `fresh_entry`, which
    /// reads the evolved table at fill time, not the cold one.
    fn fresh_cached(&self) -> u64 {
        let mut cached = 0u64;
        for g in &self.groups {
            cached |= self.lambda(g.mask as usize) & g.lanes;
        }
        cached
    }

    /// Steps every lane's fused predict → resolve → train cycle for
    /// one resolved branch in `slot`, counting correctness per lane.
    /// Returns the guess mask (bit `k`: lane `k` predicted taken).
    ///
    /// Per lane this replicates the scalar cycle exactly: the guess is
    /// the cached bit (§3.2 lanes) or λ of the old pattern's row read
    /// *before* the row is trained (pure lanes); the outcome shifts
    /// into the shared history; δ folds the outcome into the old
    /// pattern's row; and the cached plane is re-read from the new
    /// pattern's row *after* the write (the two patterns may index the
    /// same row). The work is one shift plus two masked row visits per
    /// distinct history length — not per lane.
    #[inline]
    pub fn step(&mut self, slot: usize, taken: bool) -> u64 {
        let old = self.hist[slot];
        let new = (old << 1 | taken as u16) & self.history_mask;
        self.hist[slot] = new;
        let guess_cached = self.cached[slot];
        let t = taken as usize;
        let mut pure = 0u64;
        let mut recached = 0u64;
        for g in &self.groups {
            let r = (old & g.mask) as usize;
            let h = self.rows_hi[r];
            let l = self.rows_lo[r];
            let i0 = !h & !l;
            let i1 = !h & l;
            let i2 = h & !l;
            let i3 = h & l;
            pure |= ((i0 & self.pred[0])
                | (i1 & self.pred[1])
                | (i2 & self.pred[2])
                | (i3 & self.pred[3]))
                & g.lanes;
            let nh = (i0 & self.next_hi[t][0])
                | (i1 & self.next_hi[t][1])
                | (i2 & self.next_hi[t][2])
                | (i3 & self.next_hi[t][3]);
            let nl = (i0 & self.next_lo[t][0])
                | (i1 & self.next_lo[t][1])
                | (i2 & self.next_lo[t][2])
                | (i3 & self.next_lo[t][3]);
            self.rows_hi[r] = h & !g.lanes | nh & g.lanes;
            self.rows_lo[r] = l & !g.lanes | nl & g.lanes;
            recached |= self.lambda((new & g.mask) as usize) & g.lanes;
        }
        self.cached[slot] = recached;
        let guess = (guess_cached & self.cached_sel | pure & !self.cached_sel) & self.lane_mask;
        let correct = if taken { guess } else { !guess } & self.lane_mask;
        self.counts.add(correct);
        self.events += 1;
        guess
    }

    /// Applies a run of `n` identical outcomes to `slot` in O(1) work
    /// beyond `k_max + 3` plane steps.
    ///
    /// The bound stacks the two convergence depths: after `k_max`
    /// same-outcome shifts the shared history register saturates (all
    /// the run's direction), pinning every group's row index, and
    /// after three more steps each lane's automaton in that fixed row
    /// sits at its outcome-predicting fixed point (asserted when the
    /// tables are derived) with the cached plane re-read from it.
    /// From there every remaining event guesses the run's direction,
    /// trains a fixed point back onto itself, and re-caches the same
    /// bit — correct for all lanes with no state change, a single
    /// shared counter increment.
    pub fn apply_run(&mut self, slot: usize, taken: bool, n: u64) {
        let explicit = n.min(u64::from(self.history_mask.count_ones()) + 3);
        for _ in 0..explicit {
            self.step(slot, taken);
        }
        self.uniform_correct += n - explicit;
        self.events += n - explicit;
    }

    /// Re-initializes `slot` — the pack-side mirror of a history-table
    /// fill on a cold or invalid entry: all-ones history, cached
    /// prediction read from the *current* pattern-table rows (the
    /// rows themselves are global state and are untouched, exactly as
    /// a scalar fill leaves the lane's pattern table alone).
    pub fn fill_slot(&mut self, slot: usize) {
        self.hist[slot] = self.history_mask;
        self.cached[slot] = self.fresh_cached();
    }

    /// Appends one freshly-initialized slot (ideal-table growth) and
    /// returns its index.
    pub fn push_slot(&mut self) -> usize {
        self.hist.push(self.history_mask);
        let fresh = self.fresh_cached();
        self.cached.push(fresh);
        self.hist.len() - 1
    }

    /// The shared history register of `slot`. Lane `k`'s scalar
    /// register is the low `history_bits` bits.
    pub fn history(&self, slot: usize) -> u16 {
        self.hist[slot]
    }

    /// The §3.2 cached-prediction plane of `slot` (bit `k`: lane `k`'s
    /// cached bit; maintained for pure lanes too, matching the scalar
    /// cycle, which rewrites the entry's bit unconditionally).
    pub fn cached_bits(&self, slot: usize) -> u64 {
        self.cached[slot]
    }

    /// Freezes lane `lane`'s plane columns back into the
    /// [`PatternTable`] the scalar walk would have built — rows `0 ..
    /// 2^k` read column-wise (the lane never indexes past its group
    /// mask, so higher rows hold its untouched init bits).
    pub fn lane_table(&self, lane: usize) -> PatternTable {
        let spec = self.specs[lane];
        let states: Vec<u8> = (0..1usize << spec.history_bits)
            .map(|r| ((self.rows_hi[r] >> lane & 1) << 1 | self.rows_lo[r] >> lane & 1) as u8)
            .collect();
        PatternTable::from_state_bits(spec.history_bits, spec.kind, &states)
    }

    /// Events stepped so far — each lane's `predicted` count.
    pub fn predicted(&self) -> u64 {
        self.events
    }

    /// Per-lane correct-prediction totals over every event stepped so
    /// far (explicit steps via the vertical counters, run tails via
    /// the shared uniform count).
    pub fn correct_counts(&mut self) -> Vec<u64> {
        self.counts.flush();
        self.counts
            .totals
            .iter()
            .map(|&t| t + self.uniform_correct)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::AnyAutomaton;

    #[test]
    fn tables_derive_for_every_variant() {
        for kind in AutomatonKind::ALL {
            let t = SliceTables::derive(kind);
            assert_eq!(t.kind, kind);
            assert_eq!(t.init, kind.init().state_bits());
        }
    }

    #[test]
    fn last_time_never_sets_the_high_plane() {
        let t = SliceTables::derive(AutomatonKind::LastTime);
        assert_eq!(t.next_hi, [0, 0]);
        assert_eq!(t.init >> 1, 0);
    }

    #[test]
    fn state_bits_round_trip_through_from_state_bits() {
        for kind in AutomatonKind::ALL {
            // Walk every state reachable from init.
            let mut frontier = vec![kind.init(), kind.init_not_taken()];
            let mut seen: Vec<AnyAutomaton> = Vec::new();
            while let Some(a) = frontier.pop() {
                if seen.contains(&a) {
                    continue;
                }
                seen.push(a);
                assert_eq!(kind.from_state_bits(a.state_bits()), a);
                frontier.push(a.update(false));
                frontier.push(a.update(true));
            }
        }
    }

    #[test]
    fn vertical_counter_survives_a_flush_boundary() {
        // 1000 adds of a two-lane mask crosses the 255-add flush point
        // three times; totals must still be exact per lane.
        let mut c = VerticalCounter::new(3);
        for i in 0..1000u64 {
            // lane 0 always, lane 1 on odd adds, lane 2 never
            c.add(0b01 | ((i & 1) << 1));
        }
        c.flush();
        assert_eq!(c.totals, vec![1000, 500, 0]);
    }

    /// One scalar Two-Level lane driven through the exact fused
    /// predict → resolve → train cycle of
    /// `TwoLevelAdaptive::predict_update_slot`, minus the HRT (the
    /// caller owns slot discipline for packs too).
    struct ScalarAtLane {
        spec: AtLaneConfig,
        table: crate::pattern::PatternTable,
        hist: Vec<crate::history::HistoryRegister>,
        cached: Vec<bool>,
    }

    impl ScalarAtLane {
        fn new(spec: AtLaneConfig, slots: usize) -> Self {
            let table = if spec.init_not_taken {
                crate::pattern::PatternTable::with_init(
                    spec.history_bits,
                    spec.kind,
                    spec.kind.init_not_taken(),
                )
            } else {
                crate::pattern::PatternTable::new(spec.history_bits, spec.kind)
            };
            let mut lane = ScalarAtLane {
                spec,
                table,
                hist: Vec::new(),
                cached: Vec::new(),
            };
            for _ in 0..slots {
                lane.push_slot();
            }
            lane
        }

        fn fill_slot(&mut self, slot: usize) {
            let h = crate::history::HistoryRegister::new(self.spec.history_bits);
            self.cached[slot] = self.table.predict(h.pattern());
            self.hist[slot] = h;
        }

        fn push_slot(&mut self) {
            let h = crate::history::HistoryRegister::new(self.spec.history_bits);
            self.cached.push(self.table.predict(h.pattern()));
            self.hist.push(h);
        }

        fn step(&mut self, slot: usize, taken: bool) -> bool {
            let old = self.hist[slot].pattern();
            let guess = if self.spec.cached_prediction {
                self.cached[slot]
            } else {
                self.table.predict(old)
            };
            self.hist[slot].shift(taken);
            let new = self.hist[slot].pattern();
            self.table.update(old, taken);
            self.cached[slot] = self.table.predict(new);
            guess
        }
    }

    /// Steps a pack and per-lane scalar models through the same event
    /// stream (`(op, slot, taken)`; op 0 = fill first), comparing every
    /// guess bit, then the final tables, histories, cached planes, and
    /// correctness totals.
    fn assert_at_pack_matches_scalars(
        specs: &[AtLaneConfig],
        slots: usize,
        events: &[(u8, usize, bool)],
    ) {
        let mut pack = AtPack::new(specs, slots);
        let mut scalars: Vec<ScalarAtLane> = specs
            .iter()
            .map(|&spec| ScalarAtLane::new(spec, slots))
            .collect();
        let mut scalar_correct = vec![0u64; specs.len()];
        for (i, &(op, slot, taken)) in events.iter().enumerate() {
            if op == 0 {
                pack.fill_slot(slot);
                for s in &mut scalars {
                    s.fill_slot(slot);
                }
                continue;
            }
            let guesses = pack.step(slot, taken);
            for (lane, s) in scalars.iter_mut().enumerate() {
                let want = s.step(slot, taken);
                assert_eq!(
                    guesses >> lane & 1 == 1,
                    want,
                    "event {i} lane {lane} ({:?})",
                    specs[lane]
                );
                scalar_correct[lane] += (want == taken) as u64;
            }
        }
        assert_eq!(pack.correct_counts(), scalar_correct);
        for (lane, s) in scalars.iter().enumerate() {
            assert_eq!(pack.lane_table(lane), s.table, "lane {lane} table");
            let mask = (1u32 << specs[lane].history_bits) - 1;
            for slot in 0..slots {
                assert_eq!(
                    u32::from(pack.history(slot)) & mask,
                    s.hist[slot].pattern() as u32,
                    "lane {lane} slot {slot} history"
                );
                assert_eq!(
                    pack.cached_bits(slot) >> lane & 1 == 1,
                    s.cached[slot],
                    "lane {lane} slot {slot} cached bit"
                );
            }
        }
    }

    /// A short deterministic event stream mixing slots, outcomes, and
    /// occasional re-fills.
    fn at_events(slots: usize, n: usize) -> Vec<(u8, usize, bool)> {
        let mut x = 0x2545f4914f6cdd1du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let op = u8::from(x % 11 != 0);
                ((op), (x >> 8) as usize % slots, x >> 16 & 1 == 1)
            })
            .collect()
    }

    #[test]
    fn at_pack_fresh_slots_match_the_scalar_cold_predictor() {
        let specs = [
            AtLaneConfig {
                kind: AutomatonKind::A2,
                history_bits: 4,
                cached_prediction: true,
                init_not_taken: false,
            },
            AtLaneConfig {
                kind: AutomatonKind::A3,
                history_bits: 2,
                cached_prediction: false,
                init_not_taken: true,
            },
        ];
        let pack = AtPack::new(&specs, 3);
        assert_eq!(pack.lanes(), 2);
        assert_eq!(pack.slots(), 3);
        for slot in 0..3 {
            // Shared register starts all-ones at the widest lane's width.
            assert_eq!(pack.history(slot), 0b1111);
            // Lane 0: biased-taken init predicts taken; lane 1 init-NT
            // predicts not-taken.
            assert_eq!(pack.cached_bits(slot), 0b01);
        }
        for (lane, spec) in specs.iter().enumerate() {
            let want = if spec.init_not_taken {
                crate::pattern::PatternTable::with_init(
                    spec.history_bits,
                    spec.kind,
                    spec.kind.init_not_taken(),
                )
            } else {
                crate::pattern::PatternTable::new(spec.history_bits, spec.kind)
            };
            assert_eq!(pack.lane_table(lane), want);
        }
    }

    #[test]
    fn at_pack_single_lanes_match_the_scalar_cycle_for_every_variant() {
        for kind in AutomatonKind::ALL {
            for (cached, init_nt) in [(true, false), (false, false), (true, true)] {
                let spec = AtLaneConfig {
                    kind,
                    history_bits: 3,
                    cached_prediction: cached,
                    init_not_taken: init_nt,
                };
                assert_at_pack_matches_scalars(&[spec], 2, &at_events(2, 300));
            }
        }
    }

    #[test]
    fn at_pack_mixed_history_lengths_share_rows_without_clobbering() {
        // Lanes with k ∈ {1, 3, 6} collide on low row indices through
        // different group masks; the lane-masked row writes must keep
        // each lane's columns independent.
        let specs: Vec<AtLaneConfig> = [1u8, 3, 6, 3, 1, 6, 6, 1]
            .iter()
            .enumerate()
            .map(|(i, &k)| AtLaneConfig {
                kind: AutomatonKind::ALL[i % 5],
                history_bits: k,
                cached_prediction: i % 3 != 0,
                init_not_taken: i % 4 == 0,
            })
            .collect();
        assert_at_pack_matches_scalars(&specs, 4, &at_events(4, 600));
    }

    #[test]
    fn at_pack_apply_run_matches_explicit_steps() {
        let specs: Vec<AtLaneConfig> = [2u8, 5, 5, 9]
            .iter()
            .map(|&k| AtLaneConfig {
                kind: AutomatonKind::A2,
                history_bits: k,
                cached_prediction: k % 2 == 1,
                init_not_taken: false,
            })
            .collect();
        let mut stepped = AtPack::new(&specs, 2);
        let mut ran = stepped.clone();
        // Interleave runs across slots, lengths straddling the
        // history-saturation + automaton-convergence bound.
        for (i, &(slot, taken, n)) in [
            (0usize, true, 1u64),
            (1, false, 40),
            (0, true, 7),
            (0, false, 3),
            (1, true, 200),
            (0, true, 64),
        ]
        .iter()
        .enumerate()
        {
            for _ in 0..n {
                stepped.step(slot, taken);
            }
            ran.apply_run(slot, taken, n);
            assert_eq!(ran.history(slot), stepped.history(slot), "run {i}");
            assert_eq!(ran.cached_bits(slot), stepped.cached_bits(slot), "run {i}");
        }
        assert_eq!(ran.predicted(), stepped.predicted());
        assert_eq!(ran.correct_counts(), stepped.correct_counts());
        for lane in 0..specs.len() {
            assert_eq!(ran.lane_table(lane), stepped.lane_table(lane));
        }
    }

    #[test]
    fn at_pack_grows_slots_with_fresh_state_from_the_evolved_table() {
        let spec = AtLaneConfig {
            kind: AutomatonKind::A2,
            history_bits: 2,
            cached_prediction: true,
            init_not_taken: false,
        };
        let mut pack = AtPack::new(&[spec], 1);
        let mut scalar = ScalarAtLane::new(spec, 1);
        // Train the all-ones row not-taken so a *fresh* slot now caches
        // a not-taken prediction — matching the scalar `fresh_entry`,
        // which reads the evolved table. The F,T,T cycle brings the
        // 2-bit history back to all-ones before every F, so row 0b11
        // saturates not-taken.
        for _ in 0..4 {
            for taken in [false, true, true] {
                pack.step(0, taken);
                scalar.step(0, taken);
            }
        }
        let slot = pack.push_slot();
        scalar.push_slot();
        assert_eq!(slot, 1);
        assert_eq!(pack.history(slot), 0b11);
        assert_eq!(pack.cached_bits(slot) & 1 == 1, scalar.cached[slot]);
        assert!(!scalar.cached[slot], "the all-ones row was trained NT");
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn oversized_at_packs_are_rejected() {
        let specs = vec![
            AtLaneConfig {
                kind: AutomatonKind::A2,
                history_bits: 4,
                cached_prediction: true,
                init_not_taken: false,
            };
            65
        ];
        AtPack::new(&specs, 1);
    }
}
