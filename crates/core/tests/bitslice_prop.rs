//! Differential tests for the bitsliced automaton planes: the derived
//! [`SliceTables`] must agree with the scalar automata of
//! `automaton.rs` over the whole state/outcome space, and every
//! prediction, transition, and correctness count of
//! [`tlat_core::AtPack`] with the scalar fused predict → train cycle
//! over [`PatternTable`] + [`HistoryRegister`], property-tested (with
//! shrinking) over random outcome streams. This is the inner rail of
//! the gang engine's byte-identity story; the outer rail is the
//! gang-vs-record tests in `tlat-sim`.

use tlat_check::{check, gen, prop_assert_eq, Gen};
use tlat_core::{AtLaneConfig, AtPack, AutomatonKind, HistoryRegister, PatternTable, SliceTables};

fn arb_kind() -> Gen<AutomatonKind> {
    gen::choose(&AutomatonKind::ALL)
}

/// The derived mask tables, state by state, against the scalar
/// automaton: exhaustive over all 4 state codes × 2 outcomes × every
/// variant. These are the codes an AT pack's planes mux and the gang
/// walk's slot-major replay steps Lee & Smith lanes through.
#[test]
fn derived_tables_match_scalar_lambda_and_delta() {
    for kind in AutomatonKind::ALL {
        let t = SliceTables::derive(kind);
        for s in 0..4u8 {
            let a = kind.from_state_bits(s);
            assert_eq!(t.predict >> s & 1 != 0, a.predict(), "{} λ({s})", kind.name());
            for (ti, taken) in [false, true].into_iter().enumerate() {
                let next = a.update(taken).state_bits();
                assert_eq!(t.next_hi[ti] >> s & 1, next >> 1, "{} δ({s},{taken}) hi", kind.name());
                assert_eq!(t.next_lo[ti] >> s & 1, next & 1, "{} δ({s},{taken}) lo", kind.name());
            }
        }
        assert_eq!(t.init, kind.init().state_bits(), "{} init", kind.name());
    }
}

/// A lane spec for AT-pack properties: all five variants, history
/// lengths 1–10 (so mixed-mask packs with colliding row indices are
/// the common case, and tables stay small), caching and init polarity
/// both ways. Built from tuple components so each field shrinks.
fn arb_at_spec() -> Gen<AtLaneConfig> {
    gen::tuple2(
        gen::tuple2(arb_kind(), gen::usize_in(1, 10)),
        gen::tuple2(gen::bools(), gen::bools()),
    )
    .map(|((kind, bits), (cached, init_nt))| AtLaneConfig {
        kind,
        history_bits: bits as u8,
        cached_prediction: cached,
        init_not_taken: init_nt,
    })
}

/// One scalar Two-Level lane driven through the exact fused predict →
/// resolve → train cycle of `TwoLevelAdaptive` (public pieces only —
/// the HRT is the caller's job for packs, so slots are bare
/// history/cached pairs here, matching the pack's contract).
struct ScalarAtLane {
    spec: AtLaneConfig,
    table: PatternTable,
    hist: Vec<HistoryRegister>,
    cached: Vec<bool>,
}

impl ScalarAtLane {
    fn new(spec: AtLaneConfig, slots: usize) -> Self {
        let table = if spec.init_not_taken {
            PatternTable::with_init(spec.history_bits, spec.kind, spec.kind.init_not_taken())
        } else {
            PatternTable::new(spec.history_bits, spec.kind)
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

    fn push_slot(&mut self) {
        let h = HistoryRegister::new(self.spec.history_bits);
        self.cached.push(self.table.predict(h.pattern()));
        self.hist.push(h);
    }

    fn fill_slot(&mut self, slot: usize) {
        let h = HistoryRegister::new(self.spec.history_bits);
        self.cached[slot] = self.table.predict(h.pattern());
        self.hist[slot] = h;
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

/// Drives `events` (`op == 0` re-fills the slot, anything else steps
/// it) through an AT pack and per-lane scalar models side by side,
/// checking every per-event guess bit, then the final pattern tables,
/// masked histories, cached planes, and correctness totals.
fn assert_at_pack_matches_scalars(
    specs: &[AtLaneConfig],
    slots: usize,
    events: &[(usize, usize, bool)],
) -> Result<(), String> {
    let mut pack = AtPack::new(specs, slots);
    let mut scalars: Vec<ScalarAtLane> = specs
        .iter()
        .map(|&spec| ScalarAtLane::new(spec, slots))
        .collect();
    let mut correct = vec![0u64; specs.len()];
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
            prop_assert_eq!(
                guesses >> lane & 1 != 0,
                want,
                "lane {lane} ({:?}) diverged at event {i}",
                specs[lane]
            );
            correct[lane] += (want == taken) as u64;
        }
    }
    prop_assert_eq!(pack.correct_counts(), correct, "correct totals");
    for (lane, s) in scalars.iter().enumerate() {
        prop_assert_eq!(
            pack.lane_table(lane),
            s.table,
            "lane {lane} ({:?}) final pattern table",
            specs[lane]
        );
        let mask = (1u32 << specs[lane].history_bits) - 1;
        for slot in 0..slots {
            prop_assert_eq!(
                u32::from(pack.history(slot)) & mask,
                s.hist[slot].pattern() as u32,
                "lane {lane} slot {slot} history"
            );
            prop_assert_eq!(
                pack.cached_bits(slot) >> lane & 1 != 0,
                s.cached[slot],
                "lane {lane} slot {slot} cached bit"
            );
        }
    }
    Ok(())
}

/// Tentpole property: random AT packs — variant/history_bits mixes
/// (mixed group masks sharing rows), caching and init polarity both
/// ways, random lane counts covering partial packs — driven over
/// random slot-interleaved streams with mid-stream re-fills must match
/// the scalar Two-Level fused cycle lane for lane, bit for bit.
#[test]
fn at_packs_match_the_scalar_two_level_cycle_lane_for_lane() {
    let inputs = gen::tuple2(
        gen::vec_of(arb_at_spec(), 1, 64),
        gen::vec_of(
            gen::tuple3(gen::usize_in(0, 9), gen::usize_in(0, 2), gen::bools()),
            0,
            250,
        ),
    );
    check(
        "bitslice_at_pack_matches_scalars",
        &inputs,
        |(specs, events)| assert_at_pack_matches_scalars(specs, 3, events),
    );
}

/// The shared-history claim, property-tested: lanes whose
/// `history_bits` differ ride one register per slot through per-lane
/// masks, so a pack holding *every* history length at once (the
/// fig10 sweep shape) must still match each lane's private scalar
/// register. Deterministic spec grid, random streams.
#[test]
fn mixed_mask_packs_share_one_history_walk_exactly() {
    let specs: Vec<AtLaneConfig> = (1..=12u8)
        .flat_map(|bits| {
            AutomatonKind::ALL.into_iter().map(move |kind| AtLaneConfig {
                kind,
                history_bits: bits,
                cached_prediction: bits % 2 == 0,
                init_not_taken: bits % 3 == 0,
            })
        })
        .collect();
    assert_eq!(specs.len(), 60, "12 history lengths x 5 variants");
    let events = gen::vec_of(
        gen::tuple3(gen::usize_in(0, 9), gen::usize_in(0, 2), gen::bools()),
        0,
        250,
    );
    check("bitslice_at_pack_mixed_masks", &events, |events| {
        assert_at_pack_matches_scalars(&specs, 3, events)
    });
}

/// Word-chunk run application for AT packs: `apply_run` — at most
/// `k_max + 3` plane steps, O(1) for the tail — must leave histories,
/// cached planes, tables, event counts, and correctness totals
/// identical to stepping every event, including runs far past the
/// convergence bound.
#[test]
fn at_run_application_equals_event_by_event_stepping() {
    let inputs = gen::tuple2(
        gen::vec_of(arb_at_spec(), 1, 16),
        gen::vec_of(
            gen::tuple3(gen::usize_in(0, 1), gen::bools(), gen::usize_in(0, 200)),
            0,
            12,
        ),
    );
    check(
        "bitslice_at_apply_run_equals_stepping",
        &inputs,
        |(specs, runs)| {
            let mut chunked = AtPack::new(specs, 2);
            let mut stepped = AtPack::new(specs, 2);
            for &(slot, taken, len) in runs {
                chunked.apply_run(slot, taken, len as u64);
                for _ in 0..len {
                    stepped.step(slot, taken);
                }
            }
            prop_assert_eq!(chunked.predicted(), stepped.predicted(), "event counts");
            prop_assert_eq!(
                chunked.correct_counts(),
                stepped.correct_counts(),
                "correct totals"
            );
            for slot in 0..2 {
                prop_assert_eq!(
                    chunked.history(slot),
                    stepped.history(slot),
                    "slot {slot} history"
                );
                prop_assert_eq!(
                    chunked.cached_bits(slot),
                    stepped.cached_bits(slot),
                    "slot {slot} cached plane"
                );
            }
            for lane in 0..specs.len() {
                prop_assert_eq!(
                    chunked.lane_table(lane),
                    stepped.lane_table(lane),
                    "lane {lane} table after runs"
                );
            }
            Ok(())
        },
    );
}
