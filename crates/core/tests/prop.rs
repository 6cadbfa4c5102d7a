//! Property-based tests for the predictor building blocks, on the
//! in-repo `tlat-check` harness.

use tlat_check::{check, gen, prop_assert_eq, Gen};
use tlat_core::{
    Ahrt, AnyHrt, Automaton, AutomatonKind, Gshare, GshareConfig, HistoryRegister, HistoryTable,
    HrtConfig, Ihrt, LeeSmithBtb, LeeSmithConfig, PatternTable, Predictor, Probe, SiteKeys,
    SiteResolver, SlotProbe, StaticTraining, StaticTrainingConfig, TwoLevelAdaptive,
    TwoLevelConfig, TwoLevelVariant, VariantConfig, VariantWalk, Walker, A2,
};
use tlat_trace::{BranchRecord, SiteId, Trace};

fn arb_kind() -> Gen<AutomatonKind> {
    gen::choose(&AutomatonKind::ALL)
}

/// Every automaton, from any reachable state, learns a constant stream
/// within four updates.
#[test]
fn automata_saturate_on_constant_streams() {
    let inputs = gen::tuple3(arb_kind(), gen::vec_of(gen::bools(), 0, 15), gen::bools());
    check(
        "automata_saturate_on_constant_streams",
        &inputs,
        |(kind, prefix, direction)| {
            let mut a = kind.init();
            for &t in prefix {
                a = a.update(t);
            }
            for _ in 0..4 {
                a = a.update(*direction);
            }
            prop_assert_eq!(a.predict(), *direction);
            // And the state is a fixed point for further same-direction
            // updates.
            prop_assert_eq!(a.update(*direction), a);
            Ok(())
        },
    );
}

/// A2 behaves exactly like a clamped integer counter.
#[test]
fn a2_matches_reference_counter() {
    let outcomes = gen::vec_of(gen::bools(), 0, 63);
    check("a2_matches_reference_counter", &outcomes, |outcomes| {
        let mut a = A2::init();
        let mut counter: i32 = 3;
        for &t in outcomes {
            a = a.update(t);
            counter = if t {
                (counter + 1).min(3)
            } else {
                (counter - 1).max(0)
            };
            prop_assert_eq!(a.predict(), counter >= 2);
        }
        Ok(())
    });
}

/// The history register always equals the last k outcomes.
#[test]
fn history_register_is_a_sliding_window() {
    let inputs = gen::tuple2(gen::u8_in(1, 16), gen::vec_of(gen::bools(), 0, 63));
    check(
        "history_register_is_a_sliding_window",
        &inputs,
        |(len, outcomes)| {
            let len = *len;
            let mut hr = HistoryRegister::new(len);
            for (i, &t) in outcomes.iter().enumerate() {
                hr.shift(t);
                // Reconstruct the expected window: the last `len`
                // outcomes, padded with the initial ones.
                let mut expected = 0usize;
                for j in 0..len as usize {
                    let idx = i as i64 - j as i64;
                    let bit = if idx >= 0 {
                        outcomes[idx as usize]
                    } else {
                        true
                    };
                    expected |= (bit as usize) << j;
                }
                prop_assert_eq!(hr.pattern(), expected);
            }
            Ok(())
        },
    );
}

/// Pattern-table updates touch exactly one entry.
#[test]
fn pattern_table_updates_are_local() {
    let inputs = gen::tuple3(gen::u8_in(1, 10), gen::u64_any(), gen::bools());
    check(
        "pattern_table_updates_are_local",
        &inputs,
        |&(bits, pattern_seed, taken)| {
            let mut pt = PatternTable::new(bits, AutomatonKind::A2);
            let pattern = (pattern_seed as usize) % pt.len();
            let before: Vec<bool> = (0..pt.len()).map(|p| pt.predict(p)).collect();
            pt.update(pattern, taken);
            for (p, &prior) in before.iter().enumerate() {
                if p != pattern {
                    prop_assert_eq!(pt.predict(p), prior);
                }
            }
            Ok(())
        },
    );
}

/// A pattern table's one-byte state codes, stepped through its derived
/// λ mask and δ table, behave entry for entry like automata stepped by
/// `automaton.rs`: for every kind and both initial polarities, the same
/// predictions before each update and the same entries after it.
#[test]
fn pattern_table_matches_scalar_automata() {
    let step = gen::tuple2(gen::u64_any(), gen::bools());
    let inputs = gen::tuple3(gen::u8_in(1, 4), gen::bools(), gen::vec_of(step, 0, 200));
    check(
        "pattern_table_matches_scalar_automata",
        &inputs,
        |(bits, not_taken_init, steps)| {
            for kind in AutomatonKind::ALL {
                let init = match not_taken_init {
                    true => kind.init_not_taken(),
                    false => kind.init(),
                };
                let mut pt = PatternTable::with_init(*bits, kind, init);
                let mut reference = vec![init; pt.len()];
                for &(seed, taken) in steps {
                    let pattern = seed as usize % pt.len();
                    prop_assert_eq!(pt.predict(pattern), reference[pattern].predict(), "{kind}");
                    pt.update(pattern, taken);
                    reference[pattern] = reference[pattern].update(taken);
                    prop_assert_eq!(pt.entry(pattern), reference[pattern], "{kind}");
                }
                for (p, automaton) in reference.iter().enumerate() {
                    prop_assert_eq!(pt.entry(p), *automaton, "{kind} entry {p}");
                }
            }
            Ok(())
        },
    );
}

/// An AHRT with enough associativity for the working set never evicts:
/// behaviour matches the ideal table.
#[test]
fn ahrt_without_pressure_matches_ihrt() {
    let accesses = gen::vec_of(gen::u32_in(0, 7), 1, 199);
    check(
        "ahrt_without_pressure_matches_ihrt",
        &accesses,
        |accesses| {
            // 8 distinct branches, 32-entry 4-way table (8 sets): no set
            // can overflow with only 8 distinct pcs mapping to distinct
            // sets.
            let mut ahrt: Ahrt<u32> = Ahrt::new(32, 4, 0);
            let mut ihrt: Ihrt<u32> = Ihrt::new();
            for (step, &slot) in accesses.iter().enumerate() {
                let pc = 0x1000 + slot * 4;
                let a = *ahrt.get_or_allocate(pc, || slot + 100).0;
                let b = *ihrt.get_or_allocate(pc, || slot + 100).0;
                prop_assert_eq!(a, b, "step {}", step);
                // Mutate both identically.
                *ahrt.peek(pc).unwrap() = step as u32;
                *ihrt.peek(pc).unwrap() = step as u32;
            }
            prop_assert_eq!(ahrt.stats().misses, ihrt.stats().misses);
            Ok(())
        },
    );
}

/// The predictor is deterministic: the same branch stream always
/// produces the same predictions.
#[test]
fn two_level_is_deterministic() {
    let stream = gen::vec_of(gen::tuple2(gen::u32_in(0, 31), gen::bools()), 0, 499);
    check("two_level_is_deterministic", &stream, |stream| {
        let run = || {
            let mut p = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
            stream
                .iter()
                .map(|&(site, taken)| {
                    let b = BranchRecord::conditional(0x1000 + site * 4, 0x800, taken);
                    let out = p.predict(&b);
                    p.update(&b);
                    out
                })
                .collect::<Vec<bool>>()
        };
        prop_assert_eq!(run(), run());
        Ok(())
    });
}

/// Prediction accuracy on a perfectly periodic branch reaches 100 %
/// after warmup whenever the period fits in the history register.
#[test]
fn periodic_patterns_are_learned() {
    let inputs = gen::tuple2(gen::usize_in(1, 9), gen::u64_any());
    check(
        "periodic_patterns_are_learned",
        &inputs,
        |&(period, phase_seed)| {
            let pattern: Vec<bool> = (0..period)
                .map(|i| (phase_seed >> (i % 64)) & 1 == 1)
                .collect();
            let mut p = TwoLevelAdaptive::new(TwoLevelConfig {
                history_bits: 12,
                hrt: HrtConfig::Ideal,
                ..TwoLevelConfig::paper_default()
            });
            // Warmup: enough repetitions for every pattern position to
            // have been trained (4 automaton updates per position).
            let warmup = 200;
            for _ in 0..warmup {
                for &taken in &pattern {
                    let b = BranchRecord::conditional(0x1000, 0x800, taken);
                    p.predict(&b);
                    p.update(&b);
                }
            }
            // Measurement: must be perfect.
            for rep in 0..20 {
                for (i, &taken) in pattern.iter().enumerate() {
                    let b = BranchRecord::conditional(0x1000, 0x800, taken);
                    prop_assert_eq!(p.predict(&b), taken, "rep {} position {}", rep, i);
                    p.update(&b);
                }
            }
            Ok(())
        },
    );
}

/// AnyHrt never loses writes for a pc that stays resident.
#[test]
fn resident_entries_persist() {
    let configs = [HrtConfig::Ideal, HrtConfig::ahrt(512), HrtConfig::hhrt(512)];
    let inputs = gen::tuple2(gen::choose(&configs), gen::u32_any());
    check("resident_entries_persist", &inputs, |&(config, value)| {
        let mut t = AnyHrt::build(config, 0u32);
        *t.get_or_allocate(0x1000, || 0).0 = value;
        prop_assert_eq!(*t.peek(0x1000).unwrap(), value);
        Ok(())
    });
}

/// Steps `walker` and `predictor` over the same events, each event's
/// probe word beside it, and compares every guess.
fn assert_walker_guesses(
    mut walker: impl Walker,
    predictor: &mut dyn Predictor,
    events: &[(SiteId, u32, bool)],
    words: &[u32],
) -> Result<(), String> {
    for (i, (&(site, pc, taken), &word)) in events.iter().zip(words).enumerate() {
        let want = predictor.predict_update(&BranchRecord::conditional(pc, 0x800, taken));
        prop_assert_eq!(walker.step(word, site, taken), want, "event {}", i);
    }
    Ok(())
}

/// Every predictor's walker guesses event for event as its
/// `predict_update` does, on every table organization, given each
/// event's probe word as a compiled walk makes it: an interned site
/// fills its ideal slot on first sight, a [`SlotProbe`] decides an
/// associative table's, and a hashed table's is the site's slot. The
/// Two-Level walker runs under every flag combination, the taxonomy's
/// under both history scopes and 1–8 pattern sets, the Lee & Smith
/// walker under every automaton, and the Static Training walker with
/// 1–12 history bits over presets trained on a second random stream.
#[test]
fn walkers_guess_as_predict_update() {
    let geometries = [
        HrtConfig::Ideal,
        HrtConfig::ahrt(512),
        HrtConfig::Associative {
            entries: 16,
            ways: 2,
        },
        HrtConfig::hhrt(8),
    ];
    let stream = gen::vec_of(gen::tuple2(gen::u32_in(0, 63), gen::bools()), 1, 499);
    let inputs = gen::tuple4(
        gen::tuple2(gen::usize_in(0, 6), arb_kind()),
        gen::choose(&geometries),
        gen::tuple3(gen::u8_in(1, 12), gen::u8_in(0, 7), gen::u8_in(0, 3)),
        gen::tuple2(stream.clone(), stream),
    );
    check(
        "walkers_guess_as_predict_update",
        &inputs,
        |&((scheme, kind), hrt, (bits, flags, sets_log), (ref stream, ref training))| {
            // Sites intern in first-appearance order, as a compiled
            // stream's do.
            let mut pcs: Vec<u32> = Vec::new();
            let events: Vec<(SiteId, u32, bool)> = stream
                .iter()
                .map(|&(branch, taken)| {
                    let pc = 0x1000 + branch * 4;
                    let site = pcs.iter().position(|&p| p == pc).unwrap_or_else(|| {
                        pcs.push(pc);
                        pcs.len() - 1
                    });
                    (site as SiteId, pc, taken)
                })
                .collect();
            let mut resolver = SiteResolver::new(pcs.clone());
            let (words, slots): (Vec<u32>, usize) = match hrt {
                HrtConfig::Ideal => {
                    let mut seen = 0;
                    let words = events.iter().map(|&(site, ..)| {
                        let fresh = site == seen;
                        seen += u32::from(fresh);
                        site | u32::from(fresh) * Probe::FILLED
                    });
                    (words.collect(), pcs.len())
                }
                HrtConfig::Associative { entries, .. } => {
                    let mut engine = SlotProbe::build(hrt, &mut resolver).expect("associative");
                    let words = events.iter().map(|&(site, ..)| engine.step(site).word());
                    (words.collect(), entries)
                }
                HrtConfig::Hashed { entries } => {
                    let keys = resolver.keys(hrt);
                    let SiteKeys::Hashed { slot } = &*keys else {
                        unreachable!("a hashed table resolves hashed keys");
                    };
                    let words = events.iter().map(|&(site, ..)| slot[site as usize]);
                    (words.collect(), entries)
                }
            };
            let sets = 1usize << sets_log;
            match scheme {
                0 => {
                    let mut p = TwoLevelAdaptive::new(TwoLevelConfig {
                        history_bits: bits,
                        automaton: kind,
                        hrt,
                        cached_prediction: flags & 1 == 0,
                        reinit_on_replace: flags & 2 != 0,
                        init_not_taken: flags & 4 != 0,
                    });
                    assert_walker_guesses(p.walker(slots), &mut p, &events, &words)
                }
                1 | 2 => {
                    let config = if scheme == 1 {
                        VariantConfig::pas(bits, kind, hrt, sets)
                    } else {
                        VariantConfig::gas(bits, kind, sets)
                    };
                    let mut p = TwoLevelVariant::new(config);
                    match p.walker(slots, &resolver) {
                        VariantWalk::PerAddress(w) => {
                            assert_walker_guesses(w, &mut p, &events, &words)
                        }
                        VariantWalk::Global(w) => assert_walker_guesses(w, &mut p, &events, &words),
                    }
                }
                3 => {
                    let mut p = LeeSmithBtb::new(LeeSmithConfig {
                        automaton: kind,
                        hrt,
                    });
                    assert_walker_guesses(p.walker(slots), &mut p, &events, &words)
                }
                4 => {
                    let training: Trace = training
                        .iter()
                        .map(|&(branch, taken)| {
                            BranchRecord::conditional(0x1000 + branch * 4, 0x800, taken)
                        })
                        .collect();
                    let config = StaticTrainingConfig {
                        history_bits: bits,
                        hrt,
                        data: "Diff".to_owned(),
                    };
                    let mut p = StaticTraining::train(config, &training);
                    assert_walker_guesses(p.walker(slots), &mut p, &events, &words)
                }
                _ => {
                    let mut p = Gshare::new(GshareConfig {
                        history_bits: bits,
                        automaton: kind,
                    });
                    assert_walker_guesses(p.walker(&resolver), &mut p, &events, &words)
                }
            }
        },
    );
}
