//! Property-based tests for the predictor building blocks, on the
//! in-repo `tlat-check` harness.

use tlat_check::{check, gen, prop_assert_eq, Gen};
use tlat_core::{
    Ahrt, AnyHrt, Automaton, AutomatonKind, Gshare, GshareConfig, HistoryRegister, HistoryTable,
    HrtConfig, Ihrt, LeeSmithBtb, LeeSmithConfig, Member, PatternTable, Predictor, Probe, SiteKeys,
    SiteResolver, SlotProbe, StaticTraining, StaticTrainingConfig, TwoLevelAdaptive,
    TwoLevelConfig, TwoLevelVariant, VariantConfig, Walk, A2,
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

/// Steps `walker` and every member's `predictors` over the same events,
/// each event's probe word beside it, and compares every member's guess
/// with its own predictor's.
fn assert_walker_guesses<M: Member, Ms: AsRef<[M]> + AsMut<[M]>>(
    mut walker: Walk<M, Ms>,
    predictors: &mut [Box<dyn Predictor>],
    events: &[(SiteId, u32, bool)],
    words: &[u32],
) -> Result<(), String> {
    prop_assert_eq!(walker.members(), predictors.len());
    for (i, (&(site, pc, taken), &word)) in events.iter().zip(words).enumerate() {
        let bit = (i % 64) as u32;
        let mut guesses = vec![0; predictors.len()];
        walker.step(word, site, taken, bit, &mut guesses);
        let branch = BranchRecord::conditional(pc, 0x800, taken);
        for (m, (p, &got)) in predictors.iter_mut().zip(&guesses).enumerate() {
            let want = p.predict_update(&branch);
            prop_assert_eq!(got, u64::from(want) << bit, "event {} member {}", i, m);
        }
    }
    Ok(())
}

/// Every predictor's walk, and every group of one kind's walks joined
/// into one, guesses event for event as each member's
/// `predict_update` does, on every table organization, given each
/// event's probe word as a compiled walk makes it: an interned site
/// fills its ideal slot on first sight, a [`SlotProbe`] decides an
/// associative table's, and a hashed table's is the site's slot. A group
/// holds one to four members, each drawn on its own: Two-Level members
/// under every automaton, 1–16 history bits, cached or two-lookup and
/// either init polarity (one replacement rule per group), PAg/PAs
/// members with 1–8 pattern sets, GAs and gshare members sharing one
/// global register, Lee & Smith members under every automaton, and
/// Static Training members with 1–16 history bits over presets trained
/// on a second random stream. A group of one walks its predictor's own
/// walk; a larger one joins them.
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
    let member = gen::tuple4(
        arb_kind(),
        gen::u8_in(1, 16),
        gen::u8_in(0, 7),
        gen::u8_in(0, 3),
    );
    let inputs = gen::tuple4(
        gen::tuple2(gen::usize_in(0, 4), gen::bools()),
        gen::choose(&geometries),
        gen::vec_of(member, 1, 4),
        gen::tuple2(stream.clone(), stream),
    );
    check(
        "walkers_guess_as_predict_update",
        &inputs,
        |&((scheme, reinit), hrt, ref members, (ref stream, ref training))| {
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
            let training: Trace = training
                .iter()
                .map(|&(branch, taken)| {
                    BranchRecord::conditional(0x1000 + branch * 4, 0x800, taken)
                })
                .collect();
            let sets = |sets_log: u8| 1usize << sets_log;
            match scheme {
                0 => {
                    let at: Vec<TwoLevelAdaptive> = members
                        .iter()
                        .map(|&(kind, bits, flags, _)| {
                            TwoLevelAdaptive::new(TwoLevelConfig {
                                history_bits: bits,
                                automaton: kind,
                                hrt,
                                cached_prediction: flags & 1 == 0,
                                reinit_on_replace: reinit,
                                init_not_taken: flags & 4 != 0,
                            })
                        })
                        .collect();
                    let walkers = at.iter().map(|p| p.walker(slots)).collect();
                    let mut predictors = boxed(at);
                    assert_group_guesses(walkers, &mut predictors, &events, &words)
                }
                1 => {
                    let pas: Vec<TwoLevelVariant> = members
                        .iter()
                        .map(|&(kind, bits, _, sets_log)| {
                            TwoLevelVariant::new(VariantConfig::pas(
                                bits,
                                kind,
                                hrt,
                                sets(sets_log),
                            ))
                        })
                        .collect();
                    let walkers = pas.iter().map(|p| p.walker(slots, &resolver)).collect();
                    let mut predictors = boxed(pas);
                    assert_group_guesses(walkers, &mut predictors, &events, &words)
                }
                2 => {
                    // GAs and gshare members, alternating by their flags,
                    // share one global register: a table of one slot,
                    // which every event reads, as a gang walk's global
                    // groups do.
                    let mut walkers = Vec::new();
                    let mut predictors: Vec<Box<dyn Predictor>> = Vec::new();
                    for &(kind, bits, flags, sets_log) in members {
                        if flags & 1 == 0 {
                            let p = TwoLevelVariant::new(VariantConfig::gas(
                                bits,
                                kind,
                                sets(sets_log),
                            ));
                            walkers.push(p.walker(slots, &resolver));
                            predictors.push(Box::new(p));
                        } else {
                            let p = Gshare::new(GshareConfig {
                                history_bits: bits,
                                automaton: kind,
                            });
                            walkers.push(p.walker(&resolver));
                            predictors.push(Box::new(p));
                        }
                    }
                    let words = vec![0; events.len()];
                    assert_group_guesses(walkers, &mut predictors, &events, &words)
                }
                3 => {
                    let ls: Vec<LeeSmithBtb> = members
                        .iter()
                        .map(|&(automaton, ..)| LeeSmithBtb::new(LeeSmithConfig { automaton, hrt }))
                        .collect();
                    let walkers = ls.iter().map(|p| p.walker(slots)).collect();
                    let mut predictors = boxed(ls);
                    assert_group_guesses(walkers, &mut predictors, &events, &words)
                }
                _ => {
                    let st: Vec<StaticTraining> = members
                        .iter()
                        .map(|&(_, bits, ..)| {
                            let config = StaticTrainingConfig {
                                history_bits: bits,
                                hrt,
                                data: "Diff".to_owned(),
                            };
                            StaticTraining::train(config, &training)
                        })
                        .collect();
                    let walkers = st.iter().map(|p| p.walker(slots)).collect();
                    let mut predictors = boxed(st);
                    assert_group_guesses(walkers, &mut predictors, &events, &words)
                }
            }
        },
    );
}

/// Each predictor, boxed.
fn boxed<P: Predictor + 'static>(predictors: Vec<P>) -> Vec<Box<dyn Predictor>> {
    let boxed = predictors
        .into_iter()
        .map(|p| Box::new(p) as Box<dyn Predictor>);
    boxed.collect()
}

/// [`assert_walker_guesses`] on a lone predictor's own walk, or on
/// several predictors' walks joined into one.
fn assert_group_guesses<M: Member>(
    mut walkers: Vec<Walk<M, [M; 1]>>,
    predictors: &mut [Box<dyn Predictor>],
    events: &[(SiteId, u32, bool)],
    words: &[u32],
) -> Result<(), String> {
    match walkers.len() {
        1 => {
            let lone = walkers.pop().expect("one walker");
            assert_walker_guesses(lone, predictors, events, words)
        }
        _ => assert_walker_guesses(Walk::group(walkers), predictors, events, words),
    }
}
