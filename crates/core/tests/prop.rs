//! Property-based tests for the predictor building blocks, on the
//! in-repo `tlat-check` harness.

use tlat_check::{check, gen, prop_assert_eq, Gen};
use tlat_core::{
    Ahrt, AnyHrt, Automaton, AutomatonKind, Gshare, GshareConfig, HistoryRegister, HistoryTable,
    HrtConfig, Ihrt, PatternTable, Predictor, SiteResolver, SlotProbe, Tournament,
    TwoLevelAdaptive, TwoLevelConfig, TwoLevelVariant, VariantConfig, A2,
};
use tlat_trace::{BranchRecord, CompiledTrace, Trace};

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
                    let bit = if idx >= 0 { outcomes[idx as usize] } else { true };
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

/// The compiled site-driven path is observably identical to the
/// record-driven path: same guess at every event and the same final
/// table stats, for the AT scheme across every HRT organization and
/// several geometries (small tables force evictions, so the AHRT's
/// victim-inheritance and LRU ordering are exercised too).
#[test]
fn site_driven_prediction_matches_record_driven_prediction() {
    let geometries = [
        HrtConfig::Ideal,
        HrtConfig::ahrt(512),
        HrtConfig::Associative {
            entries: 16,
            ways: 2,
        },
        HrtConfig::hhrt(256),
        HrtConfig::hhrt(8),
    ];
    let inputs = gen::tuple3(
        gen::choose(&geometries),
        gen::u8_in(1, 12),
        gen::vec_of(gen::tuple2(gen::u32_in(0, 63), gen::bools()), 1, 999),
    );
    check(
        "site_driven_prediction_matches_record_driven_prediction",
        &inputs,
        |(hrt, bits, stream)| {
            let mut trace = Trace::new();
            for &(site, taken) in stream {
                trace.push(BranchRecord::conditional(0x1000 + site * 4, 0x800, taken));
            }
            let compiled = CompiledTrace::compile(&trace);
            let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());

            let at_config = TwoLevelConfig {
                history_bits: *bits,
                hrt: *hrt,
                ..TwoLevelConfig::paper_default()
            };
            let mut at_records = TwoLevelAdaptive::new(at_config);
            let mut at_sites = TwoLevelAdaptive::new(at_config);
            at_sites.bind_sites(&mut resolver);

            for (record, (site, taken)) in trace.iter().zip(compiled.events()) {
                prop_assert_eq!(
                    at_records.predict_update(record),
                    at_sites.predict_update_site(site, taken),
                    "AT diverged at pc {:#x}",
                    record.pc
                );
            }
            prop_assert_eq!(at_records.hrt_stats(), at_sites.hrt_stats());
            Ok(())
        },
    );
}

/// The taxonomy's compiled entry points are observably identical to
/// the record-driven path: every GAg/GAs/PAg/PAs variant, gshare and the
/// AT+gshare tournament guess the same at every event, per-address
/// variants end with the same history-table stats, and on associative
/// geometries the slot path (probes replayed from one shared
/// [`SlotProbe`], stats adopted afterwards) agrees too.
#[test]
fn taxonomy_site_and_slot_prediction_matches_record_driven_prediction() {
    let geometries = [
        HrtConfig::Ideal,
        HrtConfig::ahrt(512),
        HrtConfig::Associative {
            entries: 16,
            ways: 2,
        },
        HrtConfig::hhrt(8),
    ];
    let inputs = gen::tuple4(
        gen::choose(&geometries),
        gen::u8_in(1, 12),
        gen::choose(&[1usize, 2, 16]),
        gen::vec_of(gen::tuple2(gen::u32_in(0, 63), gen::bools()), 1, 999),
    );
    check(
        "taxonomy_site_and_slot_prediction_matches_record_driven_prediction",
        &inputs,
        |(hrt, bits, sets, stream)| {
            let mut trace = Trace::new();
            for &(site, taken) in stream {
                trace.push(BranchRecord::conditional(0x1000 + site * 4, 0x800, taken));
            }
            let compiled = CompiledTrace::compile(&trace);
            let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());
            let mut engine = SlotProbe::build(*hrt, &mut resolver);
            let (bits, sets) = (*bits, *sets);
            let configs = [
                VariantConfig::gag(bits, AutomatonKind::A2),
                VariantConfig::gas(bits, AutomatonKind::A3, sets),
                VariantConfig::pag(bits, AutomatonKind::A2, *hrt),
                VariantConfig::pas(bits, AutomatonKind::LastTime, *hrt, sets),
            ];
            let variants = || -> Vec<TwoLevelVariant> {
                configs.iter().map(|&c| TwoLevelVariant::new(c)).collect()
            };
            let (mut records, mut sites, mut slots) = (variants(), variants(), variants());
            for p in sites.iter_mut().chain(&mut slots) {
                p.bind_sites(&mut resolver);
            }
            let gshare = GshareConfig {
                history_bits: bits,
                automaton: AutomatonKind::A2,
            };
            let tournament = || {
                Tournament::new(
                    TwoLevelAdaptive::new(TwoLevelConfig {
                        history_bits: bits,
                        hrt: *hrt,
                        ..TwoLevelConfig::paper_default()
                    }),
                    Gshare::new(gshare),
                    16,
                )
            };
            let mut gshare_records = Gshare::new(gshare);
            let mut gshare_sites = Gshare::new(gshare);
            gshare_sites.bind_sites(&resolver);
            let mut t_records = tournament();
            let mut t_sites = tournament();
            let mut t_slots = tournament();
            t_sites.bind_sites(&mut resolver);
            t_slots.bind_sites(&mut resolver);

            for (record, (site, taken)) in trace.iter().zip(compiled.events()) {
                let probe = engine.as_mut().map(|e| e.step(site));
                for (i, config) in configs.iter().enumerate() {
                    let want = records[i].predict_update(record);
                    prop_assert_eq!(
                        want,
                        sites[i].predict_update_site(site, taken),
                        "{} site path diverged at pc {:#x}",
                        config.label(),
                        record.pc
                    );
                    if let (Some(probe), Some(_)) = (probe, slots[i].hrt_config()) {
                        prop_assert_eq!(
                            want,
                            slots[i].predict_update_slot(site, probe, taken),
                            "{} slot path diverged at pc {:#x}",
                            config.label(),
                            record.pc
                        );
                    }
                }
                prop_assert_eq!(
                    gshare_records.predict_update(record),
                    gshare_sites.predict_update_site(site, taken),
                    "gshare diverged at pc {:#x}",
                    record.pc
                );
                let want = t_records.predict_update(record);
                prop_assert_eq!(
                    want,
                    t_sites.predict_update_site(site, taken),
                    "tournament site path diverged at pc {:#x}",
                    record.pc
                );
                if let Some(probe) = probe {
                    prop_assert_eq!(
                        want,
                        t_slots.predict_update_slot(site, probe, taken),
                        "tournament slot path diverged at pc {:#x}",
                        record.pc
                    );
                }
            }
            for (i, config) in configs.iter().enumerate() {
                prop_assert_eq!(
                    records[i].hrt_stats(),
                    sites[i].hrt_stats(),
                    "{}",
                    config.label()
                );
                if let (Some(engine), Some(_)) = (&engine, slots[i].hrt_config()) {
                    slots[i].adopt_probe_stats(engine.stats());
                    prop_assert_eq!(
                        records[i].hrt_stats(),
                        slots[i].hrt_stats(),
                        "{}",
                        config.label()
                    );
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
