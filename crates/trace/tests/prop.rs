//! Property-based tests for the trace crate, on the in-repo
//! `tlat-check` harness.

use tlat_check::{check, gen, prop_assert, prop_assert_eq, Gen};
use tlat_trace::{
    codec, BranchClass, BranchRecord, InstClass, PackedBits, ReturnAddressStack, Trace,
};

/// `PackedBits::run_len`'s word-level scan (invert, shift,
/// `trailing_zeros`, cross word boundaries) must agree with a naive
/// bit-at-a-time scan for every start position and cap — bursty
/// run-length inputs make long word-straddling runs common.
#[test]
fn packed_run_len_matches_a_naive_scan() {
    let inputs = gen::outcome_runs(10, 150);
    check("packed_run_len_matches_naive_scan", &inputs, |runs| {
        let pattern = gen::expand_runs(runs);
        if pattern.is_empty() {
            return Ok(());
        }
        let mut bits = PackedBits::new();
        for &b in &pattern {
            bits.push(b);
        }
        for start in 0..pattern.len() {
            let naive = pattern[start..]
                .iter()
                .take_while(|&&b| b == pattern[start])
                .count();
            prop_assert_eq!(bits.run_len(start, pattern.len()), naive, "start {start}");
            // A cap below the natural run end truncates exactly there.
            let cap = (start + naive.div_ceil(2))
                .max(start + 1)
                .min(pattern.len());
            prop_assert_eq!(
                bits.run_len(start, cap),
                naive.min(cap - start),
                "start {start} cap {cap}"
            );
        }
        Ok(())
    });
}

fn arb_class() -> Gen<BranchClass> {
    gen::choose(&BranchClass::ALL)
}

fn arb_record() -> Gen<BranchRecord> {
    gen::tuple5(
        gen::u32_any(),
        gen::u32_any(),
        arb_class(),
        gen::bools(),
        gen::bools(),
    )
    .map(|(pc, target, class, cond_taken, is_call)| BranchRecord {
        pc,
        target,
        class,
        // Non-conditional branches are always taken by construction.
        taken: if class == BranchClass::Conditional {
            cond_taken
        } else {
            true
        },
        // Only unconditional branches can be calls.
        call: is_call
            && matches!(
                class,
                BranchClass::ImmediateUnconditional | BranchClass::RegisterUnconditional
            ),
    })
}

#[test]
fn codec_roundtrip() {
    // TLA3 is lossless: an arbitrary trace decodes back to itself
    // (`Trace` equality covers records, gaps and instruction mix), and
    // the streaming compiled decode equals compiling the records.
    let inputs = gen::tuple3(
        gen::vec_of(arb_record(), 0, 255),
        gen::u8_in(0, 49),
        gen::u8_in(0, 49),
    );
    check("codec_roundtrip", &inputs, |(records, ints, mems)| {
        let mut trace = Trace::new();
        for (i, r) in records.iter().enumerate() {
            for _ in 0..(i % 3) {
                trace.count_instruction(InstClass::Other);
            }
            trace.push(*r);
        }
        for _ in 0..*ints {
            trace.count_instruction(InstClass::IntAlu);
        }
        for _ in 0..*mems {
            trace.count_instruction(InstClass::Mem);
        }
        let bytes = codec::encode_v3(&trace);
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(
            &codec::decode_compiled(&bytes).unwrap(),
            &tlat_trace::CompiledTrace::compile(&trace)
        );
        Ok(())
    });
}

#[test]
fn decode_never_panics_on_garbage() {
    let bytes = gen::vec_of(gen::u8_any(), 0, 511);
    check("decode_never_panics_on_garbage", &bytes, |bytes| {
        let _ = codec::decode(bytes);
        Ok(())
    });
}

#[test]
fn tla3_decode_never_panics_on_garbage() {
    // Seed the buffer with the TLA3 magic so the fuzz actually reaches
    // the packet parser instead of dying on BadMagic.
    let bytes = gen::vec_of(gen::u8_any(), 0, 511);
    check("tla3_decode_never_panics_on_garbage", &bytes, |bytes| {
        let mut seeded = b"TLA3".to_vec();
        seeded.extend_from_slice(bytes);
        let _ = tlat_trace::packet::decode(&seeded);
        let _ = tlat_trace::packet::decode_compiled(&seeded);
        Ok(())
    });
}

#[test]
fn text_codec_roundtrip() {
    let records = gen::vec_of(arb_record(), 0, 128);
    check("text_codec_roundtrip", &records, |records| {
        let trace: Trace = records.iter().copied().collect();
        let back = codec::decode_text(&codec::encode_text(&trace)).unwrap();
        prop_assert_eq!(&trace, &back);
        Ok(())
    });
}

#[test]
fn stats_counts_match_manual() {
    let records = gen::vec_of(arb_record(), 0, 255);
    check("stats_counts_match_manual", &records, |records| {
        let trace: Trace = records.iter().copied().collect();
        let stats = trace.stats();
        let manual_cond = records
            .iter()
            .filter(|r| r.class == BranchClass::Conditional)
            .count() as u64;
        prop_assert_eq!(stats.dynamic_conditional_branches, manual_cond);
        prop_assert_eq!(stats.class_distribution.total(), records.len() as u64);
        let mut pcs: Vec<u32> = records
            .iter()
            .filter(|r| r.class == BranchClass::Conditional)
            .map(|r| r.pc)
            .collect();
        pcs.sort_unstable();
        pcs.dedup();
        prop_assert_eq!(stats.static_conditional_branches, pcs.len());
        Ok(())
    });
}

#[test]
fn ras_balanced_calls_always_predict() {
    let inputs = gen::tuple2(gen::usize_in(1, 23), gen::usize_in(24, 63));
    check(
        "ras_balanced_calls_always_predict",
        &inputs,
        |&(depth, capacity)| {
            // With capacity >= depth, perfectly nested call/return
            // streams predict every return.
            let mut ras = ReturnAddressStack::new(capacity);
            for d in 0..depth {
                ras.push(d as u32 * 4 + 8);
            }
            for d in (0..depth).rev() {
                prop_assert!(ras.predict_and_verify(d as u32 * 4 + 8));
            }
            prop_assert_eq!(ras.stats().predictions, depth as u64);
            prop_assert_eq!(ras.stats().correct, depth as u64);
            prop_assert_eq!(ras.stats().overflows, 0);
            prop_assert_eq!(ras.stats().underflows, 0);
            Ok(())
        },
    );
}
