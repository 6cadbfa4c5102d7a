//! Golden-vector tests pinning the TLA3 packet wire format.
//!
//! Cached traces on disk must stay readable across releases, so any
//! packet-codec change that breaks these vectors is a format break,
//! not a refactor. TLA3 is the only binary format: files in the older
//! record formats must fail with `BadMagic`. The golden trace
//! exercises every packet kind — SYNC, COND (both gap modes), OTHER,
//! and ESC — plus both template-deviation causes.

use tlat_trace::codec::{self, DecodeError};
use tlat_trace::{packet, BranchRecord, CompiledTrace, InstClass, Trace};

/// The trace behind the golden vector, chosen so the packet stream
/// contains: a SYNC, a gap-mode-1 COND (the first event's gap 2
/// deviates from site 0's modal default gap of 0), two OSYNC+OREF
/// pairs (a return and an immediate call), a second SYNC, a
/// gap-mode-0 COND, and a target-deviating ESC.
fn golden_trace() -> Trace {
    let mut t = Trace::new();
    t.count_instruction(InstClass::IntAlu);
    t.count_instruction(InstClass::IntAlu);
    t.push(BranchRecord::conditional(0x1000, 0x0f00, true)); // gap 2
    t.push(BranchRecord::conditional(0x1000, 0x0f00, false)); // gap 0
    t.count_instruction(InstClass::Mem);
    t.push(BranchRecord::subroutine_return(0x1008, 0x2000)); // gap 1
    t.push(BranchRecord::call_imm(0x100c, 0x0040));
    t.push(BranchRecord::conditional(0x1010, 0x0f04, true));
    t.push(BranchRecord::conditional(0x1010, 0x0f04, true));
    t.push(BranchRecord::conditional(0x1000, 0x2000, false)); // deviating target
    t
}

/// TLA3: 60-byte header (magic, five u64 LE mix counters, u64 LE
/// record count, u64 LE conditional count) followed by packets.
/// Varints are LEB128; `s(x)` below marks zigzag-signed values.
#[rustfmt::skip]
const GOLDEN_V3: &[u8] = &[
    b'T', b'L', b'A', b'3',
    0x02, 0, 0, 0, 0, 0, 0, 0,          // IntAlu = 2
    0x00, 0, 0, 0, 0, 0, 0, 0,          // FpAlu  = 0
    0x01, 0, 0, 0, 0, 0, 0, 0,          // Mem    = 1
    0x07, 0, 0, 0, 0, 0, 0, 0,          // Branch = 7
    0x00, 0, 0, 0, 0, 0, 0, 0,          // Other  = 0
    0x07, 0, 0, 0, 0, 0, 0, 0,          // 7 records
    0x05, 0, 0, 0, 0, 0, 0, 0,          // 5 conditionals
    // SYNC site 0: s(pc 0x1000), s(target -0x100), modal gap 0, flags 0
    0x01, 0x80, 0x40, 0xff, 0x03, 0x00, 0x00,
    // COND: 1 ref, gap-mode 1, ref head (s(site +0)<<1 | 1) with
    // run-2 = 0, map 0b01, deviation bitmap 0b01, deviant gap 2
    0x02, 0x01, 0x01, 0x01, 0x00, 0x01, 0x01, 0x02,
    // OSYNC other-site 0, return taken: flags 0x81, s(pc 0x1008),
    // s(+0xff8), gap 1 — then OREF { s(osite +0) } emits the event
    0x05, 0x81, 0x90, 0x40, 0xf0, 0x3f, 0x01,
    0x06, 0x00,
    // OSYNC other-site 1, imm call taken: flags 0xc2, s(pc +4),
    // s(-0xfcc), gap 0 — then OREF { s(osite +1) }
    0x05, 0xc2, 0x08, 0x97, 0x3f, 0x00,
    0x06, 0x02,
    // SYNC site 1: s(pc +0x10), s(target -0x10c), gap 0, flags 0
    0x01, 0x20, 0x97, 0x04, 0x00, 0x00,
    // COND: 1 ref, gap-mode 0, ref head (s(site +1)<<1 | 1) with
    // run-2 = 0, map 0b11
    0x02, 0x01, 0x00, 0x05, 0x00, 0x03,
    // ESC at site 0: flags 0 (not taken, no call), s(site -1),
    // s(target - site pc = +0x1000), gap 0
    0x04, 0x00, 0x01, 0x80, 0x40, 0x00,
];

#[test]
fn encode_matches_v3_golden_bytes() {
    assert_eq!(packet::encode(&golden_trace()), GOLDEN_V3);
    assert_eq!(codec::encode_v3(&golden_trace()), GOLDEN_V3);
}

#[test]
fn decode_v3_golden_bytes() {
    let t = packet::decode(GOLDEN_V3).unwrap();
    assert_eq!(t, golden_trace());
    assert_eq!(t.gaps(), &[2, 0, 1, 0, 0, 0, 0]);
    assert_eq!(t.inst_mix().get(InstClass::IntAlu), 2);
    assert_eq!(t.conditional_len(), 5);
    // The codec entry point is the packet decoder.
    assert_eq!(codec::decode(GOLDEN_V3).unwrap(), golden_trace());
}

#[test]
fn streaming_decode_of_golden_bytes_equals_compile() {
    let compiled = packet::decode_compiled(GOLDEN_V3).unwrap();
    assert_eq!(compiled, CompiledTrace::compile(&golden_trace()));
    assert_eq!(compiled.site_pcs(), &[0x1000, 0x1010]);
    assert_eq!(compiled.cond_sites(), &[0, 0, 1, 1, 0]);
}

#[test]
fn truncation_at_every_boundary() {
    for cut in 0..GOLDEN_V3.len() - 1 {
        let err = packet::decode(&GOLDEN_V3[..cut]).unwrap_err();
        let expected = if cut < 4 {
            DecodeError::BadMagic
        } else {
            DecodeError::Truncated
        };
        assert_eq!(err, expected, "record cut at {cut}");
        if cut >= 4 {
            assert_eq!(
                packet::decode_compiled(&GOLDEN_V3[..cut]).unwrap_err(),
                expected,
                "compiled cut at {cut}"
            );
        }
    }
}

#[test]
fn absurd_declared_counts_are_rejected_before_allocating() {
    // u64::MAX records over this tiny body: the cap derived from the
    // input length bounds every allocation and the count check fails.
    let mut bytes = GOLDEN_V3.to_vec();
    for b in &mut bytes[44..52] {
        *b = 0xff;
    }
    assert!(packet::decode(&bytes).is_err());
    assert!(packet::decode_compiled(&bytes).is_err());
    // Same for the conditional count alone.
    let mut bytes = GOLDEN_V3.to_vec();
    for b in &mut bytes[52..60] {
        *b = 0xff;
    }
    assert!(packet::decode(&bytes).is_err());
    assert!(packet::decode_compiled(&bytes).is_err());
}

#[test]
fn corrupt_packets_are_bad_records_not_panics() {
    // Unknown packet tag.
    let mut bytes = GOLDEN_V3.to_vec();
    bytes[60] = 0x7e;
    assert!(matches!(
        packet::decode(&bytes),
        Err(DecodeError::BadRecord { .. })
    ));
    // Invalid gap-mode byte in the first COND packet (offset 69).
    let mut bytes = GOLDEN_V3.to_vec();
    assert_eq!(bytes[67], 0x02, "golden layout moved");
    bytes[69] = 0x05;
    assert!(matches!(
        packet::decode(&bytes),
        Err(DecodeError::BadRecord { .. })
    ));
    // Out-of-range site delta in the gap-mode-0 COND packet: its ref
    // head is at offset 101 ((zigzag(+1) << 1) | run flag → site 1);
    // forge a +2 delta → site 2.
    let mut bytes = GOLDEN_V3.to_vec();
    assert_eq!(bytes[98], 0x02, "golden layout moved");
    bytes[101] = 0x09;
    assert!(matches!(
        packet::decode(&bytes),
        Err(DecodeError::BadRecord { .. })
    ));
    // Out-of-range other-site delta in the first OREF (offset 82; its
    // osite 0 is the only one defined at that point): forge a +1
    // delta → osite 1.
    let mut bytes = GOLDEN_V3.to_vec();
    assert_eq!(bytes[82], 0x06, "golden layout moved");
    bytes[83] = 0x02;
    assert!(matches!(
        packet::decode(&bytes),
        Err(DecodeError::BadRecord { .. })
    ));
    // An OSYNC declaring the conditional class is malformed (offset
    // 75 is the first OSYNC's flags byte).
    let mut bytes = GOLDEN_V3.to_vec();
    assert_eq!(bytes[75], 0x05, "golden layout moved");
    bytes[76] = 0x00;
    assert!(matches!(
        packet::decode(&bytes),
        Err(DecodeError::BadRecord { .. })
    ));
    // Reserved SYNC flag bits must be zero (offset 66).
    let mut bytes = GOLDEN_V3.to_vec();
    bytes[66] = 0x80;
    assert!(matches!(
        packet::decode(&bytes),
        Err(DecodeError::BadRecord { .. })
    ));
}

#[test]
fn branch_map_straddles_byte_and_word_boundaries() {
    // Two sites alternating in runs of 13: run boundaries land mid-
    // byte and mid-word in the 150-event branch map, in both the
    // record and the streaming decoder.
    let mut t = Trace::new();
    for i in 0..150u32 {
        let site = (i / 13) % 2;
        let pc = 0x1000 + site * 0x40;
        t.push(BranchRecord::conditional(pc, 0x800, i % 3 != 0));
    }
    let bytes = packet::encode(&t);
    assert_eq!(packet::decode(&bytes).unwrap(), t);
    assert_eq!(
        packet::decode_compiled(&bytes).unwrap(),
        CompiledTrace::compile(&t)
    );
}

#[test]
fn codec_entry_points_roundtrip_through_tla3() {
    // The codec names are the packet codec: the round trip through
    // them returns the same records, gaps and mix, and the streaming
    // decode equals compile-after-decode.
    let t = golden_trace();
    let bytes = codec::encode_v3(&t);
    let back = codec::decode(&bytes).unwrap();
    assert_eq!(back, t);
    assert_eq!(back, packet::decode(&packet::encode(&t)).unwrap());
    assert_eq!(
        codec::decode_compiled(&bytes).unwrap(),
        CompiledTrace::compile(&back)
    );
}

#[test]
fn bad_magic_variants() {
    assert_eq!(codec::decode(b""), Err(DecodeError::BadMagic));
    assert_eq!(codec::decode(b"TL"), Err(DecodeError::BadMagic));
    // A bare magic with no header is truncation, not an unknown format.
    assert_eq!(codec::decode(b"TLA3"), Err(DecodeError::Truncated));
    assert_eq!(codec::decode(b"TLA4"), Err(DecodeError::BadMagic));
    let mut wrong = GOLDEN_V3.to_vec();
    wrong[3] = b'9';
    assert_eq!(codec::decode(&wrong), Err(DecodeError::BadMagic));
}

/// A complete file in the retired TLA2 record format (magic, five u64
/// LE mix counters, u64 LE record count, then 13 bytes per record).
#[rustfmt::skip]
const STALE_TLA2_FILE: &[u8] = &[
    b'T', b'L', b'A', b'2',
    2, 0, 0, 0, 0, 0, 0, 0,             // IntAlu = 2
    0, 0, 0, 0, 0, 0, 0, 0,             // FpAlu  = 0
    1, 0, 0, 0, 0, 0, 0, 0,             // Mem    = 1
    3, 0, 0, 0, 0, 0, 0, 0,             // Branch = 3
    0, 0, 0, 0, 0, 0, 0, 0,             // Other  = 0
    3, 0, 0, 0, 0, 0, 0, 0,             // 3 records
    0x00, 0x10, 0, 0, 0x00, 0x0f, 0, 0, 0x80, 2, 0, 0, 0, // cond taken, gap 2
    0x08, 0x10, 0, 0, 0x00, 0x20, 0, 0, 0x81, 1, 0, 0, 0, // return, gap 1
    0x0c, 0x10, 0, 0, 0x40, 0x00, 0, 0, 0xc2, 0, 0, 0, 0, // imm call, gap 0
];

/// A complete file in the retired TLA1 record format (9-byte records,
/// no gap field).
#[rustfmt::skip]
const STALE_TLA1_FILE: &[u8] = &[
    b'T', b'L', b'A', b'1',
    1, 0, 0, 0, 0, 0, 0, 0,             // IntAlu = 1
    0, 0, 0, 0, 0, 0, 0, 0,             // FpAlu  = 0
    0, 0, 0, 0, 0, 0, 0, 0,             // Mem    = 0
    1, 0, 0, 0, 0, 0, 0, 0,             // Branch = 1
    0, 0, 0, 0, 0, 0, 0, 0,             // Other  = 0
    1, 0, 0, 0, 0, 0, 0, 0,             // 1 record
    0x10, 0, 0, 0, 0x20, 0, 0, 0, 0x00, // cond not taken
];

#[test]
fn retired_record_formats_are_bad_magic() {
    for stale in [STALE_TLA2_FILE, STALE_TLA1_FILE] {
        assert_eq!(codec::decode(stale), Err(DecodeError::BadMagic));
        assert_eq!(codec::decode_compiled(stale), Err(DecodeError::BadMagic));
    }
}
