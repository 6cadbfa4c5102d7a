//! Byte-budget breakdown of a TLA3 packet file: where the bytes go,
//! per packet kind and per COND component (refs vs branch map vs gap
//! stream). Diagnostic companion to the `trace_io` bench — run it on a
//! cache entry when the compression ratio looks off:
//!
//! ```text
//! cargo run --release -p tlat-trace --example packet_breakdown -- \
//!     target/tlat-cache/gcc-test-*.tlat
//! ```

use tlat_trace::cursor::Reader;

fn varint_len(r: &mut Reader<'_>) -> usize {
    let before = r.remaining();
    r.get_varint().expect("truncated varint");
    before - r.remaining()
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: packet_breakdown <file.tlat>");
    let bytes = std::fs::read(&path).expect("reading input");
    assert_eq!(&bytes[..4], b"TLA3", "not a TLA3 file");
    let mut r = Reader::new(&bytes[60..]);

    let (mut sync_b, mut other_b, mut esc_b, mut osync_b, mut oref_b) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let (mut cond_hdr_b, mut cond_ref_b, mut cond_map_b, mut cond_gap_b) =
        (0usize, 0usize, 0usize, 0usize);
    let (mut syncs, mut others, mut escs, mut conds, mut events, mut run1) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut osyncs, mut orefs) = (0u64, 0u64);
    let mut gap_mode1 = 0u64;

    while r.remaining() > 0 {
        let tag = r.get_u8();
        match tag {
            0x01 => {
                syncs += 1;
                sync_b += 1 + varint_len(&mut r) + varint_len(&mut r) + varint_len(&mut r);
                r.get_u8();
                sync_b += 1;
            }
            0x02 => {
                conds += 1;
                let hdr_start = r.remaining();
                let n_refs = r.get_varint().expect("n-refs");
                let gap_mode = r.get_u8();
                cond_hdr_b += 1 + (hdr_start - r.remaining());
                let mut batch_events = 0u64;
                for _ in 0..n_refs {
                    let before = r.remaining();
                    let head = r.get_varint().expect("ref head");
                    let run = if head & 1 == 0 {
                        run1 += 1;
                        1
                    } else {
                        r.get_varint().expect("run length") + 2
                    };
                    cond_ref_b += before - r.remaining();
                    batch_events += run;
                }
                events += batch_events;
                let map = batch_events.div_ceil(8) as usize;
                r.advance(map);
                cond_map_b += map;
                if gap_mode == 1 {
                    gap_mode1 += 1;
                    let deviates = &r.rest()[..map];
                    r.advance(map);
                    cond_gap_b += map;
                    let deviants: u32 = deviates.iter().map(|b| b.count_ones()).sum();
                    for _ in 0..deviants.min(batch_events as u32) {
                        cond_gap_b += varint_len(&mut r);
                    }
                }
            }
            0x03 => {
                others += 1;
                r.get_u8();
                other_b += 2 + varint_len(&mut r) + varint_len(&mut r) + varint_len(&mut r);
            }
            0x04 => {
                escs += 1;
                r.get_u8();
                esc_b += 2 + varint_len(&mut r) + varint_len(&mut r) + varint_len(&mut r);
            }
            0x05 => {
                osyncs += 1;
                r.get_u8();
                osync_b += 2 + varint_len(&mut r) + varint_len(&mut r) + varint_len(&mut r);
            }
            0x06 => {
                orefs += 1;
                oref_b += 1 + varint_len(&mut r);
            }
            other => panic!(
                "unknown tag {other:#x} at offset {}",
                bytes.len() - r.remaining()
            ),
        }
    }

    let total = bytes.len();
    let pct = |b: usize| 100.0 * b as f64 / total as f64;
    println!("{path}: {total} bytes, {events} conditional events");
    println!("  header  {:>9} bytes ({:5.1}%)", 60, pct(60));
    println!(
        "  SYNC    {sync_b:>9} bytes ({:5.1}%)  {syncs} packets",
        pct(sync_b)
    );
    println!(
        "  COND    {:>9} bytes ({:5.1}%)  {conds} packets ({gap_mode1} in gap-mode 1)",
        cond_hdr_b + cond_ref_b + cond_map_b + cond_gap_b,
        pct(cond_hdr_b + cond_ref_b + cond_map_b + cond_gap_b)
    );
    println!(
        "    refs  {cond_ref_b:>9} bytes ({:5.1}%)  {run1} of the refs are length-1 runs",
        pct(cond_ref_b)
    );
    println!("    map   {cond_map_b:>9} bytes ({:5.1}%)", pct(cond_map_b));
    println!("    gaps  {cond_gap_b:>9} bytes ({:5.1}%)", pct(cond_gap_b));
    println!(
        "  OTHER   {other_b:>9} bytes ({:5.1}%)  {others} packets",
        pct(other_b)
    );
    println!(
        "  OSYNC   {osync_b:>9} bytes ({:5.1}%)  {osyncs} packets",
        pct(osync_b)
    );
    println!(
        "  OREF    {oref_b:>9} bytes ({:5.1}%)  {orefs} packets",
        pct(oref_b)
    );
    println!(
        "  ESC     {esc_b:>9} bytes ({:5.1}%)  {escs} packets",
        pct(esc_b)
    );
    println!("  bits/event: {:.2}", 8.0 * total as f64 / events as f64);

    // Gap-model fit: how often a conditional's gap matches each
    // candidate baseline. "first" is what SYNC's default-gap encodes;
    // "mode" is the per-site most-common gap; "prev" is the site's
    // previous occurrence's gap.
    let trace = tlat_trace::packet::decode(&bytes).expect("decoding for gap-model fit");
    let mut first: std::collections::HashMap<u32, u32> = Default::default();
    let mut prev: std::collections::HashMap<u32, u32> = Default::default();
    let mut histo: std::collections::HashMap<(u32, u32), u64> = Default::default();
    let (mut n, mut hit_first, mut hit_prev) = (0u64, 0u64, 0u64);
    for (record, &gap) in trace.iter().zip(trace.gaps()) {
        if record.class != tlat_trace::BranchClass::Conditional {
            continue;
        }
        n += 1;
        if *first.entry(record.pc).or_insert(gap) == gap {
            hit_first += 1;
        }
        if prev.insert(record.pc, gap) == Some(gap) {
            hit_prev += 1;
        }
        *histo.entry((record.pc, gap)).or_insert(0) += 1;
    }
    let mut best: std::collections::HashMap<u32, (u64, u32)> = Default::default();
    for (&(pc, gap), &count) in &histo {
        let entry = best.entry(pc).or_insert((0, 0));
        if count > entry.0 {
            *entry = (count, gap);
        }
    }
    let hit_mode: u64 = best.values().map(|&(count, _)| count).sum();
    println!(
        "  gap-model fit over {n} conditionals: first {:.1}%, mode {:.1}%, prev-same-site {:.1}%",
        100.0 * hit_first as f64 / n as f64,
        100.0 * hit_mode as f64 / n as f64,
        100.0 * hit_prev as f64 / n as f64
    );
}
