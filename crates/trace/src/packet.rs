//! The TLA3 packet trace format: site-dictionary compression with
//! branch-map outcome words and streaming decode.
//!
//! TLA3 is the workspace's only binary trace format. A flat record
//! format spends 13 bytes on every dynamic branch, so a paper-fidelity
//! 20M-branch trace would cost ~280MB on disk and have to be fully
//! materialized as a record vector before the gang walk could compile
//! it. TLA3 follows the production E-Trace pattern instead: full
//! addresses appear once, when a static branch is first seen, and
//! every later occurrence is a dense site reference plus one outcome
//! bit. The stream decodes *directly* into [`CompiledTrace`] — the
//! site dictionary IS the interning table and the branch maps ARE the
//! packed outcome bitvec — so the gang path never materializes
//! per-record vectors at all.
//!
//! # Wire format
//!
//! Header (60 bytes, all integers little-endian):
//!
//! ```text
//! magic "TLA3" | 5 × u64 instruction mix | u64 record count | u64 conditional count
//! ```
//!
//! Then a stream of packets until end of input. Varints are LEB128
//! (seven bits per byte, low first); signed deltas are zigzag-mapped
//! first (see [`crate::cursor`]). Four packet kinds, one tag byte
//! each:
//!
//! * `0x01` **SYNC** — defines the next dense site id (ids count up
//!   from 0 in packet order, which the encoder guarantees is
//!   first-appearance order): `svarint pc-delta` (vs. previous SYNC
//!   pc), `svarint target − pc`, `varint default-gap` (the encoder
//!   picks the site's most-common gap, so deviations stay rare),
//!   `flags` byte (bit 0 = call). Defines the site's *template*;
//!   emits no event.
//! * `0x02` **COND** — a batch of conditional events matching their
//!   site templates: `varint n-refs`, `gap-mode` byte, then `n-refs`
//!   refs — each a `varint` whose upper bits are the zigzagged
//!   site-delta (vs. the running previous site) and whose low bit
//!   flags an explicit run length (`varint run-length − 2` follows; a
//!   clear bit means a length-1 run) — then the `branch_map`:
//!   `ceil(events/8)` bytes of outcome bits, LSB first, in event
//!   order. Gap-mode 0 means every event uses its site's default gap;
//!   gap-mode 1 appends a deviation bitmap the same shape as the
//!   branch map plus one `varint gap` per set (deviating) bit, in
//!   event order.
//! * `0x03` **OTHER** — one non-conditional record: `flags` byte
//!   (class code | call≪6 | taken≪7), `svarint pc-delta` (vs. the
//!   previous OTHER pc), `svarint target − pc`, `varint gap`.
//! * `0x04` **ESC** — one conditional event that deviates from its
//!   site template (a same-pc branch with a different target or call
//!   flag): `flags` byte (bit 0 = call, bit 1 = taken), `svarint
//!   site-delta`, `svarint target − site pc`, `varint gap`.
//! * `0x05` **OSYNC** — defines the next dense *other-site* id (a
//!   separate id space from conditional sites, same first-appearance
//!   ordering rule): `flags` byte (class code | call≪6 | taken≪7),
//!   `svarint pc-delta` (vs. previous OSYNC pc), `svarint target −
//!   pc`, `varint default-gap`. Target and gap are the pc's
//!   most-common values, like SYNC's default-gap. Emits no event.
//! * `0x06` **OREF** — one non-conditional event that matches its
//!   other-site template exactly: `svarint osite-delta` (vs. the
//!   running previous other-site). Deviating events fall back to a
//!   plain OTHER packet.
//!
//! The decoder rejects input without the `TLA3` magic as
//! [`DecodeError::BadMagic`], enforces the header's record and
//! conditional counts, bounds-checks every site reference, and reports
//! [`DecodeError::Truncated`] / [`DecodeError::BadRecord`].
//! Pre-allocation is capped by the input length (a conditional event
//! costs at least one branch-map bit), so a hostile header cannot drive
//! an over-allocation.
//!
//! # Examples
//!
//! ```
//! use tlat_trace::{packet, BranchRecord, CompiledTrace, Trace};
//!
//! let mut t = Trace::new();
//! for i in 0..100 {
//!     t.push(BranchRecord::conditional(0x1000, 0x0f00, i % 10 != 9));
//! }
//! let bytes = packet::encode(&t);
//! assert!(bytes.len() < 100); // ~1 bit per event after the header
//! assert_eq!(packet::decode(&bytes)?, t);
//! assert_eq!(packet::decode_compiled(&bytes)?, CompiledTrace::compile(&t));
//! # Ok::<(), tlat_trace::codec::DecodeError>(())
//! ```

use crate::branch::{BranchClass, BranchRecord, InstClass};
use crate::codec::DecodeError;
use crate::compiled::{CompiledBuilder, CompiledTrace, PcMap};
use crate::cursor::{put_varint, unzigzag, zigzag, PutBytes, Reader};
use crate::stats::InstMix;
use crate::trace::Trace;

/// Magic bytes of format v3 (packetized site-dictionary format).
pub const MAGIC: [u8; 4] = *b"TLA3";

/// Defines the next dense site id's template.
const TAG_SYNC: u8 = 0x01;
/// A batch of template-conforming conditional events.
const TAG_COND: u8 = 0x02;
/// One non-conditional record.
const TAG_OTHER: u8 = 0x03;
/// One template-deviating conditional event.
const TAG_ESC: u8 = 0x04;
/// Defines the next dense other-site id's template.
const TAG_OSYNC: u8 = 0x05;
/// One template-conforming non-conditional event.
const TAG_OREF: u8 = 0x06;

/// Events buffered per COND packet before a forced flush, bounding
/// both packet size and the decoder's per-packet working set.
const MAX_PACKET_EVENTS: usize = 1 << 16;

/// One site's template, established by its SYNC packet.
#[derive(Debug, Clone, Copy)]
struct Site {
    pc: u32,
    target: u32,
    call: bool,
    default_gap: u32,
}

/// One non-conditional site's template, established by its OSYNC
/// packet. A conforming event replays the whole record plus its gap
/// from a single site reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OtherSite {
    record: BranchRecord,
    default_gap: u32,
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// What an other-site histogram counts: a non-conditional event's
/// `(target, gap, taken, call, class code)`. The tuple order is the
/// tie-break order.
type OtherKey = (u32, u32, bool, bool, u8);

/// One site's histogram: each distinct value with its count, in
/// first-seen order. On the workload traces at 500 k branches a
/// conditional site carries at most four distinct gaps and an other
/// site at most eight variants, so a linear scan is cheaper than
/// hashing.
type Histogram<K> = Vec<(K, u64)>;

/// Counts one more event with value `key`.
fn tally<K: PartialEq>(histo: &mut Histogram<K>, key: K) {
    match histo.iter_mut().find(|(k, _)| *k == key) {
        Some((_, count)) => *count += 1,
        None => histo.push((key, 1)),
    }
}

/// The most common value. Ties break toward the smaller value, so the
/// choice depends on the counts alone, not on the order values were
/// first seen.
fn mode<K: Ord + Copy>(histo: &Histogram<K>) -> K {
    histo
        .iter()
        .max_by_key(|&&(key, count)| (count, std::cmp::Reverse(key)))
        .expect("an interned site has at least one event")
        .0
}

/// A two-pass encoder. The statistics pass ([`Encoder::new`]) interns
/// every pc into a dense first-appearance id and settles each id's
/// template from a histogram of its events. The emission pass
/// ([`Encoder::push`]) looks each pc up again and reads its template by
/// id. Both passes assign ids in the same order, so an id equal to the
/// count of templates defined so far marks a first appearance, where
/// the SYNC or OSYNC packet goes out.
struct Encoder<'a> {
    out: &'a mut Vec<u8>,
    /// Conditional pc → dense site id.
    intern: PcMap,
    /// Site id → template: the first event's target and call flag, and
    /// the site's most-common gap as the default (a site's *first* gap
    /// is a poor model on workloads whose warmup iterations differ
    /// from the steady state).
    sites: Vec<Site>,
    /// Non-conditional pc → dense other-site id.
    other_intern: PcMap,
    /// Other-site id → the pc's most-common record + gap: the OSYNC
    /// template that turns a repeated return/call into a one-delta
    /// OREF.
    osites: Vec<OtherSite>,
    /// SYNC and OSYNC packets written so far.
    defined: u32,
    odefined: u32,
    prev_site: i64,
    prev_osite: i64,
    prev_sync_pc: i64,
    prev_osync_pc: i64,
    prev_other_pc: i64,
    /// Pending COND batch: per-ref (site, run length) …
    refs: Vec<(u32, u64)>,
    /// … its event count …
    events: usize,
    /// … the branch map and deviation map, packed LSB first as they go
    /// on the wire (a deviation bit flags a gap other than the site
    /// default) …
    branch_map: Vec<u8>,
    deviation_map: Vec<u8>,
    /// … and the deviating gaps only (gap-mode 1's exception stream).
    deviant_gaps: Vec<u32>,
}

impl<'a> Encoder<'a> {
    /// The statistics pass over `trace`.
    fn new(out: &'a mut Vec<u8>, trace: &Trace) -> Self {
        let mut intern = PcMap::default();
        let mut sites = Vec::new();
        let mut gaps: Vec<Histogram<u32>> = Vec::new();
        let mut other_intern = PcMap::default();
        let mut other_pcs = Vec::new();
        let mut variants: Vec<Histogram<OtherKey>> = Vec::new();
        for (record, &gap) in trace.iter().zip(trace.gaps()) {
            if record.class == BranchClass::Conditional {
                let next = sites.len() as u32;
                let site = *intern.entry(record.pc).or_insert(next);
                if site == next {
                    sites.push(Site {
                        pc: record.pc,
                        target: record.target,
                        call: record.call,
                        default_gap: 0,
                    });
                    gaps.push(Vec::new());
                }
                tally(&mut gaps[site as usize], gap);
            } else {
                let next = other_pcs.len() as u32;
                let osite = *other_intern.entry(record.pc).or_insert(next);
                if osite == next {
                    other_pcs.push(record.pc);
                    variants.push(Vec::new());
                }
                let key = (record.target, gap, record.taken, record.call, record.class.code());
                tally(&mut variants[osite as usize], key);
            }
        }
        for (site, gaps) in sites.iter_mut().zip(&gaps) {
            site.default_gap = mode(gaps);
        }
        let osites = other_pcs
            .into_iter()
            .zip(&variants)
            .map(|(pc, variants)| {
                let (target, gap, taken, call, code) = mode(variants);
                let class = BranchClass::from_code(code).expect("histogram keys carry valid codes");
                let record = BranchRecord { pc, target, class, taken, call };
                OtherSite { record, default_gap: gap }
            })
            .collect();
        Encoder {
            out,
            intern,
            sites,
            other_intern,
            osites,
            defined: 0,
            odefined: 0,
            prev_site: 0,
            prev_osite: 0,
            prev_sync_pc: 0,
            prev_osync_pc: 0,
            prev_other_pc: 0,
            refs: Vec::new(),
            events: 0,
            branch_map: Vec::new(),
            deviation_map: Vec::new(),
            deviant_gaps: Vec::new(),
        }
    }

    /// Emits one record of the trace the statistics pass saw.
    fn push(&mut self, record: &BranchRecord, gap: u32) {
        if record.class != BranchClass::Conditional {
            self.push_other(record, gap);
            return;
        }
        let site = self.intern[&record.pc];
        let template = self.sites[site as usize];
        if site == self.defined {
            // First appearance: flush so the SYNC lands before the
            // batch that references it, then define the template.
            self.flush();
            self.defined += 1;
            self.out.put_u8(TAG_SYNC);
            put_varint(self.out, zigzag(i64::from(template.pc) - self.prev_sync_pc));
            self.prev_sync_pc = i64::from(template.pc);
            put_varint(
                self.out,
                zigzag(i64::from(template.target) - i64::from(template.pc)),
            );
            put_varint(self.out, u64::from(template.default_gap));
            self.out.put_u8(template.call as u8);
        }
        if record.target != template.target || record.call != template.call {
            // Deviates from the template: escape with explicit fields.
            self.flush();
            self.out.put_u8(TAG_ESC);
            self.out
                .put_u8((record.call as u8) | ((record.taken as u8) << 1));
            put_varint(self.out, zigzag(i64::from(site) - self.prev_site));
            self.prev_site = i64::from(site);
            put_varint(
                self.out,
                zigzag(i64::from(record.target) - i64::from(template.pc)),
            );
            put_varint(self.out, u64::from(gap));
            return;
        }
        let deviating = gap != template.default_gap;
        if deviating {
            self.deviant_gaps.push(gap);
        }
        let (byte, bit) = (self.events / 8, self.events % 8);
        if bit == 0 {
            self.branch_map.push(0);
            self.deviation_map.push(0);
        }
        self.branch_map[byte] |= (record.taken as u8) << bit;
        self.deviation_map[byte] |= (deviating as u8) << bit;
        match self.refs.last_mut() {
            Some((s, run)) if *s == site => *run += 1,
            _ => self.refs.push((site, 1)),
        }
        self.events += 1;
        if self.events >= MAX_PACKET_EVENTS {
            self.flush();
        }
    }

    fn push_other(&mut self, record: &BranchRecord, gap: u32) {
        self.flush();
        let osite = self.other_intern[&record.pc];
        let template = self.osites[osite as usize];
        if osite == self.odefined {
            // First appearance: define the template from the pc's
            // modal record so conforming OREFs stay the common case.
            self.odefined += 1;
            self.out.put_u8(TAG_OSYNC);
            self.out.put_u8(
                template.record.class.code()
                    | ((template.record.call as u8) << 6)
                    | ((template.record.taken as u8) << 7),
            );
            put_varint(
                self.out,
                zigzag(i64::from(record.pc) - self.prev_osync_pc),
            );
            self.prev_osync_pc = i64::from(record.pc);
            put_varint(
                self.out,
                zigzag(i64::from(template.record.target) - i64::from(record.pc)),
            );
            put_varint(self.out, u64::from(template.default_gap));
        }
        if template.record == *record && template.default_gap == gap {
            self.out.put_u8(TAG_OREF);
            put_varint(self.out, zigzag(i64::from(osite) - self.prev_osite));
            self.prev_osite = i64::from(osite);
            return;
        }
        self.out.put_u8(TAG_OTHER);
        self.out.put_u8(
            record.class.code() | ((record.call as u8) << 6) | ((record.taken as u8) << 7),
        );
        put_varint(
            self.out,
            zigzag(i64::from(record.pc) - self.prev_other_pc),
        );
        self.prev_other_pc = i64::from(record.pc);
        put_varint(
            self.out,
            zigzag(i64::from(record.target) - i64::from(record.pc)),
        );
        put_varint(self.out, u64::from(gap));
    }

    fn flush(&mut self) {
        if self.events == 0 {
            return;
        }
        self.out.put_u8(TAG_COND);
        put_varint(self.out, self.refs.len() as u64);
        self.out.put_u8(!self.deviant_gaps.is_empty() as u8);
        for &(site, run) in &self.refs {
            // The run-length flag rides the site-delta varint's low
            // bit: length-1 runs (the common case on interleaved
            // branch streams) cost one byte, not two.
            let delta = zigzag(i64::from(site) - self.prev_site);
            self.prev_site = i64::from(site);
            if run == 1 {
                put_varint(self.out, delta << 1);
            } else {
                put_varint(self.out, (delta << 1) | 1);
                put_varint(self.out, run - 2);
            }
        }
        self.out.put_slice(&self.branch_map);
        if !self.deviant_gaps.is_empty() {
            self.out.put_slice(&self.deviation_map);
            for &gap in &self.deviant_gaps {
                put_varint(self.out, u64::from(gap));
            }
        }
        self.refs.clear();
        self.events = 0;
        self.branch_map.clear();
        self.deviation_map.clear();
        self.deviant_gaps.clear();
    }
}

/// Serializes a trace as TLA3 packets, in two passes over the records:
/// statistics (dense ids and modal templates), then emission.
pub fn encode(trace: &Trace) -> Vec<u8> {
    // The workload traces average ~2 bytes per record.
    let mut out = Vec::with_capacity(64 + 2 * trace.len());
    out.put_slice(&MAGIC);
    for class in InstClass::ALL {
        out.put_u64_le(trace.inst_mix().get(class));
    }
    out.put_u64_le(trace.len() as u64);
    out.put_u64_le(trace.conditional_len());
    let mut enc = Encoder::new(&mut out, trace);
    for (record, &gap) in trace.iter().zip(trace.gaps()) {
        enc.push(record, gap);
    }
    enc.flush();
    out
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/// What a packet stream lowers into: either a record [`Trace`]
/// (compatibility) or a [`CompiledTrace`] (the gang streaming path).
/// Site ids arrive dense and in first-appearance order with their
/// template target; `cond` is called once per template-conforming
/// conditional event and `escape` once per deviating one, with the
/// event's fields already resolved.
trait PacketSink {
    fn define_site(&mut self, pc: u32, target: u32);
    fn cond(&mut self, site: u32, pc: u32, target: u32, taken: bool, call: bool, gap: u32);
    fn escape(&mut self, site: u32, pc: u32, target: u32, taken: bool, call: bool, gap: u32) {
        self.cond(site, pc, target, taken, call, gap);
    }
    fn other(&mut self, record: BranchRecord, gap: u32);
}

struct RecordSink {
    trace: Trace,
    gaps: Vec<u32>,
}

impl PacketSink for RecordSink {
    fn define_site(&mut self, _pc: u32, _target: u32) {}

    fn cond(&mut self, _site: u32, pc: u32, target: u32, taken: bool, call: bool, gap: u32) {
        self.trace.push(BranchRecord {
            pc,
            target,
            class: BranchClass::Conditional,
            taken,
            call,
        });
        self.gaps.push(gap);
    }

    fn other(&mut self, record: BranchRecord, gap: u32) {
        self.trace.push(record);
        self.gaps.push(gap);
    }
}

struct CompiledSink(CompiledBuilder);

impl PacketSink for CompiledSink {
    fn define_site(&mut self, pc: u32, target: u32) {
        self.0.define_site(pc, target);
    }

    fn cond(&mut self, site: u32, _pc: u32, _target: u32, taken: bool, call: bool, _gap: u32) {
        self.0.cond(site, taken, call);
    }

    fn escape(&mut self, site: u32, _pc: u32, target: u32, taken: bool, call: bool, _gap: u32) {
        self.0.escape(site, target, taken, call);
    }

    fn other(&mut self, record: BranchRecord, _gap: u32) {
        self.0
            .other(record.class, record.pc, record.target, record.call);
    }
}

struct Header {
    mix: InstMix,
    total: u64,
    n_cond: u64,
}

fn read_header(r: &mut Reader<'_>) -> Result<Header, DecodeError> {
    if r.remaining() < 4 {
        return Err(DecodeError::BadMagic);
    }
    if r.rest()[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    r.advance(4);
    if r.remaining() < 8 * 7 {
        return Err(DecodeError::Truncated);
    }
    let mut mix = InstMix::default();
    for class in InstClass::ALL {
        mix.set_raw(class, r.get_u64_le());
    }
    let total = r.get_u64_le();
    let n_cond = r.get_u64_le();
    Ok(Header { mix, total, n_cond })
}

/// A declared count's pre-allocation cap: every record costs at least
/// one branch-map bit, so an honest body backs at most eight records
/// per remaining byte — a hostile header cannot allocate past that.
fn alloc_cap(declared: u64, remaining: usize) -> usize {
    declared.min(remaining as u64 * 8) as usize
}

/// Reads a varint, mapping failure to `Truncated` (input exhausted)
/// or `BadRecord` (malformed encoding with bytes left).
fn varint(r: &mut Reader<'_>, index: usize) -> Result<u64, DecodeError> {
    r.get_varint().ok_or(if r.remaining() == 0 {
        DecodeError::Truncated
    } else {
        DecodeError::BadRecord { index }
    })
}

fn to_u32(v: u64, index: usize) -> Result<u32, DecodeError> {
    u32::try_from(v).map_err(|_| DecodeError::BadRecord { index })
}

/// Applies a zigzag delta to a base address, rejecting results outside
/// the u32 address space.
fn delta_addr(base: i64, r: &mut Reader<'_>, index: usize) -> Result<u32, DecodeError> {
    let delta = unzigzag(varint(r, index)?);
    let addr = base
        .checked_add(delta)
        .ok_or(DecodeError::BadRecord { index })?;
    u32::try_from(addr).map_err(|_| DecodeError::BadRecord { index })
}

/// Resolves a site-delta against the running previous site,
/// bounds-checked against the sites defined so far.
fn site_from_delta(
    delta: i64,
    prev_site: &mut i64,
    n_sites: usize,
    index: usize,
) -> Result<u32, DecodeError> {
    let site = prev_site
        .checked_add(delta)
        .ok_or(DecodeError::BadRecord { index })?;
    if site < 0 || site >= n_sites as i64 {
        return Err(DecodeError::BadRecord { index });
    }
    *prev_site = site;
    Ok(site as u32)
}

/// Reads a site reference (zigzag delta vs. the running previous
/// site), bounds-checked against the sites defined so far.
fn site_ref(
    r: &mut Reader<'_>,
    prev_site: &mut i64,
    n_sites: usize,
    index: usize,
) -> Result<u32, DecodeError> {
    let delta = unzigzag(varint(r, index)?);
    site_from_delta(delta, prev_site, n_sites, index)
}

fn decode_packets<S: PacketSink>(
    r: &mut Reader<'_>,
    total: u64,
    n_cond: u64,
    sink: &mut S,
) -> Result<(), DecodeError> {
    let mut sites: Vec<Site> = Vec::new();
    let mut osites: Vec<OtherSite> = Vec::new();
    let mut prev_site = 0i64;
    let mut prev_osite = 0i64;
    let mut prev_sync_pc = 0i64;
    let mut prev_osync_pc = 0i64;
    let mut prev_other_pc = 0i64;
    let mut records = 0u64;
    let mut conds = 0u64;
    let mut refs: Vec<(u32, u64)> = Vec::new();
    while r.remaining() > 0 {
        let index = records as usize;
        let bad = || DecodeError::BadRecord { index };
        match r.get_u8() {
            TAG_SYNC => {
                let pc = delta_addr(prev_sync_pc, r, index)?;
                prev_sync_pc = i64::from(pc);
                let target = delta_addr(i64::from(pc), r, index)?;
                let default_gap = to_u32(varint(r, index)?, index)?;
                if r.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let flags = r.get_u8();
                if flags & !0x01 != 0 {
                    return Err(bad());
                }
                sites.push(Site {
                    pc,
                    target,
                    call: flags & 0x01 != 0,
                    default_gap,
                });
                sink.define_site(pc, target);
            }
            TAG_COND => {
                let n_refs = varint(r, index)?;
                // Each ref is at least two bytes; a count the body
                // cannot back is truncation, checked before reserving.
                if n_refs > r.remaining() as u64 {
                    return Err(DecodeError::Truncated);
                }
                if r.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let gap_mode = r.get_u8();
                if gap_mode > 1 {
                    return Err(bad());
                }
                refs.clear();
                refs.reserve(n_refs as usize);
                let mut events = 0u64;
                for _ in 0..n_refs {
                    // The low bit of the site-delta varint flags an
                    // explicit run length (stored minus two); a clear
                    // bit means a length-1 run.
                    let head = varint(r, index)?;
                    let site =
                        site_from_delta(unzigzag(head >> 1), &mut prev_site, sites.len(), index)?;
                    let run = if head & 1 == 0 {
                        1
                    } else {
                        varint(r, index)?.checked_add(2).ok_or_else(bad)?
                    };
                    events = events.checked_add(run).ok_or_else(bad)?;
                    refs.push((site, run));
                }
                if records.checked_add(events).map_or(true, |v| v > total) {
                    return Err(bad());
                }
                let map_bytes = events.div_ceil(8) as usize;
                if r.remaining() < map_bytes {
                    return Err(DecodeError::Truncated);
                }
                let map = &r.rest()[..map_bytes];
                r.advance(map_bytes);
                // Gap-mode 1: a deviation bitmap the same shape as the
                // branch map, then one varint gap per set bit.
                let deviates = if gap_mode == 1 {
                    if r.remaining() < map_bytes {
                        return Err(DecodeError::Truncated);
                    }
                    let deviates = &r.rest()[..map_bytes];
                    r.advance(map_bytes);
                    deviates
                } else {
                    &[][..]
                };
                let mut e = 0usize;
                for &(site, run) in &refs {
                    let template = sites[site as usize];
                    for _ in 0..run {
                        let taken = map[e / 8] >> (e % 8) & 1 != 0;
                        let gap = if gap_mode == 1 && deviates[e / 8] >> (e % 8) & 1 != 0 {
                            to_u32(varint(r, index)?, index)?
                        } else {
                            template.default_gap
                        };
                        sink.cond(site, template.pc, template.target, taken, template.call, gap);
                        e += 1;
                    }
                }
                records += events;
                conds += events;
            }
            TAG_OTHER => {
                if r.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let flags = r.get_u8();
                let class = BranchClass::from_code(flags & 0x3f).ok_or_else(bad)?;
                if class == BranchClass::Conditional {
                    return Err(bad());
                }
                let pc = delta_addr(prev_other_pc, r, index)?;
                prev_other_pc = i64::from(pc);
                let target = delta_addr(i64::from(pc), r, index)?;
                let gap = to_u32(varint(r, index)?, index)?;
                if records >= total {
                    return Err(bad());
                }
                sink.other(
                    BranchRecord {
                        pc,
                        target,
                        class,
                        taken: flags & 0x80 != 0,
                        call: flags & 0x40 != 0,
                    },
                    gap,
                );
                records += 1;
            }
            TAG_ESC => {
                if r.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let flags = r.get_u8();
                if flags & !0x03 != 0 {
                    return Err(bad());
                }
                let site = site_ref(r, &mut prev_site, sites.len(), index)?;
                let template = sites[site as usize];
                let target = delta_addr(i64::from(template.pc), r, index)?;
                let gap = to_u32(varint(r, index)?, index)?;
                if records >= total {
                    return Err(bad());
                }
                sink.escape(
                    site,
                    template.pc,
                    target,
                    flags & 0x02 != 0,
                    flags & 0x01 != 0,
                    gap,
                );
                records += 1;
                conds += 1;
            }
            TAG_OSYNC => {
                if r.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let flags = r.get_u8();
                let class = BranchClass::from_code(flags & 0x3f).ok_or_else(bad)?;
                if class == BranchClass::Conditional {
                    return Err(bad());
                }
                let pc = delta_addr(prev_osync_pc, r, index)?;
                prev_osync_pc = i64::from(pc);
                let target = delta_addr(i64::from(pc), r, index)?;
                let default_gap = to_u32(varint(r, index)?, index)?;
                osites.push(OtherSite {
                    record: BranchRecord {
                        pc,
                        target,
                        class,
                        taken: flags & 0x80 != 0,
                        call: flags & 0x40 != 0,
                    },
                    default_gap,
                });
            }
            TAG_OREF => {
                let osite = site_ref(r, &mut prev_osite, osites.len(), index)?;
                let template = osites[osite as usize];
                if records >= total {
                    return Err(bad());
                }
                sink.other(template.record, template.default_gap);
                records += 1;
            }
            _ => return Err(bad()),
        }
    }
    if records != total {
        return Err(DecodeError::Truncated);
    }
    if conds != n_cond {
        return Err(DecodeError::BadRecord {
            index: records as usize,
        });
    }
    Ok(())
}

/// Deserializes a TLA3 packet stream into a record [`Trace`] (the
/// compatibility path; the sequential engine and existing tests keep
/// consuming records).
///
/// # Errors
///
/// Returns a [`DecodeError`] when the input is not a TLA3 stream, is
/// truncated, or contains a malformed packet.
pub fn decode(input: &[u8]) -> Result<Trace, DecodeError> {
    let mut r = Reader::new(input);
    let header = read_header(&mut r)?;
    let cap = alloc_cap(header.total, r.remaining());
    let mut sink = RecordSink {
        trace: Trace::with_capacity(cap),
        gaps: Vec::with_capacity(cap),
    };
    decode_packets(&mut r, header.total, header.n_cond, &mut sink)?;
    let mut trace = sink.trace;
    trace.set_mix(header.mix);
    trace.set_gaps(sink.gaps);
    Ok(trace)
}

/// Deserializes a TLA3 packet stream straight into a
/// [`CompiledTrace`] — the streaming path. No per-record vector is
/// materialized: the site dictionary becomes the interning table and
/// the branch maps become the packed outcome bitvec, byte-for-byte
/// what [`CompiledTrace::compile`] would have produced from the
/// record decode.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the input is not a TLA3 stream, is
/// truncated, or contains a malformed packet.
pub fn decode_compiled(input: &[u8]) -> Result<CompiledTrace, DecodeError> {
    let mut r = Reader::new(input);
    let header = read_header(&mut r)?;
    let cap = alloc_cap(header.n_cond, r.remaining());
    let mut sink = CompiledSink(CompiledBuilder::with_capacity(cap));
    decode_packets(&mut r, header.total, header.n_cond, &mut sink)?;
    Ok(sink.0.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        let mut x = 0x1357_9bdfu64;
        for i in 0..2_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = (x >> 33) % 100;
            for _ in 0..(x >> 17) % 4 {
                t.count_instruction(InstClass::IntAlu);
            }
            let pc = 0x1000 + ((x >> 40) as u32 % 37) * 4;
            if roll < 70 {
                t.push(BranchRecord::conditional(pc, 0x800 + pc, x & 1 == 0));
            } else if roll < 80 {
                t.push(BranchRecord::call_imm(0x5000 + i * 4, 0x9000));
            } else if roll < 90 {
                t.push(BranchRecord::subroutine_return(0x9000 + i * 4, 0x5004));
            } else {
                t.push(BranchRecord::unconditional_reg(0x7000, 0x100 * (i % 7)));
            }
        }
        t.count_instruction(InstClass::FpAlu);
        t.count_instruction(InstClass::Mem);
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = mixed_trace();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.inst_mix(), back.inst_mix());
        assert_eq!(t.gaps(), back.gaps());
    }

    #[test]
    fn streaming_decode_equals_compile_of_record_decode() {
        let t = mixed_trace();
        let bytes = encode(&t);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let bytes = encode(&t);
        assert_eq!(bytes.len(), 60); // header only
        assert_eq!(decode(&bytes).unwrap(), t);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }

    #[test]
    fn loop_heavy_stream_costs_about_a_bit_per_event() {
        let mut t = Trace::new();
        for i in 0..100_000 {
            t.push(BranchRecord::conditional(0x1000, 0x0f00, i % 10 != 9));
        }
        let bytes = encode(&t);
        // One SYNC + two COND packets (64K-event cap): header noise
        // aside, ~1 bit per event.
        assert!(
            bytes.len() < 100_000 / 8 + 200,
            "loop stream took {} bytes",
            bytes.len()
        );
        assert_eq!(decode(&bytes).unwrap(), t);
    }

    #[test]
    fn escape_events_preserve_deviating_targets_and_calls() {
        let mut t = Trace::new();
        // Same pc, two targets; second deviates from the template.
        t.push(BranchRecord::conditional(0x1000, 0x2000, true));
        t.push(BranchRecord::conditional(0x1000, 0x3000, false));
        let mut call_cond = BranchRecord::conditional(0x1000, 0x2000, true);
        call_cond.call = true;
        t.push(call_cond);
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }

    #[test]
    fn escaped_targets_keep_the_btfn_count() {
        // One pc alternates a backward and a forward target, so every
        // other event escapes its site template: the streaming decoder
        // scores template events per site and must correct for each
        // escape's own direction.
        let mut t = Trace::new();
        for i in 0..200u32 {
            let target = if i % 2 == 0 { 0x0800 } else { 0x1800 };
            t.push(BranchRecord::conditional(0x1000, target, i % 3 != 0));
            t.push(BranchRecord::conditional(0x2000, 0x2400, i % 4 == 0));
        }
        let naive = t.iter().filter(|b| b.taken == b.is_backward()).count() as u64;
        let compiled = CompiledTrace::compile(&t);
        assert_eq!(compiled.taken_iff_backward(), naive);
        assert_eq!(decode_compiled(&encode(&t)).unwrap(), compiled);
    }

    #[test]
    fn per_event_gaps_survive_when_defaults_do_not_hold() {
        let mut t = Trace::new();
        t.count_instruction(InstClass::IntAlu);
        t.push(BranchRecord::conditional(0x1000, 0x800, true)); // gap 1
        t.push(BranchRecord::conditional(0x1000, 0x800, false)); // gap 0
        t.count_instruction(InstClass::Mem);
        t.count_instruction(InstClass::Mem);
        t.push(BranchRecord::conditional(0x1000, 0x800, true)); // gap 2
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.gaps(), &[1, 0, 2]);
        assert_eq!(t, back);
    }

    #[test]
    fn deviating_others_fall_back_to_explicit_records() {
        // A return whose target varies per call site: the modal
        // target rides the OSYNC template (OREF events), the rest
        // fall back to plain OTHER packets — and both survive the
        // round trip, gaps included.
        let mut t = Trace::new();
        for i in 0..10u32 {
            t.push(BranchRecord::conditional(0x1000, 0x800, true));
            let target = if i % 3 == 0 { 0x2000 } else { 0x3000 };
            t.push(BranchRecord::subroutine_return(0x1004, target));
            t.count_instruction(InstClass::IntAlu);
        }
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.gaps(), back.gaps());
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
        // The common-target returns really do compress to OREFs.
        let orefs = bytes.iter().filter(|&&b| b == TAG_OREF).count();
        assert!(orefs >= 6, "expected most returns as OREFs, saw {orefs}");
    }

    #[test]
    fn other_site_template_ties_break_toward_the_smaller_key() {
        // One return whose two targets tie at two events each, with
        // equal gaps: the OSYNC template takes the smaller key (target
        // 0x2000), not the first-seen 0x3000, so the first event goes
        // out as a plain OTHER packet.
        let mut t = Trace::new();
        for target in [0x3000, 0x2000, 0x3000, 0x2000] {
            t.push(BranchRecord::subroutine_return(0x1000, target));
        }
        let bytes = encode(&t);
        let mut r = Reader::new(&bytes[60..]);
        assert_eq!(r.get_u8(), TAG_OSYNC);
        assert_eq!(r.get_u8(), BranchClass::Return.code() | 0x80); // taken return
        let pc = unzigzag(r.get_varint().unwrap());
        let target = pc + unzigzag(r.get_varint().unwrap());
        assert_eq!((pc, target), (0x1000, 0x2000));
        assert_eq!(r.get_varint(), Some(0)); // default gap
        assert_eq!(r.get_u8(), TAG_OTHER);
        assert_eq!(decode(&bytes).unwrap(), t);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }

    #[test]
    fn packet_cap_splits_long_batches() {
        let mut t = Trace::new();
        for i in 0..(MAX_PACKET_EVENTS as u32 + 100) {
            t.push(BranchRecord::conditional(0x1000, 0x800, i % 2 == 0));
        }
        let bytes = encode(&t);
        assert_eq!(decode(&bytes).unwrap(), t);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected() {
        let t = mixed_trace();
        let bytes = encode(&t);
        for cut in [0, 3, 4, 30, 59, 60, 61, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            let expected = if cut < 4 {
                DecodeError::BadMagic
            } else {
                DecodeError::Truncated
            };
            assert_eq!(err, expected, "cut at {cut}");
            if cut >= 4 {
                assert_eq!(
                    decode_compiled(&bytes[..cut]).unwrap_err(),
                    expected,
                    "compiled cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_is_a_bad_record() {
        let t = Trace::new();
        let mut bytes = encode(&t);
        bytes.push(0x7e);
        assert_eq!(decode(&bytes), Err(DecodeError::BadRecord { index: 0 }));
    }

    #[test]
    fn out_of_range_site_reference_is_rejected() {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x1000, 0x800, true));
        let bytes = encode(&t);
        // The COND packet's single ref head is ((zigzag 0) << 1) = 0;
        // patch it to reference site 1 ((zigzag(1) = 2) << 1 = 0x04).
        let cond_at = bytes
            .windows(2)
            .rposition(|w| w[0] == TAG_COND)
            .expect("cond packet");
        let mut patched = bytes.clone();
        patched[cond_at + 3] = 0x04;
        assert!(matches!(
            decode(&patched),
            Err(DecodeError::BadRecord { .. })
        ));
    }

    #[test]
    fn record_count_mismatch_is_rejected() {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x1000, 0x800, true));
        t.push(BranchRecord::subroutine_return(0x2000, 0x3000));
        let mut bytes = encode(&t);
        // Header record count at offset 44 (magic 4 + mix 40).
        bytes[44] = 9;
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(err, DecodeError::Truncated | DecodeError::BadRecord { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn conditional_count_mismatch_is_rejected() {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x1000, 0x800, true));
        let mut bytes = encode(&t);
        // Conditional count at offset 52.
        bytes[52] = 9;
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::BadRecord { .. })
        ));
    }

    #[test]
    fn hostile_record_count_fails_before_allocating() {
        // Header declares u64::MAX records over an empty body: the cap
        // bounds allocation by the input size and the decode fails.
        let mut bytes = encode(&Trace::new());
        for b in &mut bytes[44..52] {
            *b = 0xff;
        }
        assert_eq!(decode(&bytes), Err(DecodeError::Truncated));
        assert_eq!(decode_compiled(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn non_conditional_taken_and_call_flags_roundtrip() {
        let mut t = Trace::new();
        t.push(BranchRecord::call_imm(0x1000, 0x2000));
        t.push(BranchRecord::call_reg(0x1004, 0x3000));
        t.push(BranchRecord::subroutine_return(0x2000, 0x1004));
        let mut odd = BranchRecord::unconditional_imm(0x1008, 0x4000);
        odd.taken = false; // representable even if generators never do this
        t.push(odd);
        let bytes = encode(&t);
        assert_eq!(decode(&bytes).unwrap(), t);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }

    #[test]
    fn return_that_is_also_a_call_orders_ras_events() {
        let mut t = Trace::new();
        t.push(BranchRecord {
            pc: 0x1000,
            target: 0x2000,
            class: BranchClass::Return,
            taken: true,
            call: true,
        });
        let bytes = encode(&t);
        assert_eq!(decode(&bytes).unwrap(), t);
        assert_eq!(decode_compiled(&bytes).unwrap(), CompiledTrace::compile(&t));
    }
}
