//! The compiled event stream: a trace pre-digested for gang walks.
//!
//! A sweep's hot loop walks one trace through ~45 predictor lanes, and
//! each lane re-derives *where* every branch lives in its history table
//! from the raw 16-byte [`BranchRecord`] — an AoS stream four times
//! wider than the bits the inner loop actually reads. Compiling the
//! trace once per walk removes both costs:
//!
//! * every static conditional-branch pc is interned into a dense
//!   [`SiteId`] (first-appearance order), so per-lane table lookups can
//!   be resolved by index instead of hashing/dividing the pc — once per
//!   trace, not once per lane per branch;
//! * the conditional events are re-emitted as SoA: site ids in one
//!   `Vec<u32>` and outcomes as a packed bitvec, so the inner loop
//!   streams 4 bytes + 1 bit per event.
//!
//! Returns and calls are carried alongside as [`RasEvent`]s for the
//! shared return-address stack, so a walk never needs the original
//! trace. Instruction gaps are not carried: no walk reads them, and the
//! timing model reads [`Trace::gaps`] from the record trace.
//!
//! # Examples
//!
//! ```
//! use tlat_trace::{BranchRecord, CompiledTrace, Trace};
//!
//! let mut t = Trace::new();
//! t.push(BranchRecord::conditional(0x1000, 0x0f00, true));
//! t.push(BranchRecord::conditional(0x2000, 0x0f00, false));
//! t.push(BranchRecord::conditional(0x1000, 0x0f00, false));
//! let c = CompiledTrace::compile(&t);
//! assert_eq!(c.num_sites(), 2); // two static branches
//! let events: Vec<_> = c.events().collect();
//! assert_eq!(events, vec![(0, true), (1, false), (0, false)]);
//! ```

use crate::branch::BranchClass;
use crate::trace::Trace;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the pc-interning map.
///
/// Compilation does one map lookup per dynamic conditional branch, and
/// with std's default (SipHash) that single lookup costs more than the
/// rest of the compile pass combined. The keys are 4-aligned u32 pcs —
/// no adversarial input — so a Fibonacci multiply with a high-to-low
/// fold (the low bits pick the bucket, and a bare multiply leaves them
/// dependent only on the low, always-zero key bits) is plenty.
#[derive(Default)]
pub(crate) struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        let m = (u64::from(n) ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = m ^ (m >> 32);
    }
}

pub(crate) type PcMap = HashMap<u32, SiteId, BuildHasherDefault<PcHasher>>;

/// The longest same-site, same-outcome run that
/// [`CompiledTrace::long_runs`] leaves out: the smallest number of
/// events a walker with a history register steps before such a run
/// stops changing its state. That is a 1-bit register, the shortest
/// legal one, plus the three updates after which every pattern-history
/// automaton sits at a fixed point (tlat-core's
/// `CodeTables::CONVERGENCE`, where a test pins the relation). A Lee &
/// Smith walker has no register, so its bound is one less: of a run
/// left out here it steps at most one event it could have credited,
/// which is exact either way.
pub const LONG_RUN_FLOOR: usize = 4;

/// Dense id of one static conditional branch within a compiled trace,
/// assigned in first-appearance order (the first distinct pc is site 0,
/// the next new pc site 1, and so on).
pub type SiteId = u32;

/// A packed bit vector (one `u64` word per 64 bits).
///
/// Backs the outcome stream of a [`CompiledTrace`]; public because the
/// simulator's inner loop reads it directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty bit vector.
    pub fn new() -> Self {
        PackedBits::default()
    }

    /// An empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        PackedBits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (bit as u64) << (self.len % 64);
        self.len += 1;
    }

    /// The bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        (self.words[index / 64] >> (index % 64)) & 1 != 0
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// bits past [`len`](PackedBits::len) are zero, so consumers can
    /// combine two equal-length vectors word by word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates every bit in order, streaming one word load per 64
    /// bits (the hot-loop path; [`get`](PackedBits::get) re-derives
    /// the word per call).
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.words
            .iter()
            .flat_map(|&word| (0..64).map(move |bit| (word >> bit) & 1 != 0))
            .take(self.len)
    }

    /// Length of the maximal run of identical bits starting at `start`,
    /// capped so the run never reaches past `limit` (an exclusive end
    /// index).
    ///
    /// Scans word-at-a-time — one XOR-invert plus a `trailing_zeros`
    /// per 64 bits, crossing word boundaries as needed — so detecting
    /// a loop branch's same-outcome run costs O(run/64), not O(run).
    /// This is how compile and the streaming decoder split a long
    /// same-site run into the same-outcome runs they index.
    ///
    /// # Panics
    ///
    /// Panics when `start >= limit` or `limit > len`.
    pub fn run_len(&self, start: usize, limit: usize) -> usize {
        assert!(
            start < limit && limit <= self.len,
            "run window {start}..{limit} out of range for {} bits",
            self.len
        );
        let bit = self.get(start);
        let mut i = start;
        while i < limit {
            // Set bits mark disagreements with the run's direction; for
            // a taken run the word is inverted so the (zero) padding
            // past `len` can never extend a run — `limit` caps the
            // not-taken case.
            let diff = if bit {
                !self.words[i / 64]
            } else {
                self.words[i / 64]
            } >> (i % 64);
            let avail = 64 - i % 64;
            let same = (diff.trailing_zeros() as usize).min(avail);
            i += same;
            if same < avail {
                break;
            }
        }
        i.min(limit) - start
    }
}

/// One return-address-stack event, in trace order.
///
/// RAS behaviour depends only on the trace — never on the direction
/// predictor — so the compiled stream separates these events from the
/// conditional stream and a walk drives the shared stack from them
/// alone. A subroutine return that is itself a call (both flags set on
/// one record) emits its [`RasEvent::Verify`] before its
/// [`RasEvent::Push`], matching the record walk's order exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasEvent {
    /// A subroutine return: pop-and-check the stack against the actual
    /// target.
    Verify {
        /// The return's actual target address.
        target: u32,
    },
    /// A subroutine call: push the return address.
    Push {
        /// The call's fall-through (return) address.
        return_addr: u32,
    },
}

/// A trace compiled for the gang hot loop: interned conditional sites,
/// SoA outcome stream, and RAS events.
///
/// Compilation is a single pass over the trace; see the module docs for
/// why. The stream is self-contained — every consumer a gang walk has
/// (predictor lanes, the shared RAS) reads from here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledTrace {
    /// `SiteId → pc`, in first-appearance order.
    site_pcs: Vec<u32>,
    /// One interned site id per dynamic conditional branch.
    cond_sites: Vec<SiteId>,
    /// One outcome bit per dynamic conditional branch (parallel to
    /// `cond_sites`).
    outcomes: PackedBits,
    /// Return/call events, in trace order.
    ras: Vec<RasEvent>,
    /// `SiteId → number of taken outcomes` over the stream.
    site_taken: Vec<u64>,
    /// `SiteId → number of dynamic executions` over the stream. With
    /// `site_taken`, the closed-form inputs for frozen per-site
    /// predictors: a profile lane's score is a weighted sum over
    /// sites, not a walk.
    site_counts: Vec<u64>,
    /// Number of maximal same-site runs in the conditional stream: a
    /// stream-shape figure (`len() / site_runs` is the mean same-site
    /// run length) that benchmarks report and no walk reads.
    site_runs: usize,
    /// `(start, len)` of every maximal same-site, same-outcome run
    /// longer than [`LONG_RUN_FLOOR`] events, in stream order.
    long_runs: Vec<(u32, u32)>,
    /// Number of conditional events taken exactly when their target
    /// lies below their pc: BTFN's correct count, which a static
    /// direction-from-target rule scores in closed form.
    taken_iff_backward: u64,
}

impl CompiledTrace {
    /// Compiles `trace` in one pass: interns conditional sites and
    /// splits the record stream into the SoA conditional stream and the
    /// RAS event stream.
    pub fn compile(trace: &Trace) -> Self {
        let n_cond = trace.conditional_len() as usize;
        let mut intern = PcMap::default();
        let mut compiled = CompiledTrace {
            site_pcs: Vec::new(),
            cond_sites: Vec::with_capacity(n_cond),
            outcomes: PackedBits::with_capacity(n_cond),
            ras: Vec::new(),
            site_taken: Vec::new(),
            site_counts: Vec::new(),
            site_runs: 0,
            long_runs: Vec::new(),
            taken_iff_backward: 0,
        };
        let mut run_start = 0;
        for branch in trace.iter() {
            match branch.class {
                BranchClass::Conditional => {
                    let next = compiled.site_pcs.len() as SiteId;
                    let site = *intern.entry(branch.pc).or_insert(next);
                    if site == next {
                        compiled.site_pcs.push(branch.pc);
                        compiled.site_taken.push(0);
                        compiled.site_counts.push(0);
                    }
                    compiled.site_taken[site as usize] += branch.taken as u64;
                    compiled.site_counts[site as usize] += 1;
                    compiled.taken_iff_backward += u64::from(branch.taken == branch.is_backward());
                    if compiled.cond_sites.last() != Some(&site) {
                        compiled.site_runs += 1;
                        compiled.end_site_run(run_start);
                        run_start = compiled.len();
                    }
                    compiled.cond_sites.push(site);
                    compiled.outcomes.push(branch.taken);
                }
                BranchClass::Return => {
                    compiled.ras.push(RasEvent::Verify {
                        target: branch.target,
                    });
                }
                _ => {}
            }
            if branch.call {
                compiled.ras.push(RasEvent::Push {
                    return_addr: branch.fall_through(),
                });
            }
        }
        compiled.end_site_run(run_start);
        compiled
    }

    /// Indexes the long same-outcome runs of the same-site run that
    /// spans events `start..len()` and has just ended. Only a site run
    /// longer than [`LONG_RUN_FLOOR`] can hold one, so every other site
    /// change costs one comparison.
    #[inline]
    fn end_site_run(&mut self, start: usize) {
        if self.len() - start > LONG_RUN_FLOOR {
            self.index_long_runs(start);
        }
    }

    fn index_long_runs(&mut self, start: usize) {
        let end = self.len();
        let mut i = start;
        while i < end {
            let len = self.outcomes.run_len(i, end);
            if len > LONG_RUN_FLOOR {
                // A run past `u32` positions stays out of the index, so
                // walks step it: exact either way.
                if let (Ok(at), Ok(n)) = (u32::try_from(i), u32::try_from(len)) {
                    self.long_runs.push((at, n));
                }
            }
            i += len;
        }
    }

    /// Number of distinct static conditional branches (interned sites).
    pub fn num_sites(&self) -> usize {
        self.site_pcs.len()
    }

    /// `SiteId → pc`, in first-appearance order.
    pub fn site_pcs(&self) -> &[u32] {
        &self.site_pcs
    }

    /// The interned site of each dynamic conditional branch, in trace
    /// order.
    pub fn cond_sites(&self) -> &[SiteId] {
        &self.cond_sites
    }

    /// The outcome of each dynamic conditional branch (parallel to
    /// [`CompiledTrace::cond_sites`]).
    pub fn outcomes(&self) -> &PackedBits {
        &self.outcomes
    }

    /// Number of dynamic conditional branches in the stream.
    pub fn len(&self) -> usize {
        self.cond_sites.len()
    }

    /// `true` when the stream has no conditional branches.
    pub fn is_empty(&self) -> bool {
        self.cond_sites.is_empty()
    }

    /// The return/call events, in trace order.
    pub fn ras_events(&self) -> &[RasEvent] {
        &self.ras
    }

    /// `SiteId → number of taken outcomes` over the stream.
    pub fn site_taken(&self) -> &[u64] {
        &self.site_taken
    }

    /// `SiteId → number of dynamic executions` over the stream
    /// (parallel to [`CompiledTrace::site_taken`]).
    pub fn site_counts(&self) -> &[u64] {
        &self.site_counts
    }

    /// Number of maximal same-site runs in the conditional stream
    /// (adjacent events at the same site collapse into one run).
    /// `len() / site_run_count()` is the stream's mean run length, a
    /// shape figure the benchmark reports; no walk reads it.
    pub fn site_run_count(&self) -> usize {
        self.site_runs
    }

    /// `(start, len)` of every maximal run of consecutive events at one
    /// site with one outcome that is longer than [`LONG_RUN_FLOOR`]
    /// events, in stream order. Compile and the streaming decoder fill
    /// it where they count site runs, with no pass of their own. A
    /// predictor walk whose state stops changing after some number of
    /// events of such a run steps only those and credits the rest.
    pub fn long_runs(&self) -> &[(u32, u32)] {
        &self.long_runs
    }

    /// Number of conditional events whose outcome equals their
    /// backward-ness (`target < pc`): what Backward-Taken/Forward-Not-
    /// taken predicts correctly over the stream.
    pub fn taken_iff_backward(&self) -> u64 {
        self.taken_iff_backward
    }

    /// Iterates the conditional stream as `(site, taken)` pairs.
    pub fn events(&self) -> impl Iterator<Item = (SiteId, bool)> + '_ {
        self.cond_sites
            .iter()
            .zip(self.outcomes.iter())
            .map(|(&site, taken)| (site, taken))
    }
}

/// Incremental [`CompiledTrace`] construction for the TLA3 streaming
/// decoder: packets lower straight into the compiled stream without a
/// record trace in between, so the builder must reproduce
/// [`CompiledTrace::compile`]'s semantics event-by-event — interning
/// order (the format's dense site ids already arrive in
/// first-appearance order), per-site counters, run counting and the
/// long-run index, RAS event ordering (a return that is also a call
/// verifies before pushing).
///
/// The BTFN count stays off the per-event path: an event that keeps
/// its site template's target shares the template's direction, so
/// [`finish`](CompiledBuilder::finish) scores those per site, and each
/// escaped event corrects the score for its own target.
#[derive(Debug, Default)]
pub(crate) struct CompiledBuilder {
    c: CompiledTrace,
    /// `SiteId →` whether the site template's target lies below its pc.
    backward: Vec<bool>,
    /// Escaped events' own BTFN outcome minus their template's.
    escape_correction: i64,
    /// Where the current same-site run began.
    run_start: usize,
}

impl CompiledBuilder {
    /// A builder pre-sized for `n_cond` conditional events. Callers cap
    /// it with a bound derived from the input size, so a hostile header
    /// cannot drive an over-allocation.
    pub(crate) fn with_capacity(n_cond: usize) -> Self {
        CompiledBuilder {
            c: CompiledTrace {
                site_pcs: Vec::new(),
                cond_sites: Vec::with_capacity(n_cond),
                outcomes: PackedBits::with_capacity(n_cond),
                ras: Vec::new(),
                site_taken: Vec::new(),
                site_counts: Vec::new(),
                site_runs: 0,
                long_runs: Vec::new(),
                taken_iff_backward: 0,
            },
            backward: Vec::new(),
            escape_correction: 0,
            run_start: 0,
        }
    }

    /// Interns the next site with its template target (dense ids are
    /// assigned in call order, which the TLA3 format guarantees is
    /// first-appearance order).
    pub(crate) fn define_site(&mut self, pc: u32, target: u32) {
        self.c.site_pcs.push(pc);
        self.c.site_taken.push(0);
        self.c.site_counts.push(0);
        self.backward.push(target < pc);
    }

    /// Appends one conditional event at an already-defined site.
    ///
    /// # Panics
    ///
    /// Panics when `site` was never defined; the decoder bounds-checks
    /// site references before calling.
    pub(crate) fn cond(&mut self, site: SiteId, taken: bool, call: bool) {
        let s = site as usize;
        self.c.site_taken[s] += taken as u64;
        self.c.site_counts[s] += 1;
        if self.c.cond_sites.last() != Some(&site) {
            self.c.site_runs += 1;
            self.c.end_site_run(self.run_start);
            self.run_start = self.c.len();
        }
        self.c.cond_sites.push(site);
        self.c.outcomes.push(taken);
        if call {
            self.c.ras.push(RasEvent::Push {
                return_addr: self.c.site_pcs[s].wrapping_add(4),
            });
        }
    }

    /// Appends one conditional event whose own `target` deviates from
    /// its site template's (a TLA3 escape).
    pub(crate) fn escape(&mut self, site: SiteId, target: u32, taken: bool, call: bool) {
        self.cond(site, taken, call);
        let s = site as usize;
        let own = taken == (target < self.c.site_pcs[s]);
        let template = taken == self.backward[s];
        self.escape_correction += i64::from(own) - i64::from(template);
    }

    /// Appends one non-conditional branch record's effects: a RAS
    /// verify for returns, then a RAS push for calls.
    pub(crate) fn other(&mut self, class: BranchClass, pc: u32, target: u32, call: bool) {
        if class == BranchClass::Return {
            self.c.ras.push(RasEvent::Verify { target });
        }
        if call {
            self.c.ras.push(RasEvent::Push {
                return_addr: pc.wrapping_add(4),
            });
        }
    }

    /// The finished compiled stream.
    pub(crate) fn finish(mut self) -> CompiledTrace {
        self.c.end_site_run(self.run_start);
        let by_template: u64 = self
            .backward
            .iter()
            .zip(self.c.site_taken.iter().zip(&self.c.site_counts))
            .map(|(&backward, (&taken, &n))| if backward { taken } else { n - taken })
            .sum();
        self.c.taken_iff_backward = by_template
            .checked_add_signed(self.escape_correction)
            .expect("escape corrections cancel template counts");
        self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchRecord;

    #[test]
    fn packed_bits_round_trip() {
        let mut bits = PackedBits::new();
        assert!(bits.is_empty());
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bits.push(b);
        }
        assert_eq!(bits.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bits.get(i), b, "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packed_bits_bounds_checked() {
        PackedBits::new().get(0);
    }

    fn packed(pattern: &[bool]) -> PackedBits {
        let mut bits = PackedBits::new();
        for &b in pattern {
            bits.push(b);
        }
        bits
    }

    #[test]
    fn run_len_matches_a_naive_scan() {
        // Bursty pattern with runs placed to cross the 64-bit word
        // boundary in both directions.
        let mut pattern = Vec::new();
        for &(bit, n) in &[
            (true, 3),
            (false, 57),
            (true, 10), // straddles bit 64
            (false, 1),
            (true, 70), // spans a whole word and both neighbours
            (false, 130),
        ] {
            pattern.extend(std::iter::repeat(bit).take(n));
        }
        let bits = packed(&pattern);
        for start in 0..pattern.len() {
            let naive = pattern[start..]
                .iter()
                .take_while(|&&b| b == pattern[start])
                .count();
            assert_eq!(
                bits.run_len(start, pattern.len()),
                naive,
                "run starting at {start}"
            );
        }
    }

    #[test]
    fn run_len_respects_the_limit() {
        let bits = packed(&[true; 100]);
        assert_eq!(bits.run_len(0, 100), 100);
        assert_eq!(bits.run_len(0, 64), 64);
        assert_eq!(bits.run_len(60, 70), 10);
        assert_eq!(bits.run_len(99, 100), 1);
    }

    #[test]
    fn run_len_of_trailing_not_taken_ignores_word_padding() {
        // 70 not-taken bits: the final word's unused high bits are
        // zero, which must not extend the run past `limit`.
        let bits = packed(&[false; 70]);
        assert_eq!(bits.run_len(0, 70), 70);
        assert_eq!(bits.run_len(65, 70), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_len_bounds_checked() {
        packed(&[true; 4]).run_len(2, 8);
    }

    #[test]
    fn sites_are_interned_in_first_appearance_order() {
        let mut t = Trace::new();
        for &(pc, taken) in &[
            (0x3000u32, true),
            (0x1000, false),
            (0x3000, false),
            (0x2000, true),
            (0x1000, true),
        ] {
            t.push(BranchRecord::conditional(pc, 0x800, taken));
        }
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.site_pcs(), &[0x3000, 0x1000, 0x2000]);
        assert_eq!(c.cond_sites(), &[0, 1, 0, 2, 1]);
        let outcomes: Vec<bool> = (0..c.len()).map(|i| c.outcomes().get(i)).collect();
        assert_eq!(outcomes, vec![true, false, false, true, true]);
    }

    #[test]
    fn a_fresh_site_always_equals_the_intern_count_so_far() {
        // The invariant the site-indexed IHRT fast path relies on: when
        // a site first appears in the event stream, its id equals the
        // number of sites interned before it.
        let mut t = Trace::new();
        let mut x = 0x2468_ace0u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + ((x >> 33) as u32 % 97) * 4;
            t.push(BranchRecord::conditional(pc, 0x800, x & 1 == 0));
        }
        let c = CompiledTrace::compile(&t);
        let mut seen = 0u32;
        for (site, _) in c.events() {
            if site == seen {
                seen += 1;
            }
            assert!(site < seen, "site {site} appeared before being interned");
        }
        assert_eq!(seen as usize, c.num_sites());
    }

    #[test]
    fn ras_events_preserve_record_order() {
        let mut t = Trace::new();
        t.push(BranchRecord::call_imm(0x1000, 0x4000)); // push 0x1004
        t.push(BranchRecord::conditional(0x4000, 0x4800, true));
        t.push(BranchRecord::subroutine_return(0x4004, 0x1004)); // verify
        let c = CompiledTrace::compile(&t);
        assert_eq!(
            c.ras_events(),
            &[
                RasEvent::Push {
                    return_addr: 0x1004
                },
                RasEvent::Verify { target: 0x1004 },
            ]
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_return_that_is_also_a_call_verifies_before_pushing() {
        let mut t = Trace::new();
        t.push(BranchRecord {
            pc: 0x1000,
            target: 0x2000,
            class: BranchClass::Return,
            taken: true,
            call: true,
        });
        let c = CompiledTrace::compile(&t);
        assert_eq!(
            c.ras_events(),
            &[
                RasEvent::Verify { target: 0x2000 },
                RasEvent::Push {
                    return_addr: 0x1004
                },
            ]
        );
    }

    /// `(start, len)` of every maximal same-site, same-outcome run
    /// longer than the floor, by a naive scan of the events.
    fn naive_long_runs(c: &CompiledTrace) -> Vec<(u32, u32)> {
        let events: Vec<(SiteId, bool)> = c.events().collect();
        let mut runs = Vec::new();
        for run in events.chunk_by(|a, b| a == b) {
            let start = run.as_ptr() as usize - events.as_ptr() as usize;
            let start = start / std::mem::size_of::<(SiteId, bool)>();
            if run.len() > LONG_RUN_FLOOR {
                runs.push((start as u32, run.len() as u32));
            }
        }
        runs
    }

    #[test]
    fn long_runs_index_every_same_site_same_outcome_run_past_the_floor() {
        // Site runs of every length up to 24 with a flip or two inside,
        // so same-outcome runs both just under, at and past the floor
        // end at a site change, at a flip, at the stream's end and
        // across 64-bit words.
        let mut t = Trace::new();
        let mut x = 0x5eed_1234u64;
        for burst in 0..400u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + (burst % 5) * 4;
            let len = (x >> 40) as usize % 25;
            let flip = (x >> 20) as usize % (len + 1);
            for k in 0..len {
                t.push(BranchRecord::conditional(
                    pc,
                    0x800,
                    (k < flip) ^ (x & 1 == 0),
                ));
            }
            if burst % 7 == 0 {
                t.push(BranchRecord::call_imm(0x4000, 0x5000));
            }
        }
        let c = CompiledTrace::compile(&t);
        let want = naive_long_runs(&c);
        assert!(want.iter().any(|&(_, n)| n as usize == LONG_RUN_FLOOR + 1));
        assert!(want.len() > 100, "{} long runs", want.len());
        assert_eq!(c.long_runs(), want);
        assert!(c
            .long_runs()
            .iter()
            .all(|&(_, n)| n as usize > LONG_RUN_FLOOR));
    }

    #[test]
    fn empty_trace_compiles_to_empty_stream() {
        let c = CompiledTrace::compile(&Trace::new());
        assert!(c.is_empty());
        assert_eq!(c.num_sites(), 0);
        assert!(c.ras_events().is_empty());
        assert!(c.long_runs().is_empty());
    }
}
