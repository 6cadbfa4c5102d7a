//! Sweep observability: structured counters, phase spans, and a
//! machine-readable telemetry schema.
//!
//! The performance architecture (gang engine, worker pool, disk cache,
//! journal) made sweeps fast; this module makes them *measurable*. It
//! is the single source of truth for where a sweep's time and cache
//! traffic go:
//!
//! * **Counters** ([`Counter`]) — process-wide atomic tallies of the
//!   events that matter to a sweep: trace walks and generations, disk
//!   cache hits/misses/evictions, cells computed vs journal-replayed
//!   vs failed, fault injections fired, solo-fallback re-runs,
//!   isolated panics, journal records written.
//! * **Phase spans** ([`Phase`]) — wall-clock totals for the harness's
//!   five phases: trace generation, cache load, gang walk, report
//!   render, journal replay. A span is opened with [`span`] and closed
//!   by dropping the returned [`SpanGuard`].
//! * **Cell records** — per `(workload, predictor-family)` outcome
//!   tallies, recorded by the sweep drivers and aggregated at emit
//!   time.
//!
//! # Cost model
//!
//! Recording is **off by default** and the instrumentation is built to
//! be near-free in that state: every counter bump is one relaxed
//! atomic load (of the enable flag) and every disabled span skips the
//! clock read entirely. Reports are never affected — a metrics-enabled
//! run produces byte-identical stdout to a plain run; telemetry only
//! ever goes to the side-channel JSONL file.
//!
//! # Enabling
//!
//! Set `TLAT_METRICS=<path>` (or pass `--metrics <path>` to the CLI,
//! which sets the variable) to enable recording; the CLI writes the
//! JSONL file at exit. `tlat stats <path>` renders a human summary and
//! `tlat stats --check <path>` validates a file against the schema
//! ([`check`] reads each line once, through `tlat_trace::json::parse`,
//! the workspace's one JSON reader).
//! The full schema — every counter, span, and field, with stability
//! notes — is documented in `OBSERVABILITY.md` at the repository root.
//!
//! # Schema (JSONL, one object per line)
//!
//! ```text
//! {"kind":"meta","schema":1,"emitter":"tlat_sim"}
//! {"kind":"counter","name":"cache_hits","value":9}
//! {"kind":"span","name":"gang_walk","count":9,"total_ns":12345678}
//! {"kind":"cells","workload":"gcc","family":"AT","computed":1,"replayed":0,"failed":0,"blank":0}
//! ```
//!
//! Counter semantics fall into two stability classes (see
//! `OBSERVABILITY.md`): *engine-invariant* counters (`cells_*`,
//! `trace_generations`, `faults_injected`, cache traffic) total the
//! same whether a sweep runs on the gang engine or the sequential
//! reference path, while *engine-dependent* counters (`trace_walks`,
//! `solo_reruns`, `panics_caught`, `sites_interned`) describe the
//! execution strategy itself. Tests pin the invariant class.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tlat_trace::json::{self, JsonObject, Value};

/// Environment variable naming the telemetry output file. Setting it
/// to a non-empty path (other than `0`/`off`) enables recording; the
/// CLI writes the JSONL file there at exit.
pub const METRICS_ENV: &str = "TLAT_METRICS";

/// Version stamped into the `meta` line of every emitted file. Bumped
/// whenever a field changes meaning; adding counters, spans, or fields
/// is *not* a version bump (consumers must ignore unknown names).
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// One process-wide event counter.
///
/// Variants marked *engine-dependent* in their docs describe the
/// execution strategy and legitimately differ between the gang engine
/// and the sequential reference path; every other counter is
/// engine-invariant (pinned by `crates/sim/tests/metrics.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Full trace walks executed (gang walks, solo simulations, and
    /// diagnostic passes alike). Engine-dependent: the gang engine
    /// walks once per workload where the sequential path walks once
    /// per cell.
    TraceWalks,
    /// Traces generated by interpreting a workload (in-memory and
    /// disk-cache hits do not count).
    TraceGenerations,
    /// Disk-cache loads that served a decoded trace.
    CacheHits,
    /// Disk-cache loads that ended as a miss (cold, exhausted retries,
    /// or evicted entry).
    CacheMisses,
    /// Corrupt disk-cache entries evicted (each also counts one miss).
    CacheEvictions,
    /// Bytes read from disk-cache entries (TLA3) that decoded
    /// successfully.
    CacheBytesRead,
    /// Bytes written to disk-cache entries (TLA3).
    CacheBytesWritten,
    /// Sweep cells computed by simulation this process.
    CellsComputed,
    /// Sweep cells replayed from a checkpoint journal instead of
    /// computed.
    CellsReplayed,
    /// Sweep cells that failed (isolated panic or error).
    CellsFailed,
    /// Sweep cells that are not applicable (the paper's Table 3
    /// Diff-training exclusions).
    CellsBlank,
    /// Faults fired by the `TLAT_FAULTS` injection plan.
    FaultsInjected,
    /// Lanes re-run solo after a mid-walk panic poisoned a shared gang
    /// walk. Engine-dependent: the sequential path has no shared walk
    /// to poison.
    SoloReruns,
    /// Panics caught by cell isolation (`pool::catch_cell`).
    /// Engine-dependent: isolation nests differently per engine.
    PanicsCaught,
    /// Checkpoint records durably written to a sweep journal.
    JournalRecords,
    /// Static conditional-branch sites interned while compiling traces
    /// into gang event streams. Engine-dependent: the sequential
    /// reference path never compiles a stream.
    SitesInterned,
    /// Journal records evicted on replay because their trailing
    /// checksum failed (torn or corrupt); each evicted cell is
    /// recomputed.
    JournalEvictions,
    /// Worker processes restarted by the sweep supervisor after a
    /// crash or kill. Engine-dependent: only supervised multi-process
    /// sweeps restart anything.
    WorkerRestarts,
    /// Worker processes killed by the supervisor for missing their
    /// liveness heartbeat (`TLAT_WORKER_TIMEOUT`). Engine-dependent.
    WorkerTimeouts,
    /// Shards the supervisor gave up on after the per-shard strike
    /// limit; their unlanded cells render as `✗`. Engine-dependent.
    ShardsExhausted,
    /// HTTP requests answered by `tlat serve` (every endpoint and
    /// status, including errors). Engine-dependent: batch runs serve
    /// nothing.
    RequestsServed,
    /// Sweep requests answered without starting a new computation —
    /// attached to an in-flight run or served from the memoized
    /// result. Engine-dependent: batch runs serve nothing.
    RequestsCoalesced,
    /// Lanes riding a bitsliced Two-Level pack: always 0, since every
    /// Two-Level lane walks the stream alone. Kept because the
    /// repository benchmark reads it. Engine-dependent.
    LanesPacked,
    /// Bitsliced Two-Level packs formed: always 0, as
    /// [`Counter::LanesPacked`]. Kept because the repository benchmark
    /// reads it. Engine-dependent.
    AtPacksFormed,
    /// Bitsliced Lee & Smith packs formed: always 0, since every Lee &
    /// Smith lane walks the stream alone. Kept because the repository
    /// benchmark reads it. Engine-dependent.
    LsPacksFormed,
    /// Lanes the gang walk derived from twin lanes' recorded guesses
    /// instead of running them whole (a tournament whose components
    /// have fresh twins in the same walk), summed over every gang walk.
    /// Engine-dependent: the sequential reference path never derives.
    LanesDerived,
    /// Lane-events a scalar walk credited as correct without stepping
    /// them: past a lane's bound in a long same-site, same-outcome run,
    /// where its state sits at a fixed point that guesses the run.
    /// Summed over every lane walk; Static Training lanes never
    /// collapse. Engine-dependent: the record walk steps every event.
    EventsCollapsed,
    /// Lanes that walked as members of a walk group of two or more —
    /// lanes of one member kind on one table, stepping one history
    /// register per slot between them — summed over every gang walk.
    /// Engine-dependent: the record walk steps every lane alone.
    LanesGrouped,
}

impl Counter {
    /// Every counter, in emission order.
    pub const ALL: [Counter; 28] = [
        Counter::TraceWalks,
        Counter::TraceGenerations,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheEvictions,
        Counter::CacheBytesRead,
        Counter::CacheBytesWritten,
        Counter::CellsComputed,
        Counter::CellsReplayed,
        Counter::CellsFailed,
        Counter::CellsBlank,
        Counter::FaultsInjected,
        Counter::SoloReruns,
        Counter::PanicsCaught,
        Counter::JournalRecords,
        Counter::SitesInterned,
        Counter::JournalEvictions,
        Counter::WorkerRestarts,
        Counter::WorkerTimeouts,
        Counter::ShardsExhausted,
        Counter::RequestsServed,
        Counter::RequestsCoalesced,
        Counter::LanesPacked,
        Counter::AtPacksFormed,
        Counter::LsPacksFormed,
        Counter::LanesDerived,
        Counter::EventsCollapsed,
        Counter::LanesGrouped,
    ];

    /// The counter's stable schema name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TraceWalks => "trace_walks",
            Counter::TraceGenerations => "trace_generations",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheEvictions => "cache_evictions",
            Counter::CacheBytesRead => "cache_bytes_read",
            Counter::CacheBytesWritten => "cache_bytes_written",
            Counter::CellsComputed => "cells_computed",
            Counter::CellsReplayed => "cells_replayed",
            Counter::CellsFailed => "cells_failed",
            Counter::CellsBlank => "cells_blank",
            Counter::FaultsInjected => "faults_injected",
            Counter::SoloReruns => "solo_reruns",
            Counter::PanicsCaught => "panics_caught",
            Counter::JournalRecords => "journal_records",
            Counter::SitesInterned => "sites_interned",
            Counter::JournalEvictions => "journal_evictions",
            Counter::WorkerRestarts => "worker_restarts",
            Counter::WorkerTimeouts => "worker_timeouts",
            Counter::ShardsExhausted => "shards_exhausted",
            Counter::RequestsServed => "requests_served",
            Counter::RequestsCoalesced => "requests_coalesced",
            Counter::LanesPacked => "lanes_packed",
            Counter::AtPacksFormed => "at_packs_formed",
            Counter::LsPacksFormed => "ls_packs_formed",
            Counter::LanesDerived => "lanes_derived",
            Counter::EventsCollapsed => "events_collapsed",
            Counter::LanesGrouped => "lanes_grouped",
        }
    }

    /// `true` when the counter's total is independent of the execution
    /// strategy (gang vs sequential, pooled vs single-threaded).
    pub fn engine_invariant(self) -> bool {
        !matches!(
            self,
            Counter::TraceWalks
                | Counter::SoloReruns
                | Counter::PanicsCaught
                | Counter::SitesInterned
                | Counter::WorkerRestarts
                | Counter::WorkerTimeouts
                | Counter::ShardsExhausted
                | Counter::RequestsServed
                | Counter::RequestsCoalesced
                | Counter::LanesPacked
                | Counter::AtPacksFormed
                | Counter::LsPacksFormed
                | Counter::LanesDerived
                | Counter::EventsCollapsed
                | Counter::LanesGrouped
        )
    }
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// One wall-clock phase of the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Assembling and interpreting a workload into a trace (not the
    /// disk-cache store that follows).
    TraceGen,
    /// Loading (and decoding) a trace from the disk cache.
    CacheLoad,
    /// Walking a trace through predictor lanes (gang or solo).
    GangWalk,
    /// Rendering a report to text.
    ReportRender,
    /// Replaying a sweep's checkpoint journal.
    JournalReplay,
    /// Compiling a trace into a gang event stream (site interning +
    /// SoA emission).
    StreamCompile,
    /// Serving one HTTP request in `tlat serve` (parse, route,
    /// respond — including any sweep wait).
    ServeRequest,
}

impl Phase {
    /// Every phase, in emission order.
    pub const ALL: [Phase; 7] = [
        Phase::TraceGen,
        Phase::CacheLoad,
        Phase::GangWalk,
        Phase::ReportRender,
        Phase::JournalReplay,
        Phase::StreamCompile,
        Phase::ServeRequest,
    ];

    /// The phase's stable schema name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TraceGen => "trace_gen",
            Phase::CacheLoad => "cache_load",
            Phase::GangWalk => "gang_walk",
            Phase::ReportRender => "report_render",
            Phase::JournalReplay => "journal_replay",
            Phase::StreamCompile => "stream_compile",
            Phase::ServeRequest => "serve_request",
        }
    }
}

// ---------------------------------------------------------------------
// Global recording state
// ---------------------------------------------------------------------

const N_COUNTERS: usize = Counter::ALL.len();
const N_PHASES: usize = Phase::ALL.len();

#[allow(clippy::declare_interior_mutable_const)] // array-init seed only
const ZERO: AtomicU64 = AtomicU64::new(0);

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static SPAN_NS: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];
static SPAN_COUNT: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];
/// `(workload, family)` → per-outcome tallies, in deterministic order.
static CELLS: Mutex<BTreeMap<(String, String), CellTally>> = Mutex::new(BTreeMap::new());

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off (the environment path, if any, is
/// unaffected — this is the switch the tests and the harness use).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Reads `TLAT_METRICS`: `Some(path)` (with recording enabled as a
/// side effect) when set to a usable path, `None` otherwise.
pub fn enable_from_env() -> Option<std::path::PathBuf> {
    match std::env::var(METRICS_ENV) {
        Ok(path) if !matches!(path.as_str(), "" | "0" | "off") => {
            set_enabled(true);
            Some(std::path::PathBuf::from(path))
        }
        _ => None,
    }
}

/// Adds one to a counter (no-op while recording is disabled).
#[inline]
pub fn bump(counter: Counter) {
    add(counter, 1);
}

/// Adds `n` to a counter (no-op while recording is disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// An open phase span; dropping it adds the elapsed wall time to the
/// phase's total. Inert (no clock read at all) while recording is
/// disabled.
#[derive(Debug)]
#[must_use = "a span records its phase when dropped"]
pub struct SpanGuard {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_NS[self.phase as usize].fetch_add(ns, Ordering::Relaxed);
            SPAN_COUNT[self.phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Opens a wall-clock span for `phase`; close it by dropping the
/// guard.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    SpanGuard {
        phase,
        start: enabled().then(Instant::now),
    }
}

/// The outcome class of one sweep cell, for per-(workload, family)
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Simulated in this process.
    Computed,
    /// Served from a checkpoint journal.
    Replayed,
    /// Failed (isolated panic or error).
    Failed,
    /// Not applicable (Table 3 exclusion).
    Blank,
}

/// Per-(workload, family) outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CellTally {
    computed: u64,
    replayed: u64,
    failed: u64,
    blank: u64,
}

/// Records one sweep-cell outcome against its `(workload,
/// predictor-family)` group (no-op while recording is disabled).
pub fn record_cell(workload: &str, family: &str, outcome: CellOutcome) {
    if !enabled() {
        return;
    }
    let mut cells = crate::error::lock_unpoisoned(&CELLS);
    let tally = cells
        .entry((workload.to_owned(), family.to_owned()))
        .or_default();
    match outcome {
        CellOutcome::Computed => tally.computed += 1,
        CellOutcome::Replayed => tally.replayed += 1,
        CellOutcome::Failed => tally.failed += 1,
        CellOutcome::Blank => tally.blank += 1,
    }
}

/// Zeroes every counter, span, and cell record (recording stays in its
/// current state). Tests use this between measured sections.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for s in &SPAN_NS {
        s.store(0, Ordering::Relaxed);
    }
    for s in &SPAN_COUNT {
        s.store(0, Ordering::Relaxed);
    }
    crate::error::lock_unpoisoned(&CELLS).clear();
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A point-in-time copy of every counter and span total. Subtract two
/// snapshots to measure one section of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    counters: [u64; N_COUNTERS],
    span_ns: [u64; N_PHASES],
    span_count: [u64; N_PHASES],
}

impl Snapshot {
    /// Captures the current totals.
    pub fn now() -> Self {
        let mut snap = Snapshot::default();
        for (slot, counter) in snap.counters.iter_mut().zip(&COUNTERS) {
            *slot = counter.load(Ordering::Relaxed);
        }
        for (slot, ns) in snap.span_ns.iter_mut().zip(&SPAN_NS) {
            *slot = ns.load(Ordering::Relaxed);
        }
        for (slot, count) in snap.span_count.iter_mut().zip(&SPAN_COUNT) {
            *slot = count.load(Ordering::Relaxed);
        }
        snap
    }

    /// One counter's total.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// One phase's `(total nanoseconds, span count)`.
    pub fn span(&self, phase: Phase) -> (u64, u64) {
        (
            self.span_ns[phase as usize],
            self.span_count[phase as usize],
        )
    }

    /// The element-wise difference `self - earlier` (saturating, so a
    /// concurrent reset cannot underflow).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut delta = *self;
        for (d, e) in delta.counters.iter_mut().zip(&earlier.counters) {
            *d = d.saturating_sub(*e);
        }
        for (d, e) in delta.span_ns.iter_mut().zip(&earlier.span_ns) {
            *d = d.saturating_sub(*e);
        }
        for (d, e) in delta.span_count.iter_mut().zip(&earlier.span_count) {
            *d = d.saturating_sub(*e);
        }
        delta
    }

    /// The engine-invariant counters as `(name, value)` pairs — the
    /// set pinned equal across gang and sequential execution.
    pub fn invariant_counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|c| c.engine_invariant())
            .map(|&c| (c.name(), self.counter(c)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

/// Renders the current totals as schema-conformant JSONL (one object
/// per line; see the module docs and `OBSERVABILITY.md`). A sweep
/// worker running under `TLAT_SHARD` stamps its shard into the meta
/// line so merged per-worker telemetry stays attributable.
pub fn render_jsonl() -> String {
    let snap = Snapshot::now();
    let cells = crate::error::lock_unpoisoned(&CELLS).clone();
    let shard = std::env::var(crate::supervisor::SHARD_ENV)
        .ok()
        .filter(|s| !s.is_empty());
    render_jsonl_from(&snap, &cells, shard.as_deref())
}

/// [`render_jsonl`] over explicit data (pure; unit tests drive this
/// directly).
fn render_jsonl_from(
    snap: &Snapshot,
    cells: &BTreeMap<(String, String), CellTally>,
    shard: Option<&str>,
) -> String {
    let mut out = String::new();
    let mut meta = JsonObject::new();
    meta.field("kind", &"meta")
        .field("schema", &SCHEMA_VERSION)
        .field("emitter", &"tlat_sim");
    if let Some(shard) = shard {
        meta.field("shard", &shard);
    }
    meta.finish_into(&mut out);
    out.push('\n');
    for counter in Counter::ALL {
        JsonObject::new()
            .field("kind", &"counter")
            .field("name", &counter.name())
            .field("value", &snap.counter(counter))
            .finish_into(&mut out);
        out.push('\n');
    }
    for phase in Phase::ALL {
        let (total_ns, count) = snap.span(phase);
        JsonObject::new()
            .field("kind", &"span")
            .field("name", &phase.name())
            .field("count", &count)
            .field("total_ns", &total_ns)
            .finish_into(&mut out);
        out.push('\n');
    }
    for ((workload, family), tally) in cells {
        JsonObject::new()
            .field("kind", &"cells")
            .field("workload", workload)
            .field("family", family)
            .field("computed", &tally.computed)
            .field("replayed", &tally.replayed)
            .field("failed", &tally.failed)
            .field("blank", &tally.blank)
            .finish_into(&mut out);
        out.push('\n');
    }
    out
}

/// Writes the current totals to `path` as JSONL.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render_jsonl())
}

/// Writes the telemetry file named by `TLAT_METRICS`, if recording was
/// enabled through the environment. Best-effort: a write failure is
/// warned about on stderr, never fatal — telemetry must not fail a
/// run that produced its report.
pub fn emit_from_env() {
    let Some(path) = enable_from_env() else {
        return;
    };
    if let Err(e) = write_jsonl(&path) {
        eprintln!("warning: cannot write metrics file {}: {e}", path.display());
    }
}

// ---------------------------------------------------------------------
// Validation and summary (`tlat stats <file>` / `--check`)
// ---------------------------------------------------------------------

/// A parsed telemetry file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFile {
    /// Schema version from the `meta` line.
    pub schema: u64,
    /// Shard tag (`i/N`) from the meta line, present when the file was
    /// emitted by a sweep worker running under `TLAT_SHARD`.
    pub shard: Option<String>,
    /// Counter totals, by schema name (unknown names are kept — the
    /// schema is forward-compatible by ignoring, not rejecting, them).
    pub counters: BTreeMap<String, u64>,
    /// Span totals: name → `(count, total_ns)`.
    pub spans: BTreeMap<String, (u64, u64)>,
    /// Cell tallies: `(workload, family)` → `(computed, replayed,
    /// failed, blank)`.
    pub cells: BTreeMap<(String, String), (u64, u64, u64, u64)>,
}

/// Parses and validates a telemetry file against the schema.
///
/// Checks, per line: well-formed JSON (as `json::parse` reads it), a
/// flat object (no array or object member values), a known `kind`,
/// required fields present with the right types, and (on the `meta`
/// line, which must come first) a supported schema version. Unknown
/// counter/span *names* are accepted — consumers must tolerate
/// additions.
///
/// # Errors
///
/// A human-readable description naming the first offending line.
pub fn check(text: &str) -> Result<MetricsFile, String> {
    let mut file = MetricsFile::default();
    let mut saw_meta = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let members = match json::parse(line) {
            None => return Err(format!("line {lineno}: not well-formed JSON")),
            Some(Value::Object(members))
                if !members
                    .iter()
                    .any(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_))) =>
            {
                members
            }
            Some(_) => return Err(format!("line {lineno}: not a flat JSON object")),
        };
        // A repeated key answers with its last value.
        let field = |name: &str| {
            members
                .iter()
                .rev()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
        };
        let str_field = |name: &str| match field(name) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        let kind = str_field("kind")
            .ok_or_else(|| format!("line {lineno}: missing string field \"kind\""))?;
        if !saw_meta && kind != "meta" {
            return Err(format!("line {lineno}: first record must be kind \"meta\""));
        }
        let want = |name: &str| -> Result<u64, String> {
            match field(name) {
                Some(Value::Number(n)) => n.parse().ok(),
                _ => None,
            }
            .ok_or_else(|| format!("line {lineno}: {kind:?} record needs integer {name:?}"))
        };
        let want_str = |name: &str| -> Result<String, String> {
            str_field(name)
                .map(str::to_owned)
                .ok_or_else(|| format!("line {lineno}: {kind:?} record needs string {name:?}"))
        };
        match kind {
            "meta" => {
                if saw_meta {
                    return Err(format!("line {lineno}: duplicate meta record"));
                }
                saw_meta = true;
                file.schema = want("schema")?;
                file.shard = str_field("shard").map(str::to_owned);
                if file.schema > SCHEMA_VERSION {
                    return Err(format!(
                        "line {lineno}: schema version {} is newer than this tool ({})",
                        file.schema, SCHEMA_VERSION
                    ));
                }
            }
            "counter" => {
                file.counters.insert(want_str("name")?, want("value")?);
            }
            "span" => {
                file.spans
                    .insert(want_str("name")?, (want("count")?, want("total_ns")?));
            }
            "cells" => {
                file.cells.insert(
                    (want_str("workload")?, want_str("family")?),
                    (
                        want("computed")?,
                        want("replayed")?,
                        want("failed")?,
                        want("blank")?,
                    ),
                );
            }
            other => return Err(format!("line {lineno}: unknown record kind {other:?}")),
        }
    }
    if !saw_meta {
        return Err("no meta record (empty file?)".to_owned());
    }
    Ok(file)
}

/// Merges several parsed telemetry files — per-worker emissions from a
/// supervised sweep, typically — into one aggregate: counters, span
/// totals, and cell tallies sum name-wise; the schema version is the
/// newest seen; the shard tag is dropped (a merge spans shards).
///
/// # Errors
///
/// A description naming the field whose sum overflows a `u64`: every
/// file may be valid on its own and still not add up.
pub fn merge(files: &[MetricsFile]) -> Result<MetricsFile, String> {
    fn add(total: &mut u64, value: u64, field: impl FnOnce() -> String) -> Result<(), String> {
        *total = total
            .checked_add(value)
            .ok_or_else(|| format!("merged {} overflows a 64-bit count", field()))?;
        Ok(())
    }
    let mut out = MetricsFile::default();
    for file in files {
        out.schema = out.schema.max(file.schema);
        for (name, &value) in &file.counters {
            let total = out.counters.entry(name.clone()).or_insert(0);
            add(total, value, || format!("counter {name:?}"))?;
        }
        for (name, &(count, total_ns)) in &file.spans {
            let slot = out.spans.entry(name.clone()).or_insert((0, 0));
            add(&mut slot.0, count, || format!("span {name:?} count"))?;
            add(&mut slot.1, total_ns, || format!("span {name:?} total_ns"))?;
        }
        for (key, &(computed, replayed, failed, blank)) in &file.cells {
            let slot = out.cells.entry(key.clone()).or_insert((0, 0, 0, 0));
            let field = |tally: &str| format!("cells ({:?}, {:?}) {tally}", key.0, key.1);
            add(&mut slot.0, computed, || field("computed"))?;
            add(&mut slot.1, replayed, || field("replayed"))?;
            add(&mut slot.2, failed, || field("failed"))?;
            add(&mut slot.3, blank, || field("blank"))?;
        }
    }
    Ok(out)
}

/// Renders a parsed telemetry file as a human summary: counters, span
/// timings (with ms totals), and the per-(workload, family) cell
/// table.
pub fn summarize(file: &MetricsFile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "telemetry schema v{}", file.schema);
    if let Some(shard) = &file.shard {
        let _ = writeln!(out, "shard {shard}");
    }
    let _ = writeln!(out, "\ncounters:");
    for (name, value) in &file.counters {
        let _ = writeln!(out, "  {name:<20} {value:>12}");
    }
    let _ = writeln!(out, "\nspans:");
    let _ = writeln!(
        out,
        "  {:<16} {:>8} {:>14} {:>12}",
        "phase", "count", "total ms", "mean µs"
    );
    for (name, (count, total_ns)) in &file.spans {
        let mean_us = if *count == 0 {
            0.0
        } else {
            *total_ns as f64 / *count as f64 / 1e3
        };
        let _ = writeln!(
            out,
            "  {name:<16} {count:>8} {:>14.3} {mean_us:>12.1}",
            *total_ns as f64 / 1e6
        );
    }
    if !file.cells.is_empty() {
        let _ = writeln!(out, "\ncells (workload × family):");
        let _ = writeln!(
            out,
            "  {:<12} {:<20} {:>9} {:>9} {:>7} {:>6}",
            "workload", "family", "computed", "replayed", "failed", "blank"
        );
        for ((workload, family), (computed, replayed, failed, blank)) in &file.cells {
            let _ = writeln!(
                out,
                "  {workload:<12} {family:<20} {computed:>9} {replayed:>9} {failed:>7} {blank:>6}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that toggle the global recording state (the
    /// rest of this binary's tests never enable recording, so they are
    /// unaffected).
    static GLOBAL_STATE: Mutex<()> = Mutex::new(());

    fn sample_cells() -> BTreeMap<(String, String), CellTally> {
        let mut cells = BTreeMap::new();
        cells.insert(
            ("gcc".to_owned(), "AT".to_owned()),
            CellTally {
                computed: 2,
                replayed: 1,
                failed: 0,
                blank: 0,
            },
        );
        cells.insert(
            ("li".to_owned(), "ST".to_owned()),
            CellTally {
                computed: 0,
                replayed: 0,
                failed: 1,
                blank: 1,
            },
        );
        cells
    }

    #[test]
    fn rendered_jsonl_round_trips_through_check() {
        let mut snap = Snapshot::default();
        snap.counters[Counter::CacheHits as usize] = 7;
        snap.span_ns[Phase::GangWalk as usize] = 1_234_567;
        snap.span_count[Phase::GangWalk as usize] = 9;
        let text = render_jsonl_from(&snap, &sample_cells(), None);
        for line in text.lines() {
            assert!(json::validate(line), "line {line:?} must be valid JSON");
        }
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"kind":"meta","schema":1,"emitter":"tlat_sim"}"#
        );
        for pinned in [
            r#"{"kind":"counter","name":"cache_hits","value":7}"#,
            r#"{"kind":"counter","name":"trace_walks","value":0}"#,
            r#"{"kind":"span","name":"gang_walk","count":9,"total_ns":1234567}"#,
            r#"{"kind":"cells","workload":"gcc","family":"AT","computed":2,"replayed":1,"failed":0,"blank":0}"#,
        ] {
            assert!(lines.contains(&pinned), "missing {pinned}");
        }
        let parsed = check(&text).expect("emitted file must validate");
        assert_eq!(parsed.schema, SCHEMA_VERSION);
        assert_eq!(parsed.shard, None);
        assert_eq!(parsed.counters["cache_hits"], 7);
        assert_eq!(parsed.counters["trace_walks"], 0);
        assert_eq!(parsed.spans["gang_walk"], (9, 1_234_567));
        assert_eq!(
            parsed.cells[&("gcc".to_owned(), "AT".to_owned())],
            (2, 1, 0, 0)
        );
        assert_eq!(parsed.counters.len(), Counter::ALL.len());
        assert_eq!(parsed.spans.len(), Phase::ALL.len());
    }

    #[test]
    fn summary_renders_every_section() {
        let snap = Snapshot::default();
        let text = render_jsonl_from(&snap, &sample_cells(), None);
        let summary = summarize(&check(&text).unwrap());
        assert!(summary.contains("cache_hits"));
        assert!(summary.contains("gang_walk"));
        assert!(summary.contains("gcc"));
        assert!(summary.contains("computed"));
    }

    #[test]
    fn shard_tag_round_trips_and_shows_in_summary() {
        let snap = Snapshot::default();
        let text = render_jsonl_from(&snap, &BTreeMap::new(), Some("1/4"));
        for line in text.lines() {
            assert!(json::validate(line), "line {line:?} must be valid JSON");
        }
        assert_eq!(
            text.lines().next(),
            Some(r#"{"kind":"meta","schema":1,"emitter":"tlat_sim","shard":"1/4"}"#)
        );
        let parsed = check(&text).unwrap();
        assert_eq!(parsed.shard.as_deref(), Some("1/4"));
        assert!(summarize(&parsed).contains("shard 1/4"));
    }

    #[test]
    fn merge_sums_counters_spans_and_cells() {
        let mut a = Snapshot::default();
        a.counters[Counter::CellsComputed as usize] = 3;
        a.span_ns[Phase::GangWalk as usize] = 100;
        a.span_count[Phase::GangWalk as usize] = 1;
        let mut b = Snapshot::default();
        b.counters[Counter::CellsComputed as usize] = 4;
        b.counters[Counter::WorkerRestarts as usize] = 2;
        b.span_ns[Phase::GangWalk as usize] = 50;
        b.span_count[Phase::GangWalk as usize] = 2;
        let fa = check(&render_jsonl_from(&a, &sample_cells(), Some("0/2"))).unwrap();
        let fb = check(&render_jsonl_from(&b, &sample_cells(), Some("1/2"))).unwrap();
        let merged = merge(&[fa, fb]).expect("small sums");
        assert_eq!(merged.schema, SCHEMA_VERSION);
        assert_eq!(merged.shard, None, "a merge spans shards");
        assert_eq!(merged.counters["cells_computed"], 7);
        assert_eq!(merged.counters["worker_restarts"], 2);
        assert_eq!(merged.spans["gang_walk"], (3, 150));
        assert_eq!(
            merged.cells[&("gcc".to_owned(), "AT".to_owned())],
            (4, 2, 0, 0)
        );
        assert!(summarize(&merged).contains("worker_restarts"));
    }

    #[test]
    fn merge_reports_an_overflowing_sum_by_name() {
        // Each file is valid alone; only their sum overflows.
        let text = concat!(
            r#"{"kind":"meta","schema":1,"emitter":"tlat_sim"}"#,
            "\n",
            r#"{"kind":"counter","name":"cache_hits","value":18446744073709551615}"#,
            "\n",
        );
        let file = check(text).expect("a u64::MAX counter is valid");
        let err = merge(&[file.clone(), file.clone()]).unwrap_err();
        assert!(err.contains("\"cache_hits\""), "{err}");
        let mut cells = file.clone();
        cells.counters.clear();
        cells.spans.insert("gang_walk".to_owned(), (1, u64::MAX));
        cells
            .cells
            .insert(("gcc".to_owned(), "AT".to_owned()), (u64::MAX, 0, 0, 0));
        let err = merge(&[cells.clone(), cells.clone()]).unwrap_err();
        assert!(err.contains("\"gang_walk\" total_ns"), "{err}");
        cells.spans.clear();
        let err = merge(&[cells.clone(), cells]).unwrap_err();
        assert!(err.contains("(\"gcc\", \"AT\") computed"), "{err}");
        assert_eq!(
            merge(&[file]).expect("one file").counters["cache_hits"],
            u64::MAX
        );
    }

    #[test]
    fn check_rejects_malformed_files() {
        let cases = [
            ("", "no meta"),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}",
                "first record",
            ),
            ("not json", "not well-formed"),
            (
                "{\"kind\":\"meta\",\"schema\":99,\"emitter\":\"t\"}",
                "newer than this tool",
            ),
            (
                "{\"kind\":\"meta\",\"schema\":1}\n{\"kind\":\"mystery\"}",
                "unknown record kind",
            ),
            (
                "{\"kind\":\"meta\",\"schema\":1}\n{\"kind\":\"counter\",\"name\":\"x\"}",
                "needs integer",
            ),
            ("{\"kind\":\"meta\",\"schema\":1.0}", "needs integer"),
            (
                "[{\"kind\":\"meta\",\"schema\":1}]",
                "line 1: not a flat JSON object",
            ),
            (
                "{\"kind\":\"meta\",\"schema\":1,\"x\":{\"n\":1}}",
                "not a flat JSON object",
            ),
            (
                "{\"kind\":\"meta\",\"schema\":1,\"x\":[1]}",
                "not a flat JSON object",
            ),
            // A nested member is caught even when a repeated key later
            // overrides it with a scalar.
            (
                "{\"kind\":\"meta\",\"schema\":1,\"x\":[1],\"x\":1}",
                "not a flat JSON object",
            ),
        ];
        for (text, want) in cases {
            let err = check(text).expect_err(text);
            assert!(err.contains(want), "{text:?} → {err:?}");
        }
    }

    #[test]
    fn check_reports_deep_nesting_instead_of_overflowing_the_stack() {
        let deep = format!(
            "{{\"kind\":\"meta\",\"schema\":1}}\n{}{}",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        assert_eq!(check(&deep), Err("line 2: not well-formed JSON".to_owned()));
    }

    #[test]
    fn check_accepts_unknown_names_and_blank_lines() {
        let text = "{\"kind\":\"meta\",\"schema\":1}\n\n\
                    {\"kind\":\"counter\",\"name\":\"future_counter\",\"value\":3}\n\
                    {\"kind\":\"counter\",\"name\":\"x\\\"y\",\"value\":4}\n";
        let parsed = check(text).unwrap();
        assert_eq!(parsed.counters["future_counter"], 3);
        assert_eq!(parsed.counters["x\"y"], 4, "escapes decode");
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        let before = Snapshot::now();
        bump(Counter::CacheHits);
        drop(span(Phase::GangWalk));
        record_cell("gcc", "AT", CellOutcome::Computed);
        let delta = Snapshot::now().since(&before);
        assert_eq!(delta.counter(Counter::CacheHits), 0);
        assert_eq!(delta.span(Phase::GangWalk), (0, 0));
        assert!(crate::error::lock_unpoisoned(&CELLS).is_empty());
    }

    #[test]
    fn enabled_recording_accumulates_and_resets() {
        let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        let before = Snapshot::now();
        bump(Counter::CellsComputed);
        add(Counter::CellsComputed, 2);
        {
            let _span = span(Phase::ReportRender);
        }
        record_cell("gcc", "AT", CellOutcome::Failed);
        let delta = Snapshot::now().since(&before);
        assert_eq!(delta.counter(Counter::CellsComputed), 3);
        let (_ns, count) = delta.span(Phase::ReportRender);
        assert_eq!(count, 1);
        let rendered = render_jsonl();
        assert!(rendered.contains("\"workload\":\"gcc\""));
        set_enabled(false);
        reset();
        assert_eq!(Snapshot::now().counter(Counter::CellsComputed), 0);
    }

    #[test]
    fn invariant_counter_set_is_stable() {
        let names: Vec<&str> = Snapshot::default()
            .invariant_counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"cells_computed"));
        assert!(names.contains(&"trace_generations"));
        assert!(names.contains(&"journal_evictions"));
        assert!(!names.contains(&"trace_walks"));
        assert!(!names.contains(&"solo_reruns"));
        assert!(!names.contains(&"worker_restarts"));
        assert!(!names.contains(&"shards_exhausted"));
    }
}
