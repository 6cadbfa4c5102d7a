//! Deterministic fault injection for the resilience layer.
//!
//! Every recovery path in the harness — transient-I/O retry in the
//! disk cache, corrupt-entry eviction, panic isolation in the sweep
//! engine — is exercised by *injecting* the corresponding fault at a
//! seeded, reproducible point rather than waiting for the real world
//! to supply one. The injection plan comes from the `TLAT_FAULTS`
//! environment variable:
//!
//! ```text
//! TLAT_FAULTS=<entry>[,<entry>...]:<seed>
//! entry := io[@N] | corrupt[@N] | panic[@N] | abort[@N]
//! ```
//!
//! * `io@N` — the N-th disk-cache load (0-based, process-wide ordinal)
//!   fails once with a transient I/O error; the bounded retry in
//!   [`crate::diskcache::DiskCache::load`] must absorb it.
//! * `corrupt@N` — the N-th disk-cache load finds its entry truncated
//!   on disk (the file is physically truncated in place); the codec's
//!   integrity checks must evict and regenerate it.
//! * `panic@N` — the sweep cell with stable id `N` (`workload_index ×
//!   n_configs + config_index`) panics; the pool's panic isolation
//!   must record exactly that cell as failed while the sweep
//!   completes.
//! * `abort@N` — the N-th sweep-cell *evaluation* (0-based,
//!   process-wide ordinal counting only cells actually computed —
//!   journal-replayed cells never reach the site) hard-exits the
//!   process via [`std::process::abort`], with no unwind and no
//!   destructors: the closest deterministic stand-in for `kill -9`.
//!   Keyed by evaluation ordinal rather than stable cell id on
//!   purpose: a restarted process replays its journal, evaluates
//!   *fewer* cells, and therefore dies a little further along each
//!   attempt — exactly the progress-under-crash-restart loop the
//!   supervisor ([`crate::supervisor`]) must survive. A plan whose
//!   ordinal fires before any checkpoint lands (e.g. `abort@0`) makes
//!   no progress on any attempt and deterministically exhausts the
//!   supervisor's strike limit instead.
//!
//! Omitting `@N` derives the index from the seed (splitmix64, modulo a
//! small window) so `TLAT_FAULTS=io,corrupt,panic:7` is a complete,
//! reproducible chaos run. A spec that fails to parse is reported on
//! stderr and ignored entirely — a typo must not silently half-arm the
//! plan.
//!
//! Injection sites consult the plan through cheap atomic counters; a
//! default (empty) plan costs one relaxed load per site.

use crate::metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable carrying the fault-injection spec.
pub const FAULTS_ENV: &str = "TLAT_FAULTS";

/// Window for seed-derived fault indices: small enough that every
/// derived ordinal occurs even in the tiniest real sweep (nine
/// workloads, several cache loads).
const DERIVED_WINDOW: u64 = 4;

/// The fault injected into one disk-cache load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFault {
    /// The load fails once with a transient I/O error (retryable).
    Transient,
    /// The on-disk entry is truncated in place before the read.
    Corrupt,
}

/// A parsed fault-injection plan. An empty plan (the default) injects
/// nothing.
#[derive(Debug, Default)]
pub struct Faults {
    /// Cache-load ordinals that fail transiently (each fires once).
    io: Vec<u64>,
    /// Cache-load ordinals whose entry is truncated (each fires once).
    corrupt: Vec<u64>,
    /// Sweep cell ids that panic (fire on every evaluation of that
    /// cell, so a retried lane fails deterministically too).
    panic_cells: Vec<u64>,
    /// Cell-evaluation ordinals that hard-exit the process (no
    /// unwind); see the module docs for why these count evaluations,
    /// not stable cell ids.
    aborts: Vec<u64>,
    /// The seed, echoed into injected panic payloads.
    seed: u64,
    /// Process-wide disk-cache load ordinal.
    loads: AtomicU64,
    /// Process-wide sweep-cell evaluation ordinal (for `abort`).
    evals: AtomicU64,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Faults {
    /// An inert plan (injects nothing).
    pub fn none() -> Arc<Self> {
        Arc::new(Faults::default())
    }

    /// Parses a `TLAT_FAULTS` spec (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed
    /// component.
    pub fn parse(spec: &str) -> Result<Faults, String> {
        let (entries, seed) = spec
            .rsplit_once(':')
            .ok_or_else(|| format!("missing `:<seed>` suffix in {spec:?}"))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("seed {seed:?} is not an unsigned integer"))?;
        let mut plan = Faults {
            seed,
            ..Faults::default()
        };
        for (slot, entry) in entries.split(',').enumerate() {
            let entry = entry.trim();
            let (kind, index) = match entry.split_once('@') {
                Some((kind, index)) => {
                    let index = index
                        .parse()
                        .map_err(|_| format!("index in {entry:?} is not an unsigned integer"))?;
                    (kind, Some(index))
                }
                None => (entry, None),
            };
            // Each seed-derived index mixes in the entry's position so
            // repeated kinds land on distinct ordinals.
            let derived =
                |salt: u64| splitmix64(seed ^ salt ^ (slot as u64) << 32) % DERIVED_WINDOW;
            match kind {
                "io" => plan.io.push(index.unwrap_or_else(|| derived(0x10))),
                "corrupt" => plan.corrupt.push(index.unwrap_or_else(|| derived(0xC0))),
                "panic" => plan
                    .panic_cells
                    .push(index.unwrap_or_else(|| derived(0xBA))),
                "abort" => plan.aborts.push(index.unwrap_or_else(|| derived(0xAB))),
                other => return Err(format!("unknown fault kind {other:?} in {spec:?}")),
            }
        }
        Ok(plan)
    }

    /// The environment-configured plan: parses `TLAT_FAULTS`, warning
    /// on stderr (and injecting nothing) if the spec is malformed.
    pub fn from_env() -> Arc<Self> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.is_empty() => match Faults::parse(&spec) {
                Ok(plan) => {
                    eprintln!("note: fault injection armed: {FAULTS_ENV}={spec}");
                    Arc::new(plan)
                }
                Err(e) => {
                    eprintln!("warning: ignoring {FAULTS_ENV}={spec:?}: {e}");
                    Faults::none()
                }
            },
            _ => Faults::none(),
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn armed(&self) -> bool {
        !(self.io.is_empty()
            && self.corrupt.is_empty()
            && self.panic_cells.is_empty()
            && self.aborts.is_empty())
    }

    /// The plan's seed (echoed in injected panic payloads).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Called once per disk-cache load: advances the load ordinal and
    /// reports the fault (if any) scheduled for it. Corruption wins
    /// when both kinds target the same ordinal, so a combined spec
    /// still exercises eviction.
    pub fn on_cache_load(&self) -> Option<CacheFault> {
        if !self.armed() {
            return None;
        }
        let ordinal = self.loads.fetch_add(1, Ordering::Relaxed);
        let fault = if self.corrupt.contains(&ordinal) {
            Some(CacheFault::Corrupt)
        } else if self.io.contains(&ordinal) {
            Some(CacheFault::Transient)
        } else {
            None
        };
        if fault.is_some() {
            metrics::bump(metrics::Counter::FaultsInjected);
        }
        fault
    }

    /// Whether the sweep cell with stable id `cell` should panic.
    /// Deterministic in the cell id (not in scheduling order), so the
    /// same cell fails no matter how the pool interleaves — and fails
    /// again if re-evaluated, keeping failed-cell reporting stable.
    pub fn panics_cell(&self, cell: u64) -> bool {
        self.panic_cells.contains(&cell)
    }

    /// Panics with a deterministic payload if the plan targets `cell`.
    /// `label` names the cell in the payload for the failure report.
    pub fn maybe_panic_cell(&self, cell: u64, label: &str) {
        if self.panics_cell(cell) {
            metrics::bump(metrics::Counter::FaultsInjected);
            panic!(
                "injected fault: panicking lane {label} (cell {cell}, seed {})",
                self.seed
            );
        }
    }

    /// The sweep-cell injection site: called once per cell actually
    /// evaluated (never for journal-replayed cells). Advances the
    /// evaluation ordinal and fires any `abort` scheduled for it —
    /// hard-exiting the process with no unwind — then any `panic`
    /// keyed to the cell's stable id.
    pub fn on_cell(&self, cell: u64, label: &str) {
        if !self.armed() {
            return;
        }
        if !self.aborts.is_empty() {
            let ordinal = self.evals.fetch_add(1, Ordering::Relaxed);
            if self.aborts.contains(&ordinal) {
                metrics::bump(metrics::Counter::FaultsInjected);
                eprintln!(
                    "note: injected fault: hard abort at cell evaluation {ordinal} \
                     ({label}, cell {cell}, seed {})",
                    self.seed
                );
                std::process::abort();
            }
        }
        self.maybe_panic_cell(cell, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_indices_parse() {
        let plan = Faults::parse("io@2,corrupt@0,panic@7:42").unwrap();
        assert_eq!(plan.seed(), 42);
        assert!(plan.armed());
        // Loads 0..3: corrupt at 0, transient at 2.
        assert_eq!(plan.on_cache_load(), Some(CacheFault::Corrupt));
        assert_eq!(plan.on_cache_load(), None);
        assert_eq!(plan.on_cache_load(), Some(CacheFault::Transient));
        assert_eq!(plan.on_cache_load(), None);
        assert!(plan.panics_cell(7));
        assert!(!plan.panics_cell(6));
    }

    #[test]
    fn derived_indices_are_reproducible_and_windowed() {
        let a = Faults::parse("io,corrupt,panic,abort:9").unwrap();
        let b = Faults::parse("io,corrupt,panic,abort:9").unwrap();
        assert_eq!(a.io, b.io);
        assert_eq!(a.corrupt, b.corrupt);
        assert_eq!(a.panic_cells, b.panic_cells);
        assert_eq!(a.aborts, b.aborts);
        assert!(a.io[0] < DERIVED_WINDOW);
        assert!(a.corrupt[0] < DERIVED_WINDOW);
        assert!(a.panic_cells[0] < DERIVED_WINDOW);
        assert!(a.aborts[0] < DERIVED_WINDOW);
    }

    #[test]
    fn abort_specs_parse_and_arm() {
        // Firing an abort would kill the test harness (that end of the
        // path is exercised by crates/sim/tests/supervisor.rs in child
        // processes); here we pin the parse and the ordinal bookkeeping
        // up to — but not including — the targeted evaluation.
        let plan = Faults::parse("abort@2:5").unwrap();
        assert!(plan.armed());
        assert_eq!(plan.aborts, vec![2]);
        plan.on_cell(10, "AT/gcc"); // ordinal 0: must not abort
        plan.on_cell(11, "AT/li"); // ordinal 1: must not abort
        assert_eq!(plan.evals.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn malformed_specs_are_rejected_whole() {
        assert!(Faults::parse("io@2").is_err(), "missing seed");
        assert!(Faults::parse("io@x:1").is_err(), "bad index");
        assert!(Faults::parse("gremlin:1").is_err(), "unknown kind");
        assert!(Faults::parse("io:notanum").is_err(), "bad seed");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = Faults::none();
        assert!(!plan.armed());
        assert_eq!(plan.on_cache_load(), None);
        assert!(!plan.panics_cell(0));
        plan.maybe_panic_cell(0, "noop"); // must not panic
    }

    #[test]
    fn injected_panic_carries_cell_and_seed() {
        let plan = Faults::parse("panic@3:11").unwrap();
        let caught = std::panic::catch_unwind(|| plan.maybe_panic_cell(3, "AT/gcc")).unwrap_err();
        let message = caught.downcast_ref::<String>().unwrap();
        assert!(message.contains("cell 3"));
        assert!(message.contains("seed 11"));
        assert!(message.contains("AT/gcc"));
    }
}
