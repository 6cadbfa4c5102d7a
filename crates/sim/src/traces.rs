//! Shared trace store.
//!
//! Generating a trace (assembling and interpreting a workload) costs far
//! more than simulating a predictor over it, so the experiment harness
//! generates each workload's traces once and shares them across every
//! configuration — in memory within a process, and optionally on disk
//! across processes through the [`DiskCache`].
//!
//! The store is the boundary where user-controllable state (cache
//! directories, environment variables, on-disk files) meets the
//! simulator, so its fallible paths are typed: [`TraceStore::try_test`]
//! and [`TraceStore::try_train`] return [`SimError`] instead of
//! panicking, and the sweep drivers route those errors into per-cell
//! failure reporting. The panicking [`TraceStore::test`] /
//! [`TraceStore::train`] conveniences remain for scripts and benches
//! where a workload fault should abort loudly.

use crate::diskcache::{DiskCache, TraceKey};
use crate::error::{lock_unpoisoned, SimError};
use crate::faults::Faults;
use crate::metrics::{self, Counter, Phase};
use crate::pool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tlat_trace::{CompiledTrace, Trace};
use tlat_workloads::Workload;

/// Default conditional-branch budget per benchmark.
///
/// The paper simulates twenty million conditional branches per
/// benchmark; accuracy orderings stabilize long before that, so the
/// harness defaults lower and can be raised with the
/// `TLAT_BRANCH_LIMIT` environment variable.
pub const DEFAULT_BRANCH_LIMIT: u64 = 500_000;

/// Reads the conditional-branch budget from `TLAT_BRANCH_LIMIT`,
/// falling back to [`DEFAULT_BRANCH_LIMIT`].
///
/// An unparsable value is reported on stderr — naming the bad value —
/// and ignored, rather than silently swallowed.
pub fn branch_limit_from_env() -> u64 {
    match std::env::var("TLAT_BRANCH_LIMIT") {
        Ok(raw) => match raw.parse() {
            Ok(limit) => limit,
            Err(_) => {
                eprintln!(
                    "warning: ignoring TLAT_BRANCH_LIMIT={raw:?} (not an unsigned integer); \
                     using the default of {DEFAULT_BRANCH_LIMIT}"
                );
                DEFAULT_BRANCH_LIMIT
            }
        },
        Err(_) => DEFAULT_BRANCH_LIMIT,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Which {
    Test,
    Train,
}

impl Which {
    fn role(self) -> &'static str {
        match self {
            Which::Test => "test",
            Which::Train => "train",
        }
    }
}

/// One memoization slot. The outer map hands out the slot under its own
/// short-lived lock; the generating thread then holds only the *slot*
/// lock for the (long) generation, so other workloads proceed in
/// parallel while a second request for the same trace blocks until the
/// first finishes — each trace is generated exactly once. Only
/// successes are memoized: a failed generation leaves the slot empty so
/// a later request (e.g. after fixing permissions) can try again.
type Slot = Arc<Mutex<Option<Arc<Trace>>>>;

/// Memoization slot for a compiled event stream (same
/// in-flight-dedupe discipline as [`Slot`]).
type CompiledSlot = Arc<Mutex<Option<Arc<CompiledTrace>>>>;

/// A lazy, memoizing store of workload traces.
#[derive(Debug)]
pub struct TraceStore {
    budget: u64,
    cache: Mutex<HashMap<(String, Which), Slot>>,
    /// Compiled test and training event streams, keyed like the
    /// record memo. Deliberately separate from it: the streaming path
    /// ([`try_test_compiled`](Self::try_test_compiled),
    /// [`train_compiled`](Self::train_compiled)) decodes disk
    /// entries straight into a [`CompiledTrace`] and must not pin the
    /// per-branch record vector in memory alongside it.
    compiled: Mutex<HashMap<(String, Which), CompiledSlot>>,
    disk: Option<DiskCache>,
    /// Workload interpretations actually performed (disk-cache hits and
    /// in-memory hits do not count). Lets tests assert a warm cache
    /// skips generation entirely.
    generations: AtomicU64,
}

impl TraceStore {
    /// Creates an in-memory-only store generating up to `budget`
    /// conditional branches per trace.
    pub fn new(budget: u64) -> Self {
        TraceStore {
            budget,
            cache: Mutex::new(HashMap::new()),
            compiled: Mutex::new(HashMap::new()),
            disk: None,
            generations: AtomicU64::new(0),
        }
    }

    /// Creates a store with the environment-configured budget and the
    /// environment-configured persistent disk cache (see
    /// [`DiskCache::from_env`]).
    pub fn from_env() -> Self {
        TraceStore {
            disk: DiskCache::from_env(),
            ..TraceStore::new(branch_limit_from_env())
        }
    }

    /// Attaches a persistent disk cache rooted at `dir`.
    pub fn with_disk_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.disk = Some(DiskCache::new(dir));
        self
    }

    /// Attaches a fault-injection plan to the disk cache (no-op when
    /// the store has no disk cache — the remaining injection sites
    /// live in the sweep drivers).
    pub fn with_faults(mut self, faults: Arc<Faults>) -> Self {
        self.disk = self.disk.take().map(|d| d.with_faults(faults));
        self
    }

    /// The per-trace conditional-branch budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The attached disk cache, if any.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Number of traces this store has generated by interpreting a
    /// workload (as opposed to serving from memory or disk).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Record traces memoized so far, test and training alike.
    #[cfg(test)]
    pub(crate) fn resident_records(&self) -> usize {
        lock_unpoisoned(&self.cache)
            .values()
            .filter(|slot| lock_unpoisoned(slot).is_some())
            .count()
    }

    /// The test trace for `workload`, generating it on first use.
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] if the workload program faults.
    pub fn try_test(&self, workload: &Workload) -> Result<Arc<Trace>, SimError> {
        self.get(workload, Which::Test)
    }

    /// The training trace for `workload` (Table 3): `Ok(None)` when the
    /// paper lists no distinct training set.
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] if the workload program faults.
    pub fn try_train(&self, workload: &Workload) -> Result<Option<Arc<Trace>>, SimError> {
        if workload.train_input().is_none() {
            return Ok(None);
        }
        self.get(workload, Which::Train).map(Some)
    }

    /// The test trace for `workload`, generating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the workload program faults (a workload bug); sweeps
    /// use [`try_test`](Self::try_test) and isolate the failure
    /// instead.
    pub fn test(&self, workload: &Workload) -> Arc<Trace> {
        self.try_test(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The training trace for `workload` (Table 3), or `None` when the
    /// paper lists no distinct training set.
    ///
    /// # Panics
    ///
    /// Panics if the workload program faults (a workload bug); sweeps
    /// use [`try_train`](Self::try_train) and isolate the failure
    /// instead.
    pub fn train(&self, workload: &Workload) -> Option<Arc<Trace>> {
        self.try_train(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The compiled event stream of `workload`'s test trace,
    /// memoized per workload.
    ///
    /// This is the gang sweeps' streaming path: a warm TLA3 disk entry
    /// is decoded straight into the [`CompiledTrace`] — site table,
    /// packed outcome bits, per-site tallies — without ever
    /// materializing the per-branch record vector, which at the
    /// paper's twenty-million-branch budget dwarfs the stream itself.
    /// The record memo is consulted (never populated) so an
    /// already-resident test trace compiles in memory instead of
    /// re-reading disk.
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] if the trace must be generated and the
    /// workload program faults.
    pub fn try_test_compiled(&self, workload: &Workload) -> Result<Arc<CompiledTrace>, SimError> {
        self.get_compiled(workload, Which::Test)
    }

    /// [`try_test_compiled`](Self::try_test_compiled), panicking on
    /// workload faults (scripts and benches).
    ///
    /// # Panics
    ///
    /// Panics if the workload program faults (a workload bug).
    pub fn test_compiled(&self, workload: &Workload) -> Arc<CompiledTrace> {
        self.try_test_compiled(workload)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The compiled event stream of `workload`'s training trace (Table
    /// 3), through the same streaming path as
    /// [`try_test_compiled`](Self::try_test_compiled), or `None` when
    /// the paper lists no distinct training set.
    ///
    /// # Panics
    ///
    /// Panics if the workload program faults (a workload bug); a
    /// sweep's lane build runs panic-isolated.
    pub fn train_compiled(&self, workload: &Workload) -> Option<Arc<CompiledTrace>> {
        workload.train_input()?;
        Some(
            self.get_compiled(workload, Which::Train)
                .unwrap_or_else(|e| panic!("{e}")),
        )
    }

    fn get_compiled(
        &self,
        workload: &Workload,
        which: Which,
    ) -> Result<Arc<CompiledTrace>, SimError> {
        let slot = {
            let mut compiled = lock_unpoisoned(&self.compiled);
            Arc::clone(
                compiled
                    .entry((workload.name.to_owned(), which))
                    .or_default(),
            )
        };
        let mut guard = lock_unpoisoned(&slot);
        if let Some(hit) = guard.as_ref() {
            return Ok(Arc::clone(hit));
        }
        // A trace already resident in the record memo compiles
        // directly — no disk read can beat memory.
        if let Some(records) = self.peek(workload, which) {
            let compiled = Arc::new(compile_records(&records));
            *guard = Some(Arc::clone(&compiled));
            return Ok(compiled);
        }
        let key = self.key(workload, which);
        if let Some(streamed) = self.disk.as_ref().and_then(|disk| disk.load_compiled(&key)) {
            metrics::add(Counter::SitesInterned, streamed.num_sites() as u64);
            let compiled = Arc::new(streamed);
            *guard = Some(Arc::clone(&compiled));
            return Ok(compiled);
        }
        // Cold cache: generate the records once (persisting them for
        // next time), compile, and drop the record vector — it is not
        // memoized on this path on purpose.
        let records = self.generate(workload, which, &key)?;
        let compiled = Arc::new(compile_records(&records));
        *guard = Some(Arc::clone(&compiled));
        Ok(compiled)
    }

    /// The memoized record trace, if one is already resident. Blocks on
    /// an in-flight generation of the same trace, but never starts
    /// one.
    fn peek(&self, workload: &Workload, which: Which) -> Option<Arc<Trace>> {
        let slot = lock_unpoisoned(&self.cache)
            .get(&(workload.name.to_owned(), which))
            .map(Arc::clone)?;
        let guard = lock_unpoisoned(&slot);
        guard.as_ref().map(Arc::clone)
    }

    /// The disk-cache key of one of `workload`'s traces.
    fn key<'w>(&self, workload: &'w Workload, which: Which) -> TraceKey<'w> {
        TraceKey {
            workload: workload.name,
            role: which.role(),
            input: match which {
                Which::Test => workload.test_input(),
                Which::Train => workload.train_input().expect("caller checked train_input"),
            },
            budget: self.budget,
        }
    }

    fn get(&self, workload: &Workload, which: Which) -> Result<Arc<Trace>, SimError> {
        let slot = {
            let mut cache = lock_unpoisoned(&self.cache);
            Arc::clone(cache.entry((workload.name.to_owned(), which)).or_default())
        };
        // Per-key in-flight guard: the first requester generates while
        // holding the slot lock; concurrent requesters for the *same*
        // trace wait here, requesters for other traces use other slots.
        let mut guard = lock_unpoisoned(&slot);
        if let Some(hit) = guard.as_ref() {
            return Ok(Arc::clone(hit));
        }
        let trace = Arc::new(self.obtain(workload, which)?);
        *guard = Some(Arc::clone(&trace));
        Ok(trace)
    }

    /// Loads a trace from the disk cache or generates (and persists)
    /// it.
    fn obtain(&self, workload: &Workload, which: Which) -> Result<Trace, SimError> {
        let key = self.key(workload, which);
        if let Some(cached) = self.disk.as_ref().and_then(|disk| disk.load(&key)) {
            return Ok(cached);
        }
        self.generate(workload, which, &key)
    }

    /// Interprets the workload program (the expensive path) and
    /// persists the result.
    fn generate(
        &self,
        workload: &Workload,
        which: Which,
        key: &TraceKey<'_>,
    ) -> Result<Trace, SimError> {
        self.generations.fetch_add(1, Ordering::Relaxed);
        metrics::bump(Counter::TraceGenerations);
        let trace = {
            // The span covers interpretation only; the cache store
            // (TLA3 encode and write) below is outside it.
            let _span = metrics::span(Phase::TraceGen);
            match which {
                Which::Test => workload.trace_test(self.budget),
                Which::Train => workload
                    .trace_train(self.budget)
                    .map(|t| t.expect("caller checked train_input")),
            }
        }
        .map_err(|e| SimError::workload(workload.name, e))?;
        if let Some(disk) = &self.disk {
            disk.store(key, &trace);
        }
        Ok(trace)
    }

    /// Readies every test and training trace of `workloads` for the
    /// sweeps, on the bounded worker pool (`TLAT_THREADS` workers).
    /// Without a disk cache it memoizes each compiled stream, so no
    /// record trace stays resident. With one it generates and persists
    /// only the entries the cache lacks and memoizes nothing: sweeps
    /// decode the entries straight into compiled streams when they
    /// need them, and compiling here would be paid again there.
    ///
    /// # Panics
    ///
    /// Panics if any generation task panics (a workload bug).
    pub fn prewarm(&self, workloads: &[Workload]) {
        pool::run_indexed_from_env(workloads.len(), |i| {
            let w = &workloads[i];
            let Some(disk) = &self.disk else {
                self.test_compiled(w);
                self.train_compiled(w);
                return;
            };
            let roles = [Some(Which::Test), w.train_input().map(|_| Which::Train)];
            for which in roles.into_iter().flatten() {
                let key = self.key(w, which);
                if !disk.path_for(&key).is_file() {
                    self.generate(w, which, &key)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
            }
        });
    }
}

/// Compiles a record trace into an event stream, with the same
/// accounting the streaming decode gets (`StreamCompile` span,
/// interned-site counter).
fn compile_records(trace: &Trace) -> CompiledTrace {
    let compiled = {
        let _span = metrics::span(Phase::StreamCompile);
        CompiledTrace::compile(trace)
    };
    metrics::add(Counter::SitesInterned, compiled.num_sites() as u64);
    compiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlat_workloads::by_name;

    #[test]
    fn traces_are_cached() {
        let store = TraceStore::new(2_000);
        let w = by_name("eqntott").unwrap();
        let a = store.test(&w);
        let b = store.try_test(&w).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.conditional_len(), 2_000);
        assert_eq!(store.generations(), 1, "second lookup must not regenerate");
    }

    #[test]
    fn train_respects_table3() {
        let store = TraceStore::new(1_000);
        assert!(store.train(&by_name("eqntott").unwrap()).is_none());
        assert!(store.train(&by_name("espresso").unwrap()).is_some());
        assert!(store
            .try_train(&by_name("eqntott").unwrap())
            .unwrap()
            .is_none());
    }

    #[test]
    fn env_override_parses() {
        // Do not mutate the process environment (tests run in
        // parallel); just exercise the default path.
        assert!(branch_limit_from_env() > 0);
    }

    #[test]
    fn prewarm_generates_in_parallel() {
        let store = TraceStore::new(500);
        let workloads = vec![by_name("eqntott").unwrap(), by_name("espresso").unwrap()];
        store.prewarm(&workloads);
        assert_eq!(lock_unpoisoned(&store.compiled).len(), 3); // 2 test + 1 train
        assert_eq!(store.generations(), 3);
        assert_eq!(
            store.resident_records(),
            0,
            "prewarm keeps compiled streams only"
        );
    }

    #[test]
    fn prewarm_over_a_disk_cache_persists_only_what_it_lacks() {
        let dir = scratch_dir("prewarm");
        let workloads = vec![by_name("eqntott").unwrap(), by_name("espresso").unwrap()];
        let cold = TraceStore::new(500).with_disk_cache(&dir);
        cold.prewarm(&workloads);
        assert_eq!(cold.generations(), 3);
        assert_eq!(
            lock_unpoisoned(&cold.compiled).len(),
            0,
            "a disk prewarm memoizes nothing"
        );
        assert_eq!(cold.resident_records(), 0);
        let warm = TraceStore::new(500).with_disk_cache(&dir);
        warm.prewarm(&workloads);
        assert_eq!(warm.generations(), 0, "every entry is already on disk");
        let espresso = &workloads[1];
        assert_eq!(
            *warm.train_compiled(espresso).unwrap(),
            CompiledTrace::compile(&cold.train(espresso).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_requests_generate_exactly_once() {
        let store = TraceStore::new(2_000);
        let w = by_name("tomcatv").unwrap();
        pool::run_indexed(8, 8, |_| store.test(&w));
        assert_eq!(store.generations(), 1, "in-flight guard must dedupe");
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tlat-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_disk_cache_skips_generation() {
        let dir = scratch_dir("warm");
        let w = by_name("matrix300").unwrap();
        let cold = TraceStore::new(1_500).with_disk_cache(&dir);
        let generated = cold.test(&w);
        assert_eq!(cold.generations(), 1);
        // A fresh store over the same directory: identical trace, zero
        // workload interpretations.
        let warm = TraceStore::new(1_500).with_disk_cache(&dir);
        let loaded = warm.test(&w);
        assert_eq!(*generated, *loaded);
        assert_eq!(warm.generations(), 0, "warm cache must skip generation");
        // A different budget is a different fingerprint: regenerates.
        let resized = TraceStore::new(700).with_disk_cache(&dir);
        resized.test(&w);
        assert_eq!(resized.generations(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_cache_regenerates() {
        let dir = scratch_dir("corrupt");
        let w = by_name("eqntott").unwrap();
        let cold = TraceStore::new(800).with_disk_cache(&dir);
        let original = cold.test(&w);
        // Truncate every cache file in the directory.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        }
        let recovered = TraceStore::new(800).with_disk_cache(&dir);
        let regenerated = recovered.test(&w);
        assert_eq!(*original, *regenerated, "regeneration must be deterministic");
        assert_eq!(recovered.generations(), 1, "corrupt entry must regenerate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compiled_streams_are_memoized_and_match_the_records() {
        let store = TraceStore::new(1_200);
        let w = by_name("eqntott").unwrap();
        let a = store.test_compiled(&w);
        let b = store.try_test_compiled(&w).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
        assert_eq!(*a, CompiledTrace::compile(&store.test(&w)));
    }

    #[test]
    fn warm_disk_cache_streams_compiled_without_records() {
        let dir = scratch_dir("stream");
        let w = by_name("matrix300").unwrap();
        let cold = TraceStore::new(1_000).with_disk_cache(&dir);
        let reference = CompiledTrace::compile(&cold.test(&w));
        // A fresh store over the same directory: the compiled stream
        // comes off disk with zero workload interpretations and —
        // the point of the streaming decode — without populating the
        // record memo.
        let warm = TraceStore::new(1_000).with_disk_cache(&dir);
        let streamed = warm.test_compiled(&w);
        assert_eq!(*streamed, reference);
        assert_eq!(warm.generations(), 0, "warm cache must skip generation");
        assert!(
            warm.peek(&w, Which::Test).is_none(),
            "streaming decode must not materialize the record trace"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_compiled_lookup_generates_and_persists_without_record_memo() {
        let dir = scratch_dir("stream-cold");
        let w = by_name("eqntott").unwrap();
        let store = TraceStore::new(900).with_disk_cache(&dir);
        let compiled = store.test_compiled(&w);
        assert_eq!(store.generations(), 1);
        assert!(
            store.peek(&w, Which::Test).is_none(),
            "cold streaming path must not memoize the records"
        );
        // The generation persisted: a second store streams it back.
        let warm = TraceStore::new(900).with_disk_cache(&dir);
        assert_eq!(*warm.test_compiled(&w), *compiled);
        assert_eq!(warm.generations(), 0);
        // And the record path still agrees.
        assert_eq!(*compiled, CompiledTrace::compile(&store.test(&w)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_recover_through_the_store() {
        let dir = scratch_dir("faults");
        let w = by_name("eqntott").unwrap();
        let original = TraceStore::new(600).with_disk_cache(&dir).test(&w);
        // Load 0 sees a truncated file, load 1 (the regeneration-check
        // path of a later store) a transient error.
        let plan = Arc::new(Faults::parse("corrupt@0,io@1:3").unwrap());
        let faulty = TraceStore::new(600)
            .with_disk_cache(&dir)
            .with_faults(Arc::clone(&plan));
        let recovered = faulty.test(&w);
        assert_eq!(*original, *recovered, "recovery must be byte-identical");
        assert_eq!(faulty.generations(), 1, "corruption must regenerate");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
