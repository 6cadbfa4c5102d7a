//! Persistent on-disk trace cache.
//!
//! Generating a workload trace (assembling and interpreting an M88-lite
//! program) dwarfs the cost of simulating predictors over it, yet every
//! process used to regenerate all nine workloads from scratch. This
//! module persists generated traces through the TLA3 packet codec
//! (branch-map compressed, see `tlat_trace::packet`) so a second
//! `tlat report` (or bench) run skips generation entirely — and, via
//! [`DiskCache::load_compiled`], can stream an entry straight into a
//! [`CompiledTrace`] without materializing the per-branch records.
//!
//! TLA3 is the only format read: entries older builds wrote in the
//! retired record format, under a different extension, are never
//! opened. Such stale files can be deleted by hand.
//!
//! Cache entries live under `target/tlat-cache/` by default, or the
//! directory named by the `TLAT_TRACE_CACHE` environment variable
//! (`TLAT_TRACE_CACHE=0`, `off`, or the empty string disables the cache
//! altogether). Each entry is keyed by a [`TraceKey`] fingerprint over
//! the workload name, data-set identity (name, seed, scale), branch
//! budget, and [`tlat_workloads::CODEGEN_VERSION`] — any change to the
//! inputs or to the generators lands on a different file name, so stale
//! entries are never *read*, only orphaned.
//!
//! # Failure model
//!
//! The cache is an optimization, never a correctness dependency, and
//! every failure degrades rather than aborts:
//!
//! * **Corrupt or truncated entries** are caught by the codec's
//!   magic/length checks, reported on stderr, evicted (best-effort),
//!   and regenerated in place.
//! * **Transient read errors** are retried up to [`READ_RETRIES`]
//!   times with a short bounded backoff before the load degrades to a
//!   miss.
//! * **Persistent write failures** (unwritable directory, full disk)
//!   are warned about and counted; after [`STORE_STRIKES`] consecutive
//!   failures the cache stops attempting writes for the rest of the
//!   process instead of paying (and logging) the same failure for
//!   every trace.
//!
//! All three paths are exercised deterministically by the
//! [`crate::faults`] injection harness (`TLAT_FAULTS`).

use crate::error::SimError;
use crate::faults::{CacheFault, Faults};
use crate::metrics::{self, Counter, Phase};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use tlat_trace::{codec, CompiledTrace, Trace};
use tlat_workloads::DataSet;

/// Environment variable naming the cache directory (or disabling the
/// cache when set to `0`, `off`, or empty).
pub const TRACE_CACHE_ENV: &str = "TLAT_TRACE_CACHE";

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "target/tlat-cache";

/// Transient read errors are retried this many times before the load
/// degrades to a cache miss.
pub const READ_RETRIES: u32 = 3;

/// Consecutive store failures after which the cache stops attempting
/// writes for the rest of the process.
pub const STORE_STRIKES: u32 = 3;

/// Identity of one cached trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceKey<'a> {
    /// Workload name (e.g. `"gcc"`).
    pub workload: &'a str,
    /// Which trace of the workload: `"test"` or `"train"`.
    pub role: &'a str,
    /// The data set the trace was generated from.
    pub input: &'a DataSet,
    /// Conditional-branch budget the trace was generated under.
    pub budget: u64,
}

impl TraceKey<'_> {
    /// FNV-1a fingerprint over every field that can change the
    /// generated trace, including the generator version itself.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.eat(self.workload.as_bytes());
        fnv.eat(self.role.as_bytes());
        fnv.eat(self.input.name.as_bytes());
        fnv.eat(&self.input.seed.to_le_bytes());
        fnv.eat(&(self.input.scale as u64).to_le_bytes());
        fnv.eat(&self.budget.to_le_bytes());
        fnv.eat(&tlat_workloads::CODEGEN_VERSION.to_le_bytes());
        fnv.finish()
    }

    /// The cache file name for this key: human-skimmable prefix plus
    /// the full fingerprint. Entries are stored in the TLA3 packet
    /// format under the `.tlat` extension.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{:016x}.tlat",
            self.workload,
            self.role,
            self.fingerprint()
        )
    }
}

/// Incremental FNV-1a with field separators, shared by the trace-cache
/// and sweep-journal fingerprints so concatenated fields cannot
/// collide.
#[derive(Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Hashes one field and a separator.
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        // Field separator so concatenations cannot collide.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// A directory of codec-serialized traces.
#[derive(Debug, Clone)]
pub struct DiskCache {
    root: PathBuf,
    faults: Arc<Faults>,
    /// Consecutive store failures (shared across clones so the
    /// shut-off is process-wide per cache).
    strikes: Arc<AtomicU32>,
}

impl DiskCache {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskCache {
            root: root.into(),
            faults: Faults::none(),
            strikes: Arc::new(AtomicU32::new(0)),
        }
    }

    /// The environment-configured cache: `TLAT_TRACE_CACHE` names the
    /// directory, defaulting to [`DEFAULT_CACHE_DIR`]; `0`, `off`, or
    /// an empty value disables caching (`None`).
    pub fn from_env() -> Option<Self> {
        match std::env::var(TRACE_CACHE_ENV) {
            Ok(dir) if matches!(dir.as_str(), "" | "0" | "off") => None,
            Ok(dir) => Some(DiskCache::new(dir)),
            Err(_) => Some(DiskCache::new(DEFAULT_CACHE_DIR)),
        }
    }

    /// Attaches a fault-injection plan (see [`crate::faults`]). The
    /// default plan injects nothing.
    pub fn with_faults(mut self, faults: Arc<Faults>) -> Self {
        self.faults = faults;
        self
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path for a key.
    pub fn path_for(&self, key: &TraceKey<'_>) -> PathBuf {
        self.root.join(key.file_name())
    }

    /// Reads and decodes the entry at `path` once, without recovery.
    /// This is the typed primitive the recovery loop builds its
    /// retry/evict policy on. A successful decode counts the file's
    /// size into [`Counter::CacheBytesRead`].
    fn try_read_with<T>(
        &self,
        path: &Path,
        decode: fn(&[u8]) -> Result<T, codec::DecodeError>,
    ) -> Result<T, SimError> {
        let bytes = std::fs::read(path).map_err(|e| SimError::Io {
            context: format!("reading trace cache entry {}", path.display()),
            source: e,
        })?;
        match decode(&bytes) {
            Ok(decoded) => {
                metrics::add(Counter::CacheBytesRead, bytes.len() as u64);
                Ok(decoded)
            }
            Err(e) => Err(SimError::Corrupt {
                path: path.to_path_buf(),
                detail: e.to_string(),
            }),
        }
    }

    /// One entry's full read policy (see the module docs): transient
    /// read errors are retried with bounded backoff; a present-but-
    /// invalid file (corrupt, truncated, wrong magic) is reported on
    /// stderr, evicted, and read as `None` so the caller regenerates
    /// it. A missing file is a silent `None`.
    fn read_with_recovery<T>(
        &self,
        path: &Path,
        injected: Option<CacheFault>,
        decode: fn(&[u8]) -> Result<T, codec::DecodeError>,
    ) -> Option<T> {
        let mut attempt = 0u32;
        loop {
            let result = if injected == Some(CacheFault::Transient) && attempt == 0 {
                Err(SimError::Io {
                    context: format!("reading trace cache entry {}", path.display()),
                    source: std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient I/O error (TLAT_FAULTS)",
                    ),
                })
            } else {
                self.try_read_with(path, decode)
            };
            match result {
                Ok(decoded) => return Some(decoded),
                Err(SimError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound =>
                {
                    return None; // the common, silent case
                }
                Err(e @ SimError::Io { .. }) if attempt < READ_RETRIES => {
                    attempt += 1;
                    eprintln!("warning: {e}; retry {attempt}/{READ_RETRIES}");
                    // Bounded backoff: 1, 4, 9 ms — long enough to let
                    // an interrupted write settle, short enough to be
                    // invisible next to trace generation.
                    std::thread::sleep(std::time::Duration::from_millis(u64::from(
                        attempt * attempt,
                    )));
                }
                Err(e @ SimError::Io { .. }) => {
                    eprintln!("warning: {e}; giving up on the cache entry and regenerating");
                    return None;
                }
                Err(e) => {
                    // Corrupt entry: evict (best-effort, no retry — a
                    // directory that refuses the unlink will refuse it
                    // next time too) and regenerate.
                    eprintln!("warning: {e}; evicting and regenerating");
                    metrics::bump(Counter::CacheEvictions);
                    if let Err(unlink) = std::fs::remove_file(path) {
                        if unlink.kind() != std::io::ErrorKind::NotFound {
                            eprintln!(
                                "warning: cannot evict corrupt cache entry {}: {unlink}",
                                path.display()
                            );
                        }
                    }
                    return None;
                }
            }
        }
    }

    /// The shared load path: one recovering read of the key's `.tlat`
    /// entry. Exactly one of `CacheHits`/`CacheMisses` is bumped per
    /// call.
    fn load_with<T>(
        &self,
        key: &TraceKey<'_>,
        decode: fn(&[u8]) -> Result<T, codec::DecodeError>,
    ) -> Option<T> {
        let _span = metrics::span(Phase::CacheLoad);
        let path = self.path_for(key);
        let injected = self.faults.on_cache_load();
        if injected == Some(CacheFault::Corrupt) {
            truncate_in_place(&path);
        }
        let loaded = self.read_with_recovery(&path, injected, decode);
        metrics::bump(if loaded.is_some() {
            Counter::CacheHits
        } else {
            Counter::CacheMisses
        });
        loaded
    }

    /// Loads the cached trace for `key`, or `None` on a cold miss.
    ///
    /// Recovery policy (see the module docs): transient read errors
    /// are retried with bounded backoff; a present-but-invalid file
    /// (corrupt, truncated, wrong magic) is reported on stderr,
    /// evicted, and treated as a miss so the caller regenerates it.
    pub fn load(&self, key: &TraceKey<'_>) -> Option<Trace> {
        self.load_with(key, codec::decode)
    }

    /// Loads the entry for `key` decoded straight into a
    /// [`CompiledTrace`] — the packet stream's site table and branch
    /// maps are consumed in place, so the per-branch record vector is
    /// never materialized. Recovery policy and counters match
    /// [`load`](Self::load).
    pub fn load_compiled(&self, key: &TraceKey<'_>) -> Option<CompiledTrace> {
        self.load_with(key, codec::decode_compiled)
    }

    /// Stores `trace` under `key`. Best-effort: an I/O failure is
    /// reported on stderr and otherwise ignored (the cache is an
    /// optimization, never a correctness dependency). After
    /// [`STORE_STRIKES`] consecutive failures the cache stops
    /// attempting writes for this process.
    pub fn store(&self, key: &TraceKey<'_>, trace: &Trace) {
        if self.strikes.load(Ordering::Relaxed) >= STORE_STRIKES {
            return; // cache writing already shut off for this process
        }
        let path = self.path_for(key);
        let bytes = codec::encode_v3(trace);
        let write = std::fs::create_dir_all(&self.root)
            .and_then(|()| codec::write_bytes_atomic(&path, &bytes));
        match write {
            Ok(()) => {
                metrics::add(Counter::CacheBytesWritten, bytes.len() as u64);
                self.strikes.store(0, Ordering::Relaxed);
            }
            Err(e) => {
                let strikes = self.strikes.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "warning: cannot persist trace cache entry {}: {e}",
                    path.display()
                );
                if strikes >= STORE_STRIKES {
                    eprintln!(
                        "warning: {strikes} consecutive trace-cache write failures; \
                         disabling cache writes for this process"
                    );
                }
            }
        }
    }
}

/// Truncates the file at `path` to a third of its length (matching the
/// corruption the integration tests apply by hand). Missing files are
/// left missing — the injected fault then falls through to a plain
/// cold miss.
fn truncate_in_place(path: &Path) {
    if let Ok(bytes) = std::fs::read(path) {
        let _ = std::fs::write(path, &bytes[..bytes.len() / 3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlat_workloads::SyntheticStream;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlat-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key<'a>(input: &'a DataSet, budget: u64) -> TraceKey<'a> {
        TraceKey {
            workload: "synthetic",
            role: "test",
            input,
            budget,
        }
    }

    #[test]
    fn roundtrip_and_miss() {
        let dir = scratch_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        let input = DataSet::new("unit", 7, 3);
        let trace = SyntheticStream::mixed(0xabc, 16).generate(500);
        let k = key(&input, 500);
        assert!(cache.load(&k).is_none(), "cold cache must miss");
        cache.store(&k, &trace);
        assert_eq!(cache.load(&k).unwrap(), trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_stored_in_the_packet_format() {
        let dir = scratch_dir("tla3");
        let cache = DiskCache::new(&dir);
        let input = DataSet::new("unit", 2, 1);
        let trace = SyntheticStream::mixed(0x7a3, 12).generate(300);
        let k = key(&input, 300);
        cache.store(&k, &trace);
        let bytes = std::fs::read(cache.path_for(&k)).unwrap();
        assert!(bytes.starts_with(b"TLA3"), "store must write TLA3");
        assert_eq!(bytes, codec::encode_v3(&trace));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compiled_loads_match_compiling_the_records() {
        let dir = scratch_dir("compiled");
        let cache = DiskCache::new(&dir);
        let input = DataSet::new("unit", 4, 2);
        let trace = SyntheticStream::mixed(0xc0de, 24).generate(600);
        let k = key(&input, 600);
        assert!(cache.load_compiled(&k).is_none(), "cold cache must miss");
        cache.store(&k, &trace);
        assert_eq!(
            cache.load_compiled(&k).unwrap(),
            CompiledTrace::compile(&trace)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_not_served() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::new(&dir);
        let input = DataSet::new("unit", 7, 3);
        let trace = SyntheticStream::mixed(0xabc, 16).generate(200);
        let k = key(&input, 200);
        cache.store(&k, &trace);
        let path = cache.path_for(&k);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load(&k).is_none(), "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_recovered() {
        let dir = scratch_dir("inject-corrupt");
        let input = DataSet::new("unit", 3, 2);
        let trace = SyntheticStream::mixed(0xf00, 8).generate(300);
        let k = key(&input, 300);
        DiskCache::new(&dir).store(&k, &trace);
        // Load 0 of this plan truncates the file in place.
        let faulty = DiskCache::new(&dir)
            .with_faults(Arc::new(Faults::parse("corrupt@0:1").unwrap()));
        assert!(faulty.load(&k).is_none(), "injected corruption must miss");
        assert!(!faulty.path_for(&k).exists(), "and must be evicted");
        // Regeneration (store + load) then round-trips cleanly.
        faulty.store(&k, &trace);
        assert_eq!(faulty.load(&k).unwrap(), trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_transient_io_error_is_retried() {
        let dir = scratch_dir("inject-io");
        let input = DataSet::new("unit", 5, 2);
        let trace = SyntheticStream::mixed(0xbee, 8).generate(250);
        let k = key(&input, 250);
        DiskCache::new(&dir).store(&k, &trace);
        let faulty =
            DiskCache::new(&dir).with_faults(Arc::new(Faults::parse("io@0:1").unwrap()));
        // The first attempt fails transiently; the bounded retry must
        // still serve the entry without regeneration.
        assert_eq!(faulty.load(&k).unwrap(), trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_every_field() {
        let a = DataSet::new("a", 1, 2);
        let base = key(&a, 100).fingerprint();
        let other_budget = key(&a, 101).fingerprint();
        let b = DataSet::new("a", 2, 2);
        let other_seed = key(&b, 100).fingerprint();
        let mut train = key(&a, 100);
        train.role = "train";
        assert_ne!(base, other_budget);
        assert_ne!(base, other_seed);
        assert_ne!(base, train.fingerprint());
        // Stable across calls.
        assert_eq!(base, key(&a, 100).fingerprint());
    }

    #[test]
    fn store_failure_is_non_fatal_and_strikes_out() {
        // Root is a *file*, so create_dir_all must fail.
        let dir = scratch_dir("nonfatal");
        std::fs::create_dir_all(&dir).unwrap();
        let blocked = dir.join("blocked");
        std::fs::write(&blocked, b"not a directory").unwrap();
        let cache = DiskCache::new(&blocked);
        let input = DataSet::new("unit", 1, 1);
        let trace = SyntheticStream::mixed(1, 4).generate(50);
        for _ in 0..(STORE_STRIKES + 2) {
            cache.store(&key(&input, 50), &trace); // must not panic
        }
        assert!(cache.load(&key(&input, 50)).is_none());
        assert!(
            cache.strikes.load(Ordering::Relaxed) >= STORE_STRIKES,
            "persistent write failure must strike the cache out"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
