//! Supervised multi-process sweeps on the journal substrate.
//!
//! A paper-scale sweep in one long-lived process makes that process
//! the availability bottleneck: one crash, OOM kill, or node reboot
//! loses the run. The journal (PR 3) already made every cell
//! idempotent, atomic, and fingerprint-keyed; this module leans on
//! that substrate for the distributed story:
//!
//! * **Sharding** — `tlat sweep --shard i/N` (env [`SHARD_ENV`])
//!   restricts one process to a deterministic slice of the sweep's
//!   cells. Assignment is [`shard_of`]: a splitmix64 hash of the sweep
//!   fingerprint XOR the stable cell id, reduced mod `N`. Shards never
//!   overlap, every cell belongs to exactly one shard, and — because
//!   the hash depends only on (fingerprint, cell) — any assignment of
//!   shards to processes lands the *same* journal.
//! * **Supervision** — `tlat sweep --workers N` (env [`WORKERS_ENV`])
//!   spawns one worker process per shard via [`std::process::Command`],
//!   monitors exits, and restarts crashed or killed workers with
//!   capped exponential backoff. Strikes count *consecutive deaths
//!   without journal progress* (landing any owned cell resets them),
//!   so a worker that dies mid-sweep but keeps landing cells is
//!   restarted indefinitely, while a worker that dies at the same
//!   point every time exhausts its [`SupervisorOptions::strike_limit`]
//!   and the sweep degrades gracefully: the shard's unlanded cells
//!   render as `✗` with a footnote, like PR 3's panic path.
//! * **Liveness** — each worker touches an mtime heartbeat file
//!   ([`heartbeat_path`]) in the journal directory. With
//!   [`WORKER_TIMEOUT_ENV`] set, a worker whose heartbeat goes stale
//!   is killed and restarted like a crash — a hung worker is
//!   distinguishable from a slow one.
//!
//! When every cell has landed, [`run_supervised`] renders the final
//! report through the ordinary resume path — zero walks, byte-identical
//! to an uninterrupted single-process run. Kill -9 any subset of
//! workers, any number of times: the report bytes do not change.

use crate::config::SchemeConfig;
use crate::error::SimError;
use crate::experiment::Harness;
use crate::faults::splitmix64;
use crate::journal::{self, SweepJournal};
use crate::metrics::{self, Counter};
use crate::report::{Cell, Report};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Environment variable assigning this process one shard of a sweep,
/// as `i/N` (zero-based). Implies checkpoint/resume: a shard's output
/// *is* its journal records.
pub const SHARD_ENV: &str = "TLAT_SHARD";

/// Environment variable asking `tlat sweep` to supervise `N` worker
/// processes (one per shard) instead of computing cells itself.
pub const WORKERS_ENV: &str = "TLAT_WORKERS";

/// Environment variable (seconds, fractional allowed) after which a
/// worker whose heartbeat file has gone stale is killed and restarted.
/// Unset, `0`, or `off` disables liveness enforcement.
pub const WORKER_TIMEOUT_ENV: &str = "TLAT_WORKER_TIMEOUT";

/// Age guard for the supervisor's end-of-run journal GC (and the
/// `tlat gc` default): `sweep-*` directories younger than this are
/// never collected, so a sweep running concurrently under a
/// fingerprint we don't know about is safe — its cells land
/// continuously, keeping it young.
pub const GC_MIN_AGE: Duration = Duration::from_secs(7 * 24 * 3600);

/// One shard of a sweep: this process owns every cell `c` with
/// `shard_of(fingerprint, c, count) == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Shard {
    /// Parses `"i/N"` (zero-based, `i < N`, `N ≥ 1`).
    pub fn parse(s: &str) -> Option<Shard> {
        let (i, n) = s.split_once('/')?;
        let index: u32 = i.trim().parse().ok()?;
        let count: u32 = n.trim().parse().ok()?;
        (count >= 1 && index < count).then_some(Shard { index, count })
    }

    /// Reads [`SHARD_ENV`]; unusable values warn and read as unset.
    pub fn from_env() -> Option<Shard> {
        let raw = std::env::var(SHARD_ENV).ok().filter(|s| !s.is_empty())?;
        let shard = Shard::parse(&raw);
        if shard.is_none() {
            eprintln!(
                "warning: ignoring unusable {SHARD_ENV}={raw:?} \
                 (want i/N with zero-based i < N); computing every cell"
            );
        }
        shard
    }

    /// Whether this shard owns the given stable cell id under the
    /// given sweep fingerprint.
    pub fn admits(&self, fingerprint: u64, cell: u64) -> bool {
        shard_of(fingerprint, cell, self.count) == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The shard owning a cell: `splitmix64(fingerprint ^ cell) % count`.
///
/// Pure in `(fingerprint, cell, count)`, so every process — workers
/// and supervisor alike — computes the same partition without
/// coordination, and the hash spreads each sweep's cells differently
/// (a pathological workload does not pin to the same shard in every
/// sweep).
pub fn shard_of(fingerprint: u64, cell: u64, count: u32) -> u32 {
    if count <= 1 {
        return 0;
    }
    (splitmix64(fingerprint ^ cell) % u64::from(count)) as u32
}

/// Reads [`WORKERS_ENV`]: `Some(n)` for a usable positive count,
/// `None` otherwise (unusable values warn).
pub fn workers_from_env() -> Option<u32> {
    let raw = std::env::var(WORKERS_ENV).ok().filter(|s| !s.is_empty())?;
    match raw.parse::<u32>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("warning: ignoring unusable {WORKERS_ENV}={raw:?} (want a positive integer)");
            None
        }
    }
}

/// Reads [`WORKER_TIMEOUT_ENV`] as seconds (fractional allowed).
pub fn worker_timeout_from_env() -> Option<Duration> {
    let raw = std::env::var(WORKER_TIMEOUT_ENV).ok()?;
    if matches!(raw.as_str(), "" | "0" | "off") {
        return None;
    }
    match raw.parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Some(Duration::from_secs_f64(secs)),
        _ => {
            eprintln!(
                "warning: ignoring unusable {WORKER_TIMEOUT_ENV}={raw:?} (want seconds); \
                 worker liveness enforcement stays off"
            );
            None
        }
    }
}

/// Whether this invocation's environment implies journal-backed
/// execution even without `TLAT_RESUME`: a shard's output is its
/// journal records, and a supervisor renders from the landed journal.
pub fn implied_resume() -> bool {
    Shard::from_env().is_some() || workers_from_env().is_some()
}

/// The heartbeat file a shard's worker touches inside the journal
/// directory.
pub fn heartbeat_path(journal_dir: &Path, shard_index: u32) -> PathBuf {
    journal_dir.join(format!("hb-{shard_index}.beat"))
}

/// A running heartbeat; dropping it stops the beat thread at its next
/// tick.
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Starts a background thread touching the shard's heartbeat file
/// every `period`. Best-effort: an unwritable journal directory just
/// means no heartbeat (and, with a timeout configured, an eventual
/// restart — which will fare no better, so the strike limit ends it).
pub fn start_heartbeat(journal_dir: &Path, shard_index: u32, period: Duration) -> Heartbeat {
    let path = heartbeat_path(journal_dir, shard_index);
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    std::thread::spawn(move || {
        while !thread_stop.load(Ordering::Relaxed) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::write(&path, format!("{}\n", std::process::id()));
            std::thread::sleep(period);
        }
    });
    Heartbeat { stop }
}

/// Restart policy and cadence for [`supervise`].
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Number of worker processes, one per shard.
    pub workers: u32,
    /// Consecutive no-progress deaths before a shard is abandoned.
    pub strike_limit: u32,
    /// First restart delay; doubles per consecutive strike.
    pub backoff_base: Duration,
    /// Upper bound on the restart delay.
    pub backoff_cap: Duration,
    /// Heartbeat staleness after which a worker is killed, when set.
    pub worker_timeout: Option<Duration>,
    /// Supervisor poll cadence.
    pub poll: Duration,
}

impl SupervisorOptions {
    /// Defaults for `workers` shards: 3 strikes, 50 ms base / 2 s cap
    /// backoff, liveness timeout from [`WORKER_TIMEOUT_ENV`].
    pub fn new(workers: u32) -> Self {
        SupervisorOptions {
            workers: workers.max(1),
            strike_limit: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            worker_timeout: worker_timeout_from_env(),
            poll: Duration::from_millis(20),
        }
    }
}

/// How one shard's worker lifecycle ended.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Which shard.
    pub shard: Shard,
    /// Worker processes spawned (first launch + restarts).
    pub spawns: u32,
    /// Restarts after a crash, kill, or timeout.
    pub restarts: u32,
    /// Restarts that were heartbeat-timeout kills.
    pub timeouts: u32,
    /// Whether the shard hit the strike limit and was abandoned.
    pub exhausted: bool,
    /// Journal cells owned by this shard that had landed when the
    /// shard finished (or was abandoned).
    pub landed: usize,
}

/// Per-shard supervision state.
enum ShardState {
    /// Waiting out a restart backoff (or the initial spawn at `t0`).
    Backoff { until: Instant },
    /// A live worker.
    Running { child: Child, spawned_at: Instant },
    /// Worker exited successfully; shard complete.
    Done,
    /// Strike limit hit; shard abandoned.
    Exhausted,
}

/// Spawns one worker per shard and babysits them until every shard is
/// done or exhausted. `make_worker` builds the (fully configured)
/// command for a shard; it is called again on every restart.
///
/// The supervisor never computes cells itself — progress is measured
/// purely by cells landing in the journal, which is also what makes
/// the strike policy sound: a worker that crashes *after* landing new
/// cells resets its strikes, so only a worker stuck at the same point
/// burns through the limit.
pub fn supervise(
    journal: &SweepJournal,
    n_configs: usize,
    make_worker: &mut dyn FnMut(Shard) -> Command,
    opts: &SupervisorOptions,
) -> Vec<ShardOutcome> {
    let fingerprint = journal.fingerprint();
    let count = opts.workers;
    let landed_for = |shard: &Shard| -> usize {
        journal
            .keys()
            .into_iter()
            .filter(|&(ci, wi)| shard.admits(fingerprint, (wi * n_configs + ci) as u64))
            .count()
    };
    let shards: Vec<Shard> = (0..count).map(|index| Shard { index, count }).collect();
    let now = Instant::now();
    let mut states: Vec<ShardState> = shards
        .iter()
        .map(|_| ShardState::Backoff { until: now })
        .collect();
    let mut outcomes: Vec<ShardOutcome> = shards
        .iter()
        .map(|&shard| ShardOutcome {
            shard,
            spawns: 0,
            restarts: 0,
            timeouts: 0,
            exhausted: false,
            landed: 0,
        })
        .collect();
    let mut strikes = vec![0u32; shards.len()];
    let mut last_landed: Vec<usize> = shards.iter().map(&landed_for).collect();

    loop {
        let mut live = false;
        for i in 0..shards.len() {
            let shard = shards[i];
            // Lifecycle events transfer ownership of the Child, so each
            // step moves the state out and writes the successor back.
            let state = std::mem::replace(&mut states[i], ShardState::Done);
            states[i] = match state {
                done @ (ShardState::Done | ShardState::Exhausted) => done,
                ShardState::Backoff { until } => {
                    live = true;
                    if Instant::now() < until {
                        ShardState::Backoff { until }
                    } else {
                        match make_worker(shard).spawn() {
                            Ok(child) => {
                                outcomes[i].spawns += 1;
                                ShardState::Running {
                                    child,
                                    spawned_at: Instant::now(),
                                }
                            }
                            Err(e) => {
                                eprintln!("warning: cannot spawn worker for shard {shard}: {e}");
                                shard_died(
                                    &shard,
                                    landed_for(&shard),
                                    &mut strikes[i],
                                    &mut outcomes[i],
                                    &mut last_landed[i],
                                    opts,
                                    false,
                                )
                            }
                        }
                    }
                }
                ShardState::Running {
                    mut child,
                    spawned_at,
                } => {
                    live = true;
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            outcomes[i].landed = landed_for(&shard);
                            ShardState::Done
                        }
                        Ok(Some(status)) => {
                            eprintln!(
                                "note: worker for shard {shard} died ({status}); \
                                 checking journal progress"
                            );
                            shard_died(
                                &shard,
                                landed_for(&shard),
                                &mut strikes[i],
                                &mut outcomes[i],
                                &mut last_landed[i],
                                opts,
                                false,
                            )
                        }
                        Ok(None) => {
                            let stale = opts.worker_timeout.is_some_and(|timeout| {
                                heartbeat_age(journal.dir(), shard.index, spawned_at) > timeout
                            });
                            if stale {
                                eprintln!(
                                    "note: worker for shard {shard} missed its heartbeat; \
                                     killing it"
                                );
                                let _ = child.kill();
                                let _ = child.wait();
                                shard_died(
                                    &shard,
                                    landed_for(&shard),
                                    &mut strikes[i],
                                    &mut outcomes[i],
                                    &mut last_landed[i],
                                    opts,
                                    true,
                                )
                            } else {
                                ShardState::Running { child, spawned_at }
                            }
                        }
                        Err(e) => {
                            eprintln!("warning: cannot poll worker for shard {shard}: {e}");
                            let _ = child.kill();
                            let _ = child.wait();
                            shard_died(
                                &shard,
                                landed_for(&shard),
                                &mut strikes[i],
                                &mut outcomes[i],
                                &mut last_landed[i],
                                opts,
                                false,
                            )
                        }
                    }
                }
            };
        }
        if !live {
            break;
        }
        std::thread::sleep(opts.poll);
    }
    outcomes
}

/// Shared death path: measure journal progress, reset or count a
/// strike, then either schedule a backed-off restart or abandon the
/// shard. Returns the shard's successor state.
fn shard_died(
    shard: &Shard,
    landed: usize,
    strikes: &mut u32,
    outcome: &mut ShardOutcome,
    last_landed: &mut usize,
    opts: &SupervisorOptions,
    timed_out: bool,
) -> ShardState {
    if timed_out {
        outcome.timeouts += 1;
        metrics::bump(Counter::WorkerTimeouts);
    }
    if landed > *last_landed {
        *strikes = 0; // progress: the crash point moved forward
    } else {
        *strikes += 1;
    }
    *last_landed = landed;
    outcome.landed = landed;
    if *strikes >= opts.strike_limit {
        eprintln!(
            "warning: shard {shard} exhausted its strike limit \
             ({strikes} consecutive deaths without journal progress); abandoning it"
        );
        metrics::bump(Counter::ShardsExhausted);
        outcome.exhausted = true;
        return ShardState::Exhausted;
    }
    outcome.restarts += 1;
    metrics::bump(Counter::WorkerRestarts);
    let exp = (*strikes).min(10); // enough to clear any sane cap
    let delay = opts
        .backoff_base
        .saturating_mul(1u32 << exp)
        .min(opts.backoff_cap);
    ShardState::Backoff {
        until: Instant::now() + delay,
    }
}

/// Seconds since the shard's heartbeat file was last touched, or since
/// the worker was spawned when the file is missing or unreadable
/// (a worker that never managed a first beat still times out).
fn heartbeat_age(journal_dir: &Path, shard_index: u32, spawned_at: Instant) -> Duration {
    let since_spawn = spawned_at.elapsed();
    let mtime = std::fs::metadata(heartbeat_path(journal_dir, shard_index))
        .and_then(|m| m.modified())
        .ok();
    match mtime.and_then(|t| SystemTime::now().duration_since(t).ok()) {
        // The file may predate this worker (a restart): never report
        // an age older than the worker itself.
        Some(age) => age.min(since_spawn),
        None => since_spawn,
    }
}

/// Runs a sweep under supervision and renders the final report.
///
/// Spawns `opts.workers` shard workers over the sweep's journal,
/// supervises them to completion, then:
///
/// * if every cell landed — renders through the harness's ordinary
///   resume path (zero walks, byte-identical to an uninterrupted
///   single-process run);
/// * otherwise — renders from the journal alone, filling each missing
///   cell with `✗` and a footnote naming the abandoned shard. Missing
///   cells are *never* recomputed in this process: whatever killed the
///   workers (e.g. an injected abort fault) would kill the supervisor
///   too.
///
/// Ends with the orphaned-journal GC hook: stale `sweep-*` siblings
/// older than [`GC_MIN_AGE`] are collected.
///
/// # Errors
///
/// [`SimError::Workload`] when the harness has no journal (supervised
/// sweeps need the trace cache / resume root).
pub fn run_supervised(
    harness: &Harness,
    title: &str,
    configs: &[SchemeConfig],
    make_worker: &mut dyn FnMut(Shard) -> Command,
    opts: &SupervisorOptions,
) -> Result<(Report, Vec<ShardOutcome>), SimError> {
    let journal = harness.sweep_journal(title, configs).ok_or_else(|| {
        SimError::workload(
            "sweep supervisor",
            "supervised sweeps journal their cells; enable the trace cache (TLAT_TRACE_CACHE)",
        )
    })?;
    let n_configs = configs.len();
    let n_workloads = harness.workloads().len();
    let outcomes = supervise(&journal, n_configs, make_worker, opts);

    let landed = journal.load(); // checksummed read; evicts anything torn
    let complete =
        (0..n_configs).all(|ci| (0..n_workloads).all(|wi| landed.contains_key(&(ci, wi))));
    let report = if complete {
        harness.accuracy_table(title, configs)
    } else {
        let fingerprint = journal.fingerprint();
        harness.accuracy_table_journaled(title, configs, &|ci, wi| {
            let cell = (wi * n_configs + ci) as u64;
            let shard = Shard {
                index: shard_of(fingerprint, cell, opts.workers),
                count: opts.workers,
            };
            let detail = outcomes
                .iter()
                .find(|o| o.shard == shard)
                .map(|o| {
                    if o.exhausted {
                        format!("shard {shard} exhausted after {} spawns", o.spawns)
                    } else {
                        format!("shard {shard} finished without landing this cell")
                    }
                })
                .unwrap_or_else(|| format!("shard {shard} never ran"));
            Cell::Failed(detail)
        })
    };
    if let Some(root) = journal.dir().parent() {
        let stats = journal::gc(root, &[journal.dir().to_path_buf()], GC_MIN_AGE);
        if stats.removed > 0 {
            eprintln!(
                "note: collected {} stale sweep journal(s), {} bytes",
                stats.removed, stats.bytes
            );
        }
    }
    Ok((report, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_valid_and_rejects_junk() {
        assert_eq!(Shard::parse("0/1"), Some(Shard { index: 0, count: 1 }));
        assert_eq!(Shard::parse("3/4"), Some(Shard { index: 3, count: 4 }));
        assert_eq!(Shard::parse(" 1 / 2 "), Some(Shard { index: 1, count: 2 }));
        for junk in ["", "4/4", "5/4", "1", "1/0", "-1/2", "a/b", "1/2/3"] {
            assert_eq!(Shard::parse(junk), None, "{junk:?}");
        }
        assert_eq!(Shard { index: 2, count: 5 }.to_string(), "2/5");
    }

    #[test]
    fn shard_of_is_a_partition() {
        // Every cell belongs to exactly one shard, by construction;
        // check the assignment is total, in-range, and non-degenerate.
        let fingerprint = 0x9e37_79b9_7f4a_7c15;
        for count in [1u32, 2, 3, 7] {
            let mut seen = vec![0usize; count as usize];
            for cell in 0..1000u64 {
                let s = shard_of(fingerprint, cell, count);
                assert!(s < count);
                seen[s as usize] += 1;
            }
            if count > 1 {
                assert!(
                    seen.iter().all(|&n| n > 0),
                    "1000 cells over {count} shards must hit every shard: {seen:?}"
                );
            }
        }
        // Different fingerprints slice differently (with overwhelming
        // probability over 64 cells).
        let a: Vec<u32> = (0..64).map(|c| shard_of(1, c, 4)).collect();
        let b: Vec<u32> = (0..64).map(|c| shard_of(2, c, 4)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn admits_matches_shard_of() {
        let shard = Shard { index: 1, count: 3 };
        for cell in 0..100 {
            assert_eq!(shard.admits(42, cell), shard_of(42, cell, 3) == 1);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let opts = SupervisorOptions {
            workers: 1,
            strike_limit: 100,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            worker_timeout: None,
            poll: Duration::from_millis(1),
        };
        let delay = |strikes: u32| {
            opts.backoff_base
                .saturating_mul(1u32 << strikes.min(10))
                .min(opts.backoff_cap)
        };
        assert_eq!(delay(0), Duration::from_millis(50));
        assert_eq!(delay(1), Duration::from_millis(100));
        assert_eq!(delay(2), Duration::from_millis(200));
        assert_eq!(delay(6), Duration::from_secs(2), "capped");
        assert_eq!(delay(99), Duration::from_secs(2), "capped far out");
    }

    #[test]
    fn worker_timeout_parsing() {
        // from_env reads the live environment; exercise the parse core
        // via a scoped set/remove. Serialized by cargo's per-test
        // process isolation not being guaranteed, we use a unique var
        // pattern: just test parse paths through the public fn with
        // the var unset (None) — the string forms are covered by
        // Shard::parse-style unit logic in worker_timeout_from_env
        // itself, exercised in the CLI smoke.
        std::env::remove_var(WORKER_TIMEOUT_ENV);
        assert_eq!(worker_timeout_from_env(), None);
    }

    #[test]
    fn heartbeat_touches_and_stops() {
        let dir = std::env::temp_dir().join(format!("tlat-hb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let hb = start_heartbeat(&dir, 3, Duration::from_millis(5));
        let path = heartbeat_path(&dir, 3);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !path.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(path.exists(), "heartbeat file must appear");
        drop(hb);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
