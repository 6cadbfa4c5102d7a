//! Crash-safe sweep checkpoint/resume.
//!
//! A paper-scale sweep (many configurations × nine workloads, long
//! trace budgets) used to be all-or-nothing: killing the process lost
//! every completed cell. The sweep journal checkpoints each completed
//! cell to its own tiny file — written atomically (tmp + rename +
//! fsync, like the trace cache) so a crash can never tear a record —
//! and a later run of the *same* sweep replays the journal and
//! recomputes only the missing cells.
//!
//! The journal directory is fingerprint-keyed over everything that
//! determines a cell's value: the sweep title, every configuration
//! label, every workload name, the branch budget, and
//! [`tlat_workloads::CODEGEN_VERSION`]. Any change lands in a fresh
//! directory, so a resumed sweep can never mix results from a
//! different experiment — stale journals are orphaned, never read.
//!
//! Values are journaled as exact IEEE-754 bit patterns, so a resumed
//! report is byte-identical to the uninterrupted one. Failed cells are
//! deliberately *not* journaled: resuming retries them.
//!
//! Every record carries a trailing FNV-1a checksum of its payload. A
//! record that fails the checksum — torn by a crash the rename did not
//! protect against (e.g. a dying filesystem), or corrupted at rest —
//! is *evicted* on replay (the file is removed and
//! [`Counter::JournalEvictions`] bumped) so the cell is recomputed
//! instead of poisoning the report or wedging a supervised sweep's
//! completeness check.
//!
//! The journal is also the substrate for multi-process sweeps
//! ([`crate::supervisor`]): shard workers land disjoint slices of
//! cells into the same directory (each write is atomic and
//! cell-keyed, so concurrent writers never conflict), and the
//! supervisor renders the final report from the fully-landed journal.
//!
//! Resume is off by default; the CLI's `--resume` flag (or
//! `TLAT_RESUME=1`) turns it on, rooted under the trace-cache
//! directory. [`gc`] collects orphaned journal directories whose
//! fingerprint no longer corresponds to any requested sweep, behind an
//! age guard so a concurrently running sweep is never collected.

use crate::diskcache::Fnv;
use crate::error::SimError;
use crate::metrics::{self, Counter, Phase};
use crate::report::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Environment variable enabling sweep checkpoint/resume (`1`/`on`;
/// unset, empty, `0`, or `off` disables).
pub const RESUME_ENV: &str = "TLAT_RESUME";

/// Whether `TLAT_RESUME` asks for checkpoint/resume.
pub fn resume_from_env() -> bool {
    match std::env::var(RESUME_ENV) {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "off"),
        Err(_) => false,
    }
}

/// A directory of per-cell checkpoint records for one specific sweep.
#[derive(Debug, Clone)]
pub struct SweepJournal {
    dir: PathBuf,
    fingerprint: u64,
}

impl SweepJournal {
    /// Opens (without yet creating) the journal for a sweep identified
    /// by its title, configuration labels, workload names, and branch
    /// budget, rooted under `root` (typically
    /// `<trace-cache>/sweeps/`).
    pub fn open(
        root: impl Into<PathBuf>,
        title: &str,
        config_labels: &[String],
        workloads: &[&str],
        budget: u64,
    ) -> Self {
        let mut fnv = Fnv::new();
        fnv.eat(title.as_bytes());
        for label in config_labels {
            fnv.eat(label.as_bytes());
        }
        for w in workloads {
            fnv.eat(w.as_bytes());
        }
        fnv.eat(&budget.to_le_bytes());
        fnv.eat(&tlat_workloads::CODEGEN_VERSION.to_le_bytes());
        let fingerprint = fnv.finish();
        SweepJournal {
            dir: root.into().join(format!("sweep-{fingerprint:016x}")),
            fingerprint,
        }
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sweep fingerprint the directory is keyed on. Shard
    /// assignment ([`crate::supervisor::shard_of`]) mixes this in so
    /// different sweeps slice their cells differently.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn cell_path(&self, ci: usize, wi: usize) -> PathBuf {
        self.dir.join(format!("c{ci}-w{wi}.cell"))
    }

    /// Replays every journaled cell: `(config index, workload index) →
    /// cell`. A missing journal directory is an empty journal. A
    /// record whose trailing checksum does not verify — torn, bit-rot,
    /// or unreadable — is *evicted*: the file is removed (best-effort),
    /// [`Counter::JournalEvictions`] is bumped, and the cell is simply
    /// recomputed.
    pub fn load(&self) -> HashMap<(usize, usize), Cell> {
        let _span = metrics::span(Phase::JournalReplay);
        let mut cells = HashMap::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return cells, // no journal yet: nothing to replay
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let Some(key) = parse_cell_name(&name.to_string_lossy()) else {
                continue; // foreign file (e.g. a leftover .tmp)
            };
            match std::fs::read_to_string(&path) {
                Ok(body) => match parse_cell_body(body.trim()) {
                    Some(cell) => {
                        cells.insert(key, cell);
                    }
                    None => self.evict(&path, "failed its checksum"),
                },
                Err(e) => self.evict(&path, &format!("is unreadable ({e})")),
            }
        }
        cells
    }

    /// The `(config index, workload index)` keys of every record
    /// currently on disk — names only, bodies unread and unverified.
    /// The supervisor polls this as its cheap progress probe; the
    /// authoritative checksummed read stays [`load`](Self::load).
    pub fn keys(&self) -> Vec<(usize, usize)> {
        let mut keys = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(key) = parse_cell_name(&entry.file_name().to_string_lossy()) {
                    keys.push(key);
                }
            }
        }
        keys
    }

    /// Drops a record that cannot be trusted so the cell is recomputed
    /// rather than served corrupt — and so a supervised sweep's
    /// completeness check never counts it as landed.
    fn evict(&self, path: &Path, why: &str) {
        metrics::bump(Counter::JournalEvictions);
        let _ = std::fs::remove_file(path);
        eprintln!(
            "warning: journal cell {} {why}; evicted, recomputing the cell",
            path.display()
        );
    }

    /// Journals one completed cell, atomically and durably, with a
    /// trailing FNV-1a checksum over the payload. Failed cells are
    /// skipped (resume retries them). Best-effort: an unwritable
    /// journal degrades to no checkpointing, with a warning — it never
    /// fails the sweep.
    pub fn record(&self, ci: usize, wi: usize, cell: &Cell) {
        let payload = match cell {
            Cell::Value(v) => format!("v {:016x}", v.to_bits()),
            Cell::Blank => "na".to_owned(),
            Cell::Failed(_) => return,
        };
        let body = format!("{payload} {:016x}\n", checksum(&payload));
        if let Err(e) = self.write_atomic(&self.cell_path(ci, wi), body.as_bytes()) {
            eprintln!("warning: {e}; sweep will not be resumable from this cell");
        } else {
            metrics::bump(Counter::JournalRecords);
        }
    }

    /// tmp + rename + fsync, mirroring the trace cache's durability
    /// discipline.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), SimError> {
        let context = || format!("writing journal cell {}", path.display());
        std::fs::create_dir_all(&self.dir).map_err(|e| SimError::io(context(), e))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        write()
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })
            .map_err(|e| SimError::io(context(), e))?;
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

fn parse_cell_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix('c')?.strip_suffix(".cell")?;
    let (ci, wi) = rest.split_once("-w")?;
    Some((ci.parse().ok()?, wi.parse().ok()?))
}

/// FNV-1a over a record payload, for the trailing checksum.
fn checksum(payload: &str) -> u64 {
    let mut fnv = Fnv::new();
    fnv.eat(payload.as_bytes());
    fnv.finish()
}

fn parse_cell_body(body: &str) -> Option<Cell> {
    let (payload, sum) = body.rsplit_once(' ')?;
    if u64::from_str_radix(sum, 16).ok()? != checksum(payload) {
        return None;
    }
    if payload == "na" {
        return Some(Cell::Blank);
    }
    let bits = payload.strip_prefix("v ")?;
    Some(Cell::Value(f64::from_bits(
        u64::from_str_radix(bits, 16).ok()?,
    )))
}

/// How [`gc`] disposed of the journal root's `sweep-*` directories.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Stale directories removed.
    pub removed: usize,
    /// Directories kept: live, or younger than the age guard.
    pub kept: usize,
    /// Bytes reclaimed by the removals (cell-file sizes).
    pub bytes: u64,
}

/// Removes orphaned `sweep-*` journal directories under `root` that
/// are not in `live` (the journals of every currently requested
/// sweep) and whose newest mtime — directory or any entry — is at
/// least `min_age` old. The age guard means a sweep running
/// concurrently under a fingerprint we don't know about is never
/// collected: its cells land continuously, keeping it young.
pub fn gc(root: &Path, live: &[PathBuf], min_age: Duration) -> GcStats {
    let mut stats = GcStats::default();
    let Ok(entries) = std::fs::read_dir(root) else {
        return stats; // no journal root: nothing to collect
    };
    let now = SystemTime::now();
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_dir() || !entry.file_name().to_string_lossy().starts_with("sweep-") {
            continue;
        }
        if live.contains(&path) {
            stats.kept += 1;
            continue;
        }
        let (newest, bytes) = dir_newest_and_bytes(&path);
        let old_enough = newest
            .and_then(|t| now.duration_since(t).ok())
            .is_some_and(|age| age >= min_age);
        if !old_enough {
            stats.kept += 1;
            continue;
        }
        match std::fs::remove_dir_all(&path) {
            Ok(()) => {
                stats.removed += 1;
                stats.bytes += bytes;
            }
            Err(e) => eprintln!(
                "warning: could not remove stale journal {}: {e}",
                path.display()
            ),
        }
    }
    stats
}

/// Newest mtime across a directory and its direct entries, plus the
/// total size of those entries. `None` when nothing has a readable
/// mtime (then the age guard keeps the directory — the safe side).
fn dir_newest_and_bytes(dir: &Path) -> (Option<SystemTime>, u64) {
    let mut newest = std::fs::metadata(dir).ok().and_then(|m| m.modified().ok());
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            bytes += meta.len();
            if let Ok(t) = meta.modified() {
                if newest.map_or(true, |n| t > n) {
                    newest = Some(t);
                }
            }
        }
    }
    (newest, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlat-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journal(root: &Path) -> SweepJournal {
        SweepJournal::open(
            root,
            "fig10",
            &["AT".to_owned(), "ST".to_owned()],
            &["gcc", "li"],
            10_000,
        )
    }

    #[test]
    fn roundtrip_preserves_exact_bits_and_blanks() {
        let root = scratch_dir("roundtrip");
        let j = journal(&root);
        assert!(j.load().is_empty(), "fresh journal must be empty");
        // A value chosen so decimal formatting would lose bits.
        let v = 0.123_456_789_012_345_67_f64 + f64::EPSILON;
        j.record(0, 1, &Cell::Value(v));
        j.record(1, 0, &Cell::Blank);
        j.record(1, 1, &Cell::Failed("boom".to_owned())); // must be skipped
        let cells = j.load();
        assert_eq!(cells.len(), 2);
        match cells[&(0, 1)] {
            Cell::Value(got) => assert_eq!(got.to_bits(), v.to_bits(), "bit-exact replay"),
            ref other => panic!("expected value, got {other:?}"),
        }
        assert_eq!(cells[&(1, 0)], Cell::Blank);
        assert!(
            !cells.contains_key(&(1, 1)),
            "failed cells are not journaled"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_separates_sweeps() {
        let root = scratch_dir("fp");
        let a = journal(&root);
        let other_title = SweepJournal::open(&root, "fig9", &["AT".to_owned()], &["gcc"], 10_000);
        let other_budget = SweepJournal::open(
            &root,
            "fig10",
            &["AT".to_owned(), "ST".to_owned()],
            &["gcc", "li"],
            20_000,
        );
        assert_ne!(a.dir(), other_title.dir());
        assert_ne!(a.dir(), other_budget.dir());
        // Same identity → same directory.
        assert_eq!(a.dir(), journal(&root).dir());
    }

    #[test]
    fn corrupt_records_are_evicted_not_served() {
        let root = scratch_dir("corrupt");
        let j = journal(&root);
        j.record(0, 0, &Cell::Value(0.5));
        j.record(0, 1, &Cell::Value(0.25));
        let corrupt = j.dir().join("c0-w0.cell");
        std::fs::write(&corrupt, b"v zzzz").unwrap();
        std::fs::write(j.dir().join("unrelated.txt"), b"ignore me").unwrap();
        let cells = j.load();
        assert!(
            !cells.contains_key(&(0, 0)),
            "corrupt record must be dropped"
        );
        assert_eq!(cells[&(0, 1)], Cell::Value(0.25));
        assert!(
            !corrupt.exists(),
            "corrupt record must be evicted from disk"
        );
        // Recompute + re-record heals the journal in place.
        j.record(0, 0, &Cell::Value(0.5));
        assert_eq!(j.load()[&(0, 0)], Cell::Value(0.5));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_records_fail_the_checksum() {
        let root = scratch_dir("torn");
        let j = journal(&root);
        let v = 0.75_f64;
        j.record(2, 3, &Cell::Value(v));
        let path = j.dir().join("c2-w3.cell");
        let good = std::fs::read_to_string(&path).unwrap();
        let (payload, sum) = good.trim().rsplit_once(' ').unwrap();
        assert_eq!(payload, format!("v {:016x}", v.to_bits()));
        assert_eq!(u64::from_str_radix(sum, 16).unwrap(), checksum(payload));

        // A payload flip that still parses as hex must be caught by the
        // checksum, not served as a wrong value.
        let flipped = good.replace(
            &format!("{:016x}", v.to_bits()),
            &format!("{:016x}", (0.5f64).to_bits()),
        );
        assert_ne!(flipped, good);
        std::fs::write(&path, flipped).unwrap();
        assert!(j.load().is_empty(), "bit-flipped record must be evicted");

        // A truncated (torn) record likewise.
        j.record(2, 3, &Cell::Value(v));
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &good.as_bytes()[..good.len() / 2]).unwrap();
        assert!(j.load().is_empty(), "torn record must be evicted");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pre_checksum_records_are_evicted() {
        // Records written before the checksum era have no trailing sum;
        // they must be recomputed, never trusted.
        let root = scratch_dir("legacy");
        let j = journal(&root);
        std::fs::create_dir_all(j.dir()).unwrap();
        std::fs::write(j.dir().join("c0-w0.cell"), b"v 3fe0000000000000\n").unwrap();
        std::fs::write(j.dir().join("c0-w1.cell"), b"na\n").unwrap();
        assert!(j.load().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_removes_stale_dirs_behind_age_and_live_guards() {
        let root = scratch_dir("gc");
        let live = journal(&root);
        live.record(0, 0, &Cell::Value(0.5));
        let stale = SweepJournal::open(&root, "old sweep", &[], &["gcc"], 1);
        stale.record(0, 0, &Cell::Value(0.25));
        std::fs::create_dir_all(root.join("not-a-sweep")).unwrap();

        // Everything is brand new: the age guard keeps it all.
        let stats = gc(&root, &[], Duration::from_secs(3600));
        assert_eq!(
            stats,
            GcStats {
                removed: 0,
                kept: 2,
                bytes: 0
            }
        );

        // Zero age guard: only the live journal survives.
        let stats = gc(&root, &[live.dir().to_path_buf()], Duration::ZERO);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.kept, 1);
        assert!(stats.bytes > 0, "reclaimed bytes are reported");
        assert!(!stale.dir().exists());
        assert!(live.dir().exists());
        assert!(
            root.join("not-a-sweep").exists(),
            "foreign dirs are never touched"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unwritable_root_degrades_without_failing() {
        let root = scratch_dir("unwritable");
        std::fs::create_dir_all(&root).unwrap();
        let blocked = root.join("blocked");
        std::fs::write(&blocked, b"a file, not a dir").unwrap();
        let j = SweepJournal::open(&blocked, "t", &[], &[], 1);
        j.record(0, 0, &Cell::Value(0.5)); // must warn, not panic
        assert!(j.load().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cell_names_parse() {
        assert_eq!(parse_cell_name("c3-w11.cell"), Some((3, 11)));
        assert_eq!(parse_cell_name("c3-w11.cell.tmp42"), None);
        assert_eq!(parse_cell_name("junk"), None);
    }
}
