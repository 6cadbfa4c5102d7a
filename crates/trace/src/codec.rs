//! Trace serialization: the TLA3 packet format on disk, a text form
//! for people and other tools, and the atomic file write the disk
//! cache stores through.
//!
//! Trace generation (running the ISA interpreter over a workload) is much
//! more expensive than prediction, so the experiment harness caches traces
//! on disk between runs. TLA3 ([`crate::packet`]) is the only binary
//! format: [`encode_v3`], [`decode`] and [`decode_compiled`] are that
//! module's functions under the names the rest of the workspace calls.
//! Bytes that do not start with the TLA3 magic, older record-format
//! files included, fail with [`DecodeError::BadMagic`].
//!
//! # Examples
//!
//! ```
//! use tlat_trace::{codec, BranchRecord, Trace};
//!
//! let mut t = Trace::new();
//! t.push(BranchRecord::conditional(0x40, 0x10, true));
//! let bytes = codec::encode_v3(&t);
//! let back = codec::decode(&bytes)?;
//! assert_eq!(t, back);
//! # Ok::<(), codec::DecodeError>(())
//! ```

use crate::branch::{BranchRecord, InstClass};
use crate::stats::InstMix;
use crate::trace::Trace;
use std::error::Error;
use std::fmt;

pub use crate::packet::{decode, decode_compiled, encode as encode_v3};

/// Error returned when decoding a serialized trace fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input does not start with the TLA3 magic bytes.
    BadMagic,
    /// The input ended before the declared number of records.
    Truncated,
    /// A packet or text line was malformed.
    BadRecord {
        /// Index of the malformed record.
        index: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "input is not a TLA3 trace (bad magic)"),
            DecodeError::Truncated => write!(f, "serialized trace is truncated"),
            DecodeError::BadRecord { index } => {
                write!(f, "malformed branch record at index {index}")
            }
        }
    }
}

impl Error for DecodeError {}

// ---------------------------------------------------------------------
// Atomic file write
// ---------------------------------------------------------------------

/// Temporary-file name for an atomic write of `path`: unique per
/// process (pid) *and* per call (a process-wide counter), so two
/// threads writing the same path never clobber each other's
/// temporary file mid-write.
fn tmp_path(path: &std::path::Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::path::PathBuf::from(tmp)
}

/// Writes `bytes` to `path` via a same-directory temporary file and a
/// rename, so concurrent readers never observe a half-written file
/// (they see either the old file or the new one).
///
/// The temporary file is fsynced before the rename: without it, a
/// crash shortly after the rename can leave the *new name* pointing at
/// not-yet-flushed (empty or partial) data, which is exactly the
/// torn-file state the rename was meant to rule out. The containing
/// directory is synced best-effort afterwards so the rename itself is
/// durable too.
///
/// # Errors
///
/// Propagates any I/O error; the temporary file is removed on failure.
pub fn write_bytes_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = tmp_path(path);
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    // Durability of the rename: sync the directory entry. Failure here
    // (exotic filesystems) degrades durability, not atomicity.
    if let Some(dir) = path.parent() {
        if let Ok(dir) = std::fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_error_display() {
        // BadMagic names the one binary format that is read, so an old
        // record-format dump handed to `tlat simulate` explains itself.
        assert!(DecodeError::BadMagic.to_string().contains("TLA3"));
        assert!(DecodeError::BadRecord { index: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn tmp_names_are_unique_within_a_process() {
        // Regression: the temp file used to be named `.tmp<pid>` only,
        // so two threads writing the same path clobbered each other's
        // half-written file. The suffix now carries a per-process
        // counter as well.
        let path = std::path::Path::new("/x/y/trace.tlat");
        let a = tmp_path(path);
        let b = tmp_path(path);
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with(&format!("trace.tlat.tmp{}.", std::process::id())),
            "{name}"
        );
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear_the_file() {
        let dir = std::env::temp_dir().join(format!("tlat-codec-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.tlat");
        let traces: Vec<Trace> = (0..4)
            .map(|i| {
                (0..50 + i * 10)
                    .map(|j| BranchRecord::conditional(0x1000 + j * 4, 0x800, j % 2 == 0))
                    .collect()
            })
            .collect();
        std::thread::scope(|s| {
            for t in &traces {
                s.spawn(|| {
                    let bytes = encode_v3(t);
                    for _ in 0..20 {
                        write_bytes_atomic(&path, &bytes).unwrap();
                    }
                });
            }
        });
        // Whichever write landed last, the file is a complete valid
        // trace equal to one of the writers' payloads.
        let back = decode(&std::fs::read(&path).unwrap()).unwrap();
        assert!(traces.contains(&back));
        // No temporary files were left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------

/// Serializes a trace to a human-readable text format: a header line,
/// `!mix` counter lines, then one line per branch —
/// `<kind> <pc-hex> <target-hex> [gap]` with kinds `cond+`, `cond-`,
/// `ret`, `imm`, `imm-call`, `reg`, `reg-call`; the optional decimal
/// `gap` is the count of non-branch instructions preceding the branch.
///
/// # Examples
///
/// ```
/// use tlat_trace::{codec, BranchRecord, Trace};
///
/// let mut t = Trace::new();
/// t.push(BranchRecord::conditional(0x40, 0x10, true));
/// let text = codec::encode_text(&t);
/// assert!(text.contains("cond+ 40 10 0"));
/// assert_eq!(codec::decode_text(&text)?, t);
/// # Ok::<(), codec::DecodeError>(())
/// ```
pub fn encode_text(trace: &Trace) -> String {
    use crate::branch::BranchClass;
    use std::fmt::Write;
    let mut out = String::with_capacity(16 + trace.len() * 16);
    out.push_str("# tlat trace v1\n");
    for class in InstClass::ALL {
        let _ = writeln!(
            out,
            "!mix {} {}",
            class.label(),
            trace.inst_mix().get(class)
        );
    }
    for (b, &gap) in trace.iter().zip(trace.gaps()) {
        let kind = match (b.class, b.taken, b.call) {
            (BranchClass::Conditional, true, _) => "cond+",
            (BranchClass::Conditional, false, _) => "cond-",
            (BranchClass::Return, ..) => "ret",
            (BranchClass::ImmediateUnconditional, _, false) => "imm",
            (BranchClass::ImmediateUnconditional, _, true) => "imm-call",
            (BranchClass::RegisterUnconditional, _, false) => "reg",
            (BranchClass::RegisterUnconditional, _, true) => "reg-call",
        };
        let _ = writeln!(out, "{kind} {:x} {:x} {gap}", b.pc, b.target);
    }
    out
}

/// Parses the text trace format produced by [`encode_text`].
///
/// # Errors
///
/// Returns [`DecodeError::BadRecord`] (with the offending record's
/// index counted over branch lines) for unknown kinds or malformed
/// fields; `!mix` lines with unknown class labels are ignored.
pub fn decode_text(text: &str) -> Result<Trace, DecodeError> {
    use crate::branch::BranchClass;
    let mut trace = Trace::new();
    let mut mix = InstMix::default();
    let mut gaps: Vec<u32> = Vec::new();
    let mut index = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("!mix ") {
            let mut parts = rest.split_whitespace();
            let (label, value) = (parts.next(), parts.next());
            if let (Some(label), Some(value)) = (label, value) {
                if let Ok(value) = value.parse::<u64>() {
                    for class in InstClass::ALL {
                        if class.label() == label {
                            mix.set_raw(class, value);
                        }
                    }
                }
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = || DecodeError::BadRecord { index };
        let kind = parts.next().ok_or_else(bad)?;
        let pc = u32::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let target = u32::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let gap = match parts.next() {
            Some(g) => g.parse::<u32>().map_err(|_| bad())?,
            None => 0,
        };
        let (class, taken, call) = match kind {
            "cond+" => (BranchClass::Conditional, true, false),
            "cond-" => (BranchClass::Conditional, false, false),
            "ret" => (BranchClass::Return, true, false),
            "imm" => (BranchClass::ImmediateUnconditional, true, false),
            "imm-call" => (BranchClass::ImmediateUnconditional, true, true),
            "reg" => (BranchClass::RegisterUnconditional, true, false),
            "reg-call" => (BranchClass::RegisterUnconditional, true, true),
            _ => return Err(bad()),
        };
        gaps.push(gap);
        trace.push(BranchRecord {
            pc,
            target,
            class,
            taken,
            call,
        });
        index += 1;
    }
    // As in the binary decoder: restore the serialized mix if any !mix
    // lines were present (a text trace without them keeps the
    // branch-only counters from the pushes).
    if mix.total() > 0 {
        trace.set_mix(mix);
    }
    trace.set_gaps(gaps);
    Ok(trace)
}

#[cfg(test)]
mod text_tests {
    use super::*;
    use crate::branch::BranchRecord;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x1000, 0x0f00, true));
        t.push(BranchRecord::conditional(0x1004, 0x2000, false));
        t.push(BranchRecord::subroutine_return(0x1008, 0x3000));
        t.push(BranchRecord::call_imm(0x100c, 0x1000));
        t.push(BranchRecord::call_reg(0x1010, 0x4000));
        t.push(BranchRecord::unconditional_imm(0x1014, 0x1000));
        t.push(BranchRecord::unconditional_reg(0x1018, 0x4000));
        t.count_instruction(InstClass::FpAlu);
        t
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let t = sample();
        let text = encode_text(&t);
        let back = decode_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_and_binary_agree() {
        let t = sample();
        let via_text = decode_text(&encode_text(&t)).unwrap();
        let via_binary = decode(&encode_v3(&t)).unwrap();
        assert_eq!(via_text, via_binary);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err = decode_text("zigzag 10 20\n").unwrap_err();
        assert_eq!(err, DecodeError::BadRecord { index: 0 });
    }

    #[test]
    fn malformed_hex_is_an_error() {
        let err = decode_text("cond+ 10 zz\n").unwrap_err();
        assert_eq!(err, DecodeError::BadRecord { index: 0 });
        let err = decode_text("cond+ 10\n").unwrap_err();
        assert_eq!(err, DecodeError::BadRecord { index: 0 });
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = decode_text("# hello\n\ncond+ 10 20\n").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.branches()[0].taken);
    }

    #[test]
    fn error_index_counts_branch_lines() {
        let err = decode_text("cond+ 10 20\ncond- 14 20\nbroken 1 2\n").unwrap_err();
        assert_eq!(err, DecodeError::BadRecord { index: 2 });
    }
}
