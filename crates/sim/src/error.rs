//! Structured errors for the simulation harness.
//!
//! The harness used to be fail-fast: any I/O hiccup, corrupt cache
//! entry, or misbehaving workload panicked and killed the whole sweep,
//! losing every completed cell. [`SimError`] is the typed alternative
//! threaded through the trace store, disk cache, sweep journal, and
//! experiment drivers: each failure carries enough context (which
//! workload, which file, what operation) for the caller to decide
//! whether to retry, degrade, or surface the error — see the
//! "Failure model & recovery" section of DESIGN.md for the policy.

use std::fmt;
use std::path::PathBuf;

/// A typed, contextual harness failure.
#[derive(Debug)]
pub enum SimError {
    /// An I/O operation failed. `context` names the operation and its
    /// target (e.g. `"writing sweep journal cell target/…/c0-w3.cell"`).
    Io {
        /// What was being attempted when the error fired.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A file existed but its contents failed to decode (truncation,
    /// wrong magic, malformed record).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Decoder detail (from the codec's error display).
        detail: String,
    },
    /// A workload program faulted while being traced. These are
    /// workload bugs, but isolating them lets the rest of a sweep
    /// finish instead of dying with it.
    Workload {
        /// The workload's registry name.
        workload: String,
        /// The interpreter fault description.
        detail: String,
    },
    /// A sweep cell's task panicked; the panic was caught at the cell
    /// boundary and the payload preserved here.
    Panicked {
        /// Which cell (scheme label / workload) the panic escaped from.
        cell: String,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl SimError {
    /// Convenience constructor for [`SimError::Io`].
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        SimError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for [`SimError::Workload`].
    pub fn workload(workload: impl Into<String>, detail: impl fmt::Display) -> Self {
        SimError::Workload {
            workload: workload.into(),
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Io { context, source } => write!(f, "I/O error {context}: {source}"),
            SimError::Corrupt { path, detail } => {
                write!(f, "corrupt file {}: {detail}", path.display())
            }
            SimError::Workload { workload, detail } => {
                write!(f, "workload {workload} faulted: {detail}")
            }
            SimError::Panicked { cell, message } => {
                write!(f, "cell {cell} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Locks a mutex, recovering the guard even if a previous holder
/// panicked (cell panics are caught at the cell boundary, so a
/// poisoned lock only means an interrupted — never a torn — update;
/// every protected structure here is a memo cache whose entries are
/// inserted atomically).
pub(crate) fn lock_unpoisoned<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SimError::io(
            "reading cache entry x.tlat",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        let text = e.to_string();
        assert!(text.contains("reading cache entry x.tlat"));
        assert!(text.contains("denied"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn lock_survives_poisoning() {
        let m = std::sync::Mutex::new(7);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert_eq!(*lock_unpoisoned(&m), 7);
    }
}
