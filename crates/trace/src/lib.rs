//! Branch and instruction trace model for the Two-Level Adaptive Training
//! branch-prediction study (Yeh & Patt, MICRO-24, 1991).
//!
//! The paper drives its predictors with instruction traces produced by a
//! Motorola 88100 instruction-level simulator. This crate defines the
//! trace vocabulary that the rest of the workspace shares:
//!
//! * [`BranchClass`] — the four branch classes of §4 of the paper
//!   (conditional, subroutine return, immediate unconditional, and
//!   unconditional on a register), plus the non-branch instruction
//!   categories used for the dynamic-mix figures.
//! * [`BranchRecord`] — one executed branch: program counter, target,
//!   class and outcome.
//! * [`Trace`] — an in-memory trace: the branch stream plus dynamic
//!   instruction-mix counters.
//! * [`TraceStats`] — derived statistics (static/dynamic branch counts,
//!   class distribution, taken rate) backing Table 1 and Figures 3–4.
//! * [`ReturnAddressStack`] — the return-address predictor the paper uses
//!   for subroutine-return branches.
//! * [`CompiledTrace`] — a trace pre-digested for gang walks: interned
//!   conditional-branch sites ([`SiteId`]), SoA outcome stream, and RAS
//!   events.
//! * [`codec`] — trace serialization: the TLA3 entry points, the text
//!   format, and the atomic file write.
//! * [`packet`] — the TLA3 packet format: site-dictionary compression
//!   with branch-map outcome words and streaming decode straight into
//!   [`CompiledTrace`].
//! * [`cursor`] — the std-only byte cursor behind the codec.
//! * [`json`] — the hand-rolled JSON writer ([`json::JsonObject`])
//!   behind the workspace's telemetry, serve and bench lines, and its
//!   one JSON reader (the repo's zero-dependency replacement for
//!   serde).
//!
//! # Examples
//!
//! ```
//! use tlat_trace::{BranchClass, BranchRecord, Trace};
//!
//! let mut trace = Trace::new();
//! trace.push(BranchRecord::conditional(0x1000, 0x0f00, true));
//! trace.push(BranchRecord::conditional(0x1000, 0x0f00, false));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.stats().static_conditional_branches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
pub mod codec;
mod compiled;
pub mod cursor;
pub mod json;
pub mod packet;
mod ras;
mod sink;
mod stats;
mod trace;

pub use branch::{BranchClass, BranchRecord, InstClass};
pub use compiled::{CompiledTrace, PackedBits, RasEvent, SiteId, LONG_RUN_FLOOR};
pub use ras::{RasStats, ReturnAddressStack};
pub use sink::{CountingSink, LimitSink, TraceSink};
pub use stats::{geometric_mean, ClassDistribution, InstMix, TraceStats};
pub use trace::Trace;
