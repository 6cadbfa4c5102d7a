//! Trace-driven simulation harness for the Two-Level Adaptive Training
//! reproduction.
//!
//! This crate ties the predictors (`tlat-core`) to the workloads
//! (`tlat-workloads`) and reproduces every table and figure of the
//! paper's evaluation:
//!
//! * [`simulate`] — drive one predictor over one trace, collecting
//!   conditional-branch accuracy and return-address-stack statistics.
//! * [`SchemeConfig`] / [`table2`] — the paper's Table 2 configuration
//!   registry, in its naming convention.
//! * [`Harness`] — one method per table/figure: [`Harness::table1`],
//!   [`Harness::figure3`] … [`Harness::figure10`], each returning a
//!   [`Report`] whose rows mirror the published series.
//!
//! Sweeps execute through a three-layer performance architecture —
//! the single-pass [`gang`] engine (one trace walk feeds every
//! configuration), the bounded [`pool`] worker pool (`TLAT_THREADS`),
//! and the persistent [`diskcache`] trace cache (`TLAT_TRACE_CACHE`) —
//! all behaviour-transparent: reports stay byte-identical to the
//! sequential reference path.
//!
//! On top of that sits a resilience layer: typed errors ([`SimError`])
//! instead of panics on I/O/codec/config failures, panic isolation for
//! sweep cells (a failed cell renders as `✗` while the sweep
//! completes), deterministic fault injection ([`faults`],
//! `TLAT_FAULTS`) exercising every recovery path, and crash-safe sweep
//! checkpoint/resume ([`journal`], `TLAT_RESUME` / `tlat --resume`).
//!
//! The journal is also the substrate for multi-process sweeps
//! ([`supervisor`]): `tlat sweep --shard i/N` restricts a process to a
//! deterministic slice of cells, and `tlat sweep --workers N` spawns
//! and babysits one worker per shard — crash-restart with capped
//! backoff and strike limits, heartbeat liveness, graceful degradation
//! — then renders the report from the landed journal, byte-identical
//! to an uninterrupted single-process run.
//!
//! Everything above is observable through the [`metrics`] telemetry
//! layer (`TLAT_METRICS` / `tlat --metrics <path>`): default-off
//! atomic counters and wall-clock phase spans over every hot path,
//! emitted as schema-stable JSONL (see `OBSERVABILITY.md`) and
//! rendered/validated by `tlat stats`.
//!
//! Finally, [`serve`] wires the whole stack behind a socket:
//! `tlat serve` is a zero-dependency HTTP/1.1 sweep server sharing one
//! [`TraceStore`] across all clients, coalescing identical concurrent
//! sweep requests by journal fingerprint, and answering with bytes
//! identical to the batch CLI (wire protocol in `SERVING.md`).
//!
//! # Examples
//!
//! ```no_run
//! use tlat_sim::Harness;
//!
//! let harness = Harness::new(100_000);
//! println!("{}", harness.figure10());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cost;
mod delayed;
mod diagnostics;
mod engine;
mod error;
mod experiment;
mod fetch;
mod report;
mod stats;
mod timing;
mod traces;

pub mod diskcache;
pub mod faults;
pub mod gang;
pub mod journal;
pub mod metrics;
pub mod pool;
pub mod serve;
pub mod supervisor;

pub use config::{table2, taxonomy, SchemeConfig, TrainingData};
pub use cost::PipelineModel;
pub use delayed::{simulate_delayed, DelayOptions, DelayStats, DelayedResult};
pub use diagnostics::{per_site, windowed_accuracy, worst_sites_report, SiteStats};
pub use diskcache::{DiskCache, TraceKey};
pub use engine::{simulate, simulate_with, SimOptions};
pub use error::SimError;
pub use experiment::{sweep_spec, sweep_specs, Harness, SweepSpec};
pub use faults::Faults;
pub use fetch::{simulate_fetch, FetchOptions, FetchResult};
pub use gang::{gang_simulate_compiled, gang_simulate_isolated_compiled, GangLane};
pub use journal::SweepJournal;
pub use pool::{run_isolated, threads_from_env, CellPanic};
pub use report::{Cell, Report, ReportRow};
pub use serve::Server;
pub use stats::{PredictionStats, SimResult};
pub use supervisor::{run_supervised, Shard, ShardOutcome, SupervisorOptions};
pub use timing::{simulate_timing, TimingModel, TimingResult};
pub use traces::{branch_limit_from_env, TraceStore, DEFAULT_BRANCH_LIMIT};
