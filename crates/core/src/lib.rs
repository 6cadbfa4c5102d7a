//! Branch predictors from Yeh & Patt, *Two-Level Adaptive Training
//! Branch Prediction* (MICRO-24, 1991).
//!
//! This crate implements the paper's contribution and every scheme it
//! compares against, behind one [`Predictor`] trait:
//!
//! | Scheme | Type | Paper section |
//! |---|---|---|
//! | Two-Level Adaptive Training (`AT`) | [`TwoLevelAdaptive`] | §2–3 |
//! | Static Training (`ST`) | [`StaticTraining`] | §5.2 |
//! | Lee & Smith BTB (`LS`) | [`LeeSmithBtb`] | §5.3 |
//! | Profiling | [`ProfilePredictor`] | §5.3 |
//! | Backward-Taken/Forward-Not-taken | [`Btfn`] | §5.3 |
//! | Always Taken / Always Not Taken | [`AlwaysTaken`], [`AlwaysNotTaken`] | §1 |
//!
//! The building blocks are public too: the pattern-history
//! [`Automaton`]s of Figure 2 (Last-Time, A1–A4), k-bit
//! [`HistoryRegister`]s, the global [`PatternTable`], and the three
//! history-register-table organizations of §3.1 ([`Ihrt`], [`Ahrt`],
//! [`Hhrt`]).
//!
//! # Examples
//!
//! ```
//! use tlat_core::{Predictor, TwoLevelAdaptive, TwoLevelConfig};
//! use tlat_trace::BranchRecord;
//!
//! // The paper's headline configuration.
//! let mut at = TwoLevelAdaptive::new(TwoLevelConfig::paper_default());
//!
//! // An 8-iteration loop branch: taken 7 times, then exits.
//! let mut correct = 0u32;
//! let mut total = 0u32;
//! for _ in 0..100 {
//!     for i in 0..8 {
//!         let b = BranchRecord::conditional(0x1000, 0x0f00, i != 7);
//!         correct += (at.predict(&b) == b.taken) as u32;
//!         at.update(&b);
//!         total += 1;
//!     }
//! }
//! // The loop-exit position is encoded in the history pattern, so the
//! // two-level scheme predicts even the exit correctly after warmup.
//! assert!(correct as f64 / total as f64 > 0.97);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod btb;
mod history;
mod hrt;
mod hybrid;
mod lee_smith;
mod pattern;
mod predictor;
mod simple;
mod static_training;
mod two_level;
mod variants;
mod walk;

pub use automaton::{AnyAutomaton, Automaton, AutomatonKind, CodeTables, LastTime, A1, A2, A3, A4};
pub use btb::TargetBuffer;
pub use history::{HistoryRegister, MAX_HISTORY_BITS};
pub use hrt::{
    Ahrt, AnyHrt, Hhrt, HistoryTable, HrtConfig, HrtStats, Ihrt, Probe, ProbeOutcome, SiteKeys,
    SiteResolver, SlotProbe,
};
pub use hybrid::{Gshare, GshareConfig, Tournament};
pub use lee_smith::{LeeSmithBtb, LeeSmithConfig, LeeSmithMember};
pub use pattern::PatternTable;
pub use predictor::Predictor;
pub use simple::{AlwaysNotTaken, AlwaysTaken, Btfn, ProfilePredictor};
pub use static_training::{
    StaticTraining, StaticTrainingConfig, StaticTrainingMember, TrainingProfile,
};
pub use two_level::{TwoLevelAdaptive, TwoLevelConfig, TwoLevelMember};
pub use variants::{HistoryScope, PatternMember, PatternScope, TwoLevelVariant, VariantConfig};
pub use walk::{Member, Walk};
