//! The configuration registry (Table 2 of the paper).
//!
//! Every simulated predictor is described by a [`SchemeConfig`] using
//! the paper's naming convention
//! `Scheme(History(Size, Entry_Content), Pattern(Size, Entry_Content), Data)`,
//! and [`table2`] reproduces the paper's full configuration list.

use crate::gang::GangLane;
use tlat_core::{
    AutomatonKind, HrtConfig, LeeSmithConfig, Predictor, StaticTrainingConfig, TwoLevelAdaptive,
    TwoLevelConfig, VariantConfig,
};
use tlat_core::{Gshare, GshareConfig, Tournament};
use tlat_trace::Trace;

/// Which data set a trained scheme was trained on, relative to the
/// test run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingData {
    /// Trained on the same data set it is tested on (the scheme's best
    /// case).
    Same,
    /// Trained on the distinct training data set of Table 3.
    Diff,
}

impl TrainingData {
    /// The paper's label (`"Same"`/`"Diff"`).
    pub fn label(self) -> &'static str {
        match self {
            TrainingData::Same => "Same",
            TrainingData::Diff => "Diff",
        }
    }
}

/// A complete description of one simulated predictor.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeConfig {
    /// Two-Level Adaptive Training (`AT`).
    TwoLevel(TwoLevelConfig),
    /// Lee & Smith Static Training (`ST`).
    StaticTraining {
        /// History register length.
        history_bits: u8,
        /// History-register-table organization.
        hrt: HrtConfig,
        /// Same- or different-data training.
        data: TrainingData,
    },
    /// Lee & Smith Branch Target Buffer (`LS`).
    LeeSmith(LeeSmithConfig),
    /// A predictor from the two-level taxonomy (GAg/GAs/PAg/PAs) —
    /// extension beyond the paper.
    Variant(VariantConfig),
    /// gshare (global history XOR address) — extension beyond the
    /// paper.
    Gshare(GshareConfig),
    /// A tournament of the paper's AT scheme and gshare with a
    /// `chooser_entries` chooser — extension beyond the paper.
    Tournament {
        /// Chooser table entries (power of two).
        chooser_entries: usize,
    },
    /// Per-branch majority profiling (prediction bit in the opcode).
    Profile,
    /// Always taken.
    AlwaysTaken,
    /// Always not taken.
    AlwaysNotTaken,
    /// Backward taken, forward not taken.
    Btfn,
}

impl SchemeConfig {
    /// The paper-convention configuration string.
    pub fn label(&self) -> String {
        match self {
            SchemeConfig::TwoLevel(c) => c.label(),
            SchemeConfig::StaticTraining {
                history_bits,
                hrt,
                data,
            } => StaticTrainingConfig {
                history_bits: *history_bits,
                hrt: *hrt,
                data: data.label().to_owned(),
            }
            .label(),
            SchemeConfig::LeeSmith(c) => c.label(),
            SchemeConfig::Variant(c) => c.label(),
            SchemeConfig::Gshare(c) => format!("gshare({},{})", c.history_bits, c.automaton.name()),
            SchemeConfig::Tournament { chooser_entries } => {
                format!("tournament(AT|gshare,{chooser_entries}ch)")
            }
            SchemeConfig::Profile => "Profiling".to_owned(),
            SchemeConfig::AlwaysTaken => "Always Taken".to_owned(),
            SchemeConfig::AlwaysNotTaken => "Always Not Taken".to_owned(),
            SchemeConfig::Btfn => "BTFN".to_owned(),
        }
    }

    /// The scheme's family tag — the short prefix of the paper naming
    /// convention (`AT`, `ST`, `LS`, …). Telemetry groups per-cell
    /// outcome tallies by `(workload, family)` under this name, so it
    /// stays coarse where [`label`](Self::label) is exact.
    pub fn family(&self) -> &'static str {
        match self {
            SchemeConfig::TwoLevel(_) => "AT",
            SchemeConfig::StaticTraining { .. } => "ST",
            SchemeConfig::LeeSmith(_) => "LS",
            SchemeConfig::Variant(_) => "Variant",
            SchemeConfig::Gshare(_) => "gshare",
            SchemeConfig::Tournament { .. } => "tournament",
            SchemeConfig::Profile => "Profiling",
            SchemeConfig::AlwaysTaken => "AlwaysTaken",
            SchemeConfig::AlwaysNotTaken => "AlwaysNotTaken",
            SchemeConfig::Btfn => "BTFN",
        }
    }

    /// `true` when building the predictor requires a training trace
    /// (Static Training and the profiling scheme).
    pub fn needs_training(&self) -> bool {
        matches!(
            self,
            SchemeConfig::StaticTraining { .. } | SchemeConfig::Profile
        )
    }

    /// `true` when this scheme wants the Table 3 *training* data set
    /// rather than the test trace for its training pass.
    pub fn wants_diff_training(&self) -> bool {
        matches!(
            self,
            SchemeConfig::StaticTraining {
                data: TrainingData::Diff,
                ..
            }
        )
    }

    /// Builds the predictor: the scheme's [`GangLane`], as
    /// [`GangLane::from_config`] builds it.
    ///
    /// # Panics
    ///
    /// Panics if the scheme [`needs_training`](Self::needs_training) and
    /// `training` is `None`, or on invalid table geometry.
    pub fn build(&self, training: Option<&Trace>) -> Box<dyn Predictor> {
        Box::new(GangLane::from_config(self, training))
    }

    /// Convenience constructor for an `AT` configuration.
    pub fn at(hrt: HrtConfig, history_bits: u8, automaton: AutomatonKind) -> Self {
        SchemeConfig::TwoLevel(TwoLevelConfig {
            history_bits,
            automaton,
            hrt,
            ..TwoLevelConfig::paper_default()
        })
    }

    /// Convenience constructor for an `ST` configuration.
    pub fn st(hrt: HrtConfig, history_bits: u8, data: TrainingData) -> Self {
        SchemeConfig::StaticTraining {
            history_bits,
            hrt,
            data,
        }
    }

    /// Convenience constructor for an `LS` configuration.
    pub fn ls(hrt: HrtConfig, automaton: AutomatonKind) -> Self {
        SchemeConfig::LeeSmith(LeeSmithConfig { automaton, hrt })
    }
}

/// The [`SchemeConfig::Tournament`] predictor: the paper's headline
/// AT configuration against 12-bit gshare.
pub(crate) fn tournament(chooser_entries: usize) -> Tournament<TwoLevelAdaptive, Gshare> {
    Tournament::new(
        TwoLevelAdaptive::new(TwoLevelConfig::paper_default()),
        Gshare::new(GshareConfig::default_12bit()),
        chooser_entries,
    )
}

/// The paper's Table 2: every simulated configuration.
pub fn table2() -> Vec<SchemeConfig> {
    use AutomatonKind::{LastTime, A2, A3, A4};
    use TrainingData::{Diff, Same};
    vec![
        // Two-Level Adaptive Training.
        SchemeConfig::at(HrtConfig::ahrt(256), 12, A2),
        SchemeConfig::at(HrtConfig::ahrt(512), 12, A2),
        SchemeConfig::at(HrtConfig::ahrt(512), 12, A3),
        SchemeConfig::at(HrtConfig::ahrt(512), 12, A4),
        SchemeConfig::at(HrtConfig::ahrt(512), 12, LastTime),
        SchemeConfig::at(HrtConfig::ahrt(512), 10, A2),
        SchemeConfig::at(HrtConfig::ahrt(512), 8, A2),
        SchemeConfig::at(HrtConfig::ahrt(512), 6, A2),
        SchemeConfig::at(HrtConfig::hhrt(256), 12, A2),
        SchemeConfig::at(HrtConfig::hhrt(512), 12, A2),
        SchemeConfig::at(HrtConfig::Ideal, 12, A2),
        // Static Training.
        SchemeConfig::st(HrtConfig::ahrt(512), 12, Same),
        SchemeConfig::st(HrtConfig::hhrt(512), 12, Same),
        SchemeConfig::st(HrtConfig::Ideal, 12, Same),
        SchemeConfig::st(HrtConfig::ahrt(512), 12, Diff),
        SchemeConfig::st(HrtConfig::hhrt(512), 12, Diff),
        SchemeConfig::st(HrtConfig::Ideal, 12, Diff),
        // Lee & Smith BTB designs.
        SchemeConfig::ls(HrtConfig::ahrt(512), A2),
        SchemeConfig::ls(HrtConfig::ahrt(512), LastTime),
        SchemeConfig::ls(HrtConfig::hhrt(512), A2),
        SchemeConfig::ls(HrtConfig::hhrt(512), LastTime),
        SchemeConfig::ls(HrtConfig::Ideal, A2),
        SchemeConfig::ls(HrtConfig::Ideal, LastTime),
    ]
}

/// The taxonomy sweep used by the `ext_taxonomy` extension bench:
/// GAg/GAs/PAg/PAs at comparable cost to the paper's headline
/// configuration.
pub fn taxonomy() -> Vec<SchemeConfig> {
    use AutomatonKind::A2;
    vec![
        SchemeConfig::Variant(VariantConfig::gag(12, A2)),
        SchemeConfig::Variant(VariantConfig::gas(12, A2, 16)),
        SchemeConfig::Variant(VariantConfig::pag(12, A2, HrtConfig::ahrt(512))),
        SchemeConfig::Variant(VariantConfig::pas(12, A2, HrtConfig::ahrt(512), 16)),
        // The paper's scheme, for reference (identical to PAg modulo
        // the cached-prediction-bit optimization).
        SchemeConfig::at(HrtConfig::ahrt(512), 12, A2),
        // Successor designs: gshare and an AT+gshare tournament.
        SchemeConfig::Gshare(GshareConfig::default_12bit()),
        SchemeConfig::Tournament {
            chooser_entries: 1024,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlat_trace::BranchRecord;

    fn tiny_trace() -> Trace {
        (0..50)
            .map(|i| BranchRecord::conditional(0x1000, 0x800, i % 3 != 0))
            .collect()
    }

    #[test]
    fn table2_has_the_papers_23_configurations() {
        assert_eq!(table2().len(), 23);
    }

    #[test]
    fn every_table2_config_builds() {
        let training = tiny_trace();
        for config in table2() {
            let mut p = config.build(Some(&training));
            let b = BranchRecord::conditional(0x1000, 0x800, true);
            let _ = p.predict(&b);
            p.update(&b);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2).label(),
            "AT(AHRT(512,12SR),PT(2^12,A2),)"
        );
        assert_eq!(
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Diff).label(),
            "ST(IHRT(,12SR),PT(2^12,PB),Diff)"
        );
        assert_eq!(
            SchemeConfig::ls(HrtConfig::hhrt(512), AutomatonKind::LastTime).label(),
            "LS(HHRT(512,LT),,)"
        );
    }

    #[test]
    fn families_cover_every_scheme() {
        for config in table2() {
            assert!(!config.family().is_empty());
            assert!(
                config.label().starts_with(config.family()),
                "{} should prefix {}",
                config.family(),
                config.label()
            );
        }
        assert_eq!(SchemeConfig::Profile.family(), "Profiling");
        assert_eq!(
            SchemeConfig::Tournament { chooser_entries: 4 }.family(),
            "tournament"
        );
    }

    #[test]
    fn training_requirements() {
        assert!(SchemeConfig::Profile.needs_training());
        assert!(SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same).needs_training());
        assert!(!SchemeConfig::Btfn.needs_training());
        assert!(SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Diff).wants_diff_training());
        assert!(!SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same).wants_diff_training());
    }

    #[test]
    #[should_panic(expected = "training trace")]
    fn static_training_without_trace_panics() {
        SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same).build(None);
    }
}
