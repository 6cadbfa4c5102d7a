//! The common predictor interface.

use tlat_trace::BranchRecord;

/// A conditional-branch direction predictor.
///
/// The simulation engine drives every scheme in the paper through this
/// interface: for each dynamic conditional branch it first calls
/// [`predict`](Predictor::predict), compares the guess with
/// `branch.taken`, then calls [`update`](Predictor::update) with the
/// resolved record.
///
/// `predict` receives the full [`BranchRecord`] because static schemes
/// such as Backward-Taken/Forward-Not-taken need the target address;
/// implementations must not read `branch.taken` in `predict` — that is
/// the answer being guessed. (It cannot be hidden by the type system
/// without duplicating the record; the trait contract and the engine's
/// tests enforce it instead.)
pub trait Predictor {
    /// The configuration string in the paper's naming convention, e.g.
    /// `AT(AHRT(512,12SR),PT(2^12,A2),)`.
    fn name(&self) -> String;

    /// Predicts whether the branch will be taken. Must not read
    /// `branch.taken`.
    fn predict(&mut self, branch: &BranchRecord) -> bool;

    /// Feeds back the resolved outcome (`branch.taken`).
    fn update(&mut self, branch: &BranchRecord);

    /// Runs the full predict → resolve → train cycle for one branch,
    /// returning the prediction.
    ///
    /// Must be observably identical to [`predict`](Self::predict)
    /// followed by [`update`](Self::update) — that is the provided
    /// default — but implementations whose two phases repeat the same
    /// table lookup override it to pay the lookup once. The gang
    /// engine's hot loop (`tlat-sim`) calls this; the single-predictor
    /// reference engine keeps the two-phase cycle.
    fn predict_update(&mut self, branch: &BranchRecord) -> bool {
        let guess = self.predict(branch);
        self.update(branch);
        guess
    }
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        (**self).predict(branch)
    }

    fn update(&mut self, branch: &BranchRecord) {
        (**self).update(branch)
    }

    fn predict_update(&mut self, branch: &BranchRecord) -> bool {
        // Forwarded so a single virtual call reaches the (possibly
        // fused) implementation, instead of two through the default.
        (**self).predict_update(branch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(bool);

    impl Predictor for Fixed {
        fn name(&self) -> String {
            "Fixed".into()
        }
        fn predict(&mut self, _: &BranchRecord) -> bool {
            self.0
        }
        fn update(&mut self, _: &BranchRecord) {}
    }

    #[test]
    fn boxed_predictors_forward() {
        let mut p: Box<dyn Predictor> = Box::new(Fixed(true));
        let b = BranchRecord::conditional(0, 4, true);
        assert!(p.predict(&b));
        p.update(&b);
        assert_eq!(p.predict_update(&b), true);
        assert_eq!(p.name(), "Fixed");
    }

    /// Drives `fused` through `predict_update` and `twophase` through
    /// predict-then-update over the same pseudorandom branch stream and
    /// asserts every guess agrees — i.e. the fused fast path is
    /// observably the same predictor.
    fn assert_fused_equals_twophase(
        mut fused: Box<dyn Predictor>,
        mut twophase: Box<dyn Predictor>,
    ) {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let r = rng();
            // 64 branch sites (aliasing exercises HRT replacement),
            // data-dependent directions.
            let pc = 0x1000 + ((r >> 8) as u32 % 64) * 4;
            let taken = r % 3 != 0;
            let b = BranchRecord::conditional(pc, 0x800, taken);
            let a = fused.predict_update(&b);
            let x = twophase.predict(&b);
            twophase.update(&b);
            assert_eq!(a, x, "fused {} diverged", fused.name());
        }
    }

    #[test]
    fn fused_cycle_matches_two_phase_cycle() {
        use crate::{
            AutomatonKind, HrtConfig, LeeSmithBtb, LeeSmithConfig, StaticTraining,
            StaticTrainingConfig, TwoLevelAdaptive, TwoLevelConfig,
        };
        let mk: Vec<fn() -> Box<dyn Predictor>> = vec![
            || Box::new(TwoLevelAdaptive::new(TwoLevelConfig::paper_default())),
            || {
                Box::new(TwoLevelAdaptive::new(TwoLevelConfig {
                    cached_prediction: false,
                    hrt: HrtConfig::hhrt(64),
                    ..TwoLevelConfig::paper_default()
                }))
            },
            || {
                Box::new(TwoLevelAdaptive::new(TwoLevelConfig {
                    hrt: HrtConfig::ahrt(32),
                    ..TwoLevelConfig::paper_default()
                }))
            },
            || Box::new(LeeSmithBtb::new(LeeSmithConfig::paper_default())),
            || {
                Box::new(LeeSmithBtb::new(LeeSmithConfig {
                    automaton: AutomatonKind::LastTime,
                    hrt: HrtConfig::ahrt(32),
                }))
            },
            || {
                let trace: tlat_trace::Trace = (0..500)
                    .map(|i| BranchRecord::conditional(0x1000 + (i % 7) * 4, 0x800, i % 3 == 0))
                    .collect();
                Box::new(StaticTraining::train(
                    StaticTrainingConfig::paper_default(),
                    &trace,
                ))
            },
        ];
        for build in mk {
            assert_fused_equals_twophase(build(), build());
        }
    }
}
