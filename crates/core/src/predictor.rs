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

    /// Runs the full predict → resolve → train cycle for one branch:
    /// [`predict`](Self::predict), then [`update`](Self::update).
    /// Returns the prediction.
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
}
