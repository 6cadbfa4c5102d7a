//! The common predictor interface, and the lean walk of a compiled
//! event stream.

use crate::automaton::CodeTables;
use tlat_trace::{BranchRecord, SiteId};

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

/// A predictor's lean walk-local state, for walking a compiled event
/// stream alone.
///
/// Level one's slot decisions — which table slot an event's branch
/// occupies, and whether the access filled or replaced it — depend only
/// on the stream and the table's geometry, so a compiled walk makes
/// them apart from the predictor and hands each event's decision in as
/// a probe word ([`Probe::word`](crate::Probe::word)). A walker keeps
/// the rest: its history registers (one per slot, with a Two-Level
/// lane's §3.2 cached bit, or one global register) and its one-byte
/// pattern tables. Each predictor builds its walker from a fresh
/// predictor ([`TwoLevelAdaptive::walker`](crate::TwoLevelAdaptive::walker),
/// [`TwoLevelVariant::walker`](crate::TwoLevelVariant::walker),
/// [`Gshare::walker`](crate::Gshare::walker)), and the walker guesses
/// event for event as the predictor's
/// [`predict_update`](Predictor::predict_update) would over the same
/// branches, leaving the predictor itself untouched.
pub trait Walker {
    /// One event at `site` in the slot of probe word `word`: the guess,
    /// made before `taken` trains the walker.
    fn step(&mut self, word: u32, site: SiteId, taken: bool) -> bool;

    /// How many events of a same-site, same-outcome run this walker
    /// steps before it sits at a fixed point that guesses the run: its
    /// history bits, after which the register it reads holds only the
    /// run's outcome, plus [`CodeTables::CONVERGENCE`] updates of the
    /// one pattern entry that register then indexes. Every later event
    /// of the run is a correct guess that changes no walker state, so a
    /// walk may credit it without a step.
    fn run_bound(&self) -> usize;
}

/// [`Walker::run_bound`] of a walker whose registers are `mask` wide.
pub(crate) fn run_bound(mask: u16) -> usize {
    mask.count_ones() as usize + CodeTables::CONVERGENCE
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
    fn the_long_run_floor_is_the_shortest_lanes_bound() {
        // Each walker's bound is its history bits plus the automata's
        // one convergence bound, and the compiled stream's long-run
        // index keeps every run longer than the bound of the shortest
        // legal register, one bit: so it holds every run any lane can
        // collapse.
        use crate::{
            AutomatonKind, Gshare, GshareConfig, HrtConfig, SiteResolver, TwoLevelAdaptive,
            TwoLevelConfig, TwoLevelVariant, VariantConfig, VariantWalk,
        };
        assert_eq!(tlat_trace::LONG_RUN_FLOOR, 1 + CodeTables::CONVERGENCE);
        let resolver = SiteResolver::new(vec![0x1000]);
        for bits in [1, 6, 12, crate::MAX_HISTORY_BITS] {
            let want = usize::from(bits) + CodeTables::CONVERGENCE;
            let at = TwoLevelAdaptive::new(TwoLevelConfig {
                history_bits: bits,
                ..TwoLevelConfig::paper_default()
            });
            assert_eq!(at.walker(1).run_bound(), want);
            let kind = AutomatonKind::A2;
            let pag = TwoLevelVariant::new(VariantConfig::pag(bits, kind, HrtConfig::Ideal));
            let gag = TwoLevelVariant::new(VariantConfig::gag(bits, kind));
            for walk in [pag.walker(1, &resolver), gag.walker(0, &resolver)] {
                let bound = match walk {
                    VariantWalk::PerAddress(w) => w.run_bound(),
                    VariantWalk::Global(w) => w.run_bound(),
                };
                assert_eq!(bound, want);
            }
            let gshare = Gshare::new(GshareConfig {
                history_bits: bits,
                automaton: kind,
            });
            assert_eq!(gshare.walker(&resolver).run_bound(), want);
            assert!(want >= tlat_trace::LONG_RUN_FLOOR);
        }
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
