//! Pattern-history automata (Figure 2 of the paper).
//!
//! Each entry of the global pattern table is a small finite-state
//! machine. The prediction decision function λ reads the state; the
//! state-transition function δ folds in the resolved branch outcome.
//! The paper studies five automata:
//!
//! * **Last-Time** — one bit: predict whatever happened last time this
//!   history pattern appeared.
//! * **A1** — the outcomes of the last two occurrences; predict not
//!   taken only when neither was taken.
//! * **A2** — a 2-bit saturating up/down counter (Smith's counter);
//!   predict taken when the count is ≥ 2.
//! * **A3**, **A4** — variants the paper describes only as "similar to
//!   A2". Figure 2 is graphical and not reproduced in the text, so this
//!   crate implements the two standard variants from the Yeh/Patt
//!   automata family: A3 escapes the strongly-taken state faster on a
//!   not-taken outcome (3 → 1), and A4 additionally jumps from the
//!   strongly-not-taken state to weakly-taken on a taken outcome
//!   (0 → 2). Both keep the λ of A2 (predict taken when state ≥ 2).
//!
//! All pattern-table entries are initialized biased toward taken
//! (state 3, or state 1 for Last-Time), because roughly 60 % of
//! conditional branches are taken (§4.2 of the paper).

use std::fmt::Debug;

/// A pattern-history finite-state machine (one pattern-table entry).
///
/// Implementations are tiny `Copy` values; a pattern table is a
/// `Vec<A>`.
pub trait Automaton: Copy + Debug + PartialEq + Eq {
    /// Scheme name as it appears in the paper's configuration strings
    /// (e.g. `"A2"`, `"LT"`).
    const NAME: &'static str;

    /// The paper's initial state: biased toward taken.
    fn init() -> Self;

    /// The most strongly not-taken state (used by initialization
    /// ablations).
    fn init_not_taken() -> Self;

    /// The prediction decision function λ.
    fn predict(self) -> bool;

    /// The state-transition function δ.
    #[must_use]
    fn update(self, taken: bool) -> Self;
}

/// Last-Time: remember only the previous outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LastTime(bool);

impl Automaton for LastTime {
    const NAME: &'static str = "LT";

    fn init() -> Self {
        LastTime(true)
    }

    fn init_not_taken() -> Self {
        LastTime(false)
    }

    fn predict(self) -> bool {
        self.0
    }

    fn update(self, taken: bool) -> Self {
        LastTime(taken)
    }
}

/// A1: the last two outcomes; predict taken unless both were not taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct A1(u8);

impl Automaton for A1 {
    const NAME: &'static str = "A1";

    fn init() -> Self {
        A1(0b11)
    }

    fn init_not_taken() -> Self {
        A1(0b00)
    }

    fn predict(self) -> bool {
        self.0 != 0
    }

    fn update(self, taken: bool) -> Self {
        A1(((self.0 << 1) | taken as u8) & 0b11)
    }
}

/// A2: 2-bit saturating up/down counter; predict taken when ≥ 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct A2(u8);

impl Automaton for A2 {
    const NAME: &'static str = "A2";

    fn init() -> Self {
        A2(3)
    }

    fn init_not_taken() -> Self {
        A2(0)
    }

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(self, taken: bool) -> Self {
        A2(if taken {
            (self.0 + 1).min(3)
        } else {
            self.0.saturating_sub(1)
        })
    }
}

/// A3: like A2, but a not-taken outcome in the strongly-taken state
/// falls directly to weakly-not-taken (3 → 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct A3(u8);

impl Automaton for A3 {
    const NAME: &'static str = "A3";

    fn init() -> Self {
        A3(3)
    }

    fn init_not_taken() -> Self {
        A3(0)
    }

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(self, taken: bool) -> Self {
        A3(match (self.0, taken) {
            (3, false) => 1,
            (s, true) => (s + 1).min(3),
            (s, false) => s.saturating_sub(1),
        })
    }
}

/// A4: like A2, but a taken outcome in the strongly not-taken state
/// jumps directly to weakly-taken (0 → 2) — the up-escape mirror of
/// A3's down-escape. (Combining both escapes would collapse the
/// automaton into Last-Time, so each variant takes exactly one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct A4(u8);

impl Automaton for A4 {
    const NAME: &'static str = "A4";

    fn init() -> Self {
        A4(3)
    }

    fn init_not_taken() -> Self {
        A4(0)
    }

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(self, taken: bool) -> Self {
        A4(match (self.0, taken) {
            (0, true) => 2,
            (s, true) => (s + 1).min(3),
            (s, false) => s.saturating_sub(1),
        })
    }
}

/// Which automaton a configuration uses (runtime-selectable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AutomatonKind {
    /// [`LastTime`]
    LastTime,
    /// [`A1`]
    A1,
    /// [`A2`]
    A2,
    /// [`A3`]
    A3,
    /// [`A4`]
    A4,
}

impl AutomatonKind {
    /// All kinds, in the paper's order.
    pub const ALL: [AutomatonKind; 5] = [
        AutomatonKind::LastTime,
        AutomatonKind::A1,
        AutomatonKind::A2,
        AutomatonKind::A3,
        AutomatonKind::A4,
    ];

    /// The paper's name for the automaton (`"LT"`, `"A1"`, …).
    pub fn name(self) -> &'static str {
        match self {
            AutomatonKind::LastTime => LastTime::NAME,
            AutomatonKind::A1 => A1::NAME,
            AutomatonKind::A2 => A2::NAME,
            AutomatonKind::A3 => A3::NAME,
            AutomatonKind::A4 => A4::NAME,
        }
    }

    /// Parses a paper-style name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "LT" => AutomatonKind::LastTime,
            "A1" => AutomatonKind::A1,
            "A2" => AutomatonKind::A2,
            "A3" => AutomatonKind::A3,
            "A4" => AutomatonKind::A4,
            _ => return None,
        })
    }

    /// An initialized dynamic automaton of this kind.
    pub fn init(self) -> AnyAutomaton {
        match self {
            AutomatonKind::LastTime => AnyAutomaton::LastTime(LastTime::init()),
            AutomatonKind::A1 => AnyAutomaton::A1(A1::init()),
            AutomatonKind::A2 => AnyAutomaton::A2(A2::init()),
            AutomatonKind::A3 => AnyAutomaton::A3(A3::init()),
            AutomatonKind::A4 => AnyAutomaton::A4(A4::init()),
        }
    }

    /// The strongly-not-taken starting state of this kind (for
    /// initialization ablations).
    pub fn init_not_taken(self) -> AnyAutomaton {
        match self {
            AutomatonKind::LastTime => AnyAutomaton::LastTime(LastTime::init_not_taken()),
            AutomatonKind::A1 => AnyAutomaton::A1(A1::init_not_taken()),
            AutomatonKind::A2 => AnyAutomaton::A2(A2::init_not_taken()),
            AutomatonKind::A3 => AnyAutomaton::A3(A3::init_not_taken()),
            AutomatonKind::A4 => AnyAutomaton::A4(A4::init_not_taken()),
        }
    }

    /// Decodes a 2-bit state code (see [`AnyAutomaton::state_bits`])
    /// into an automaton of this kind.
    ///
    /// Bits above the low two are ignored. Last-Time is a 1-bit
    /// machine, so its decode also ignores bit 1 (its own encodings
    /// never set it); codes 2 and 3 alias 0 and 1, which keeps the
    /// function total — the code transition tables are derived over
    /// all four codes even though only two are reachable.
    pub fn from_state_bits(self, bits: u8) -> AnyAutomaton {
        match self {
            AutomatonKind::LastTime => AnyAutomaton::LastTime(LastTime(bits & 1 != 0)),
            AutomatonKind::A1 => AnyAutomaton::A1(A1(bits & 0b11)),
            AutomatonKind::A2 => AnyAutomaton::A2(A2(bits & 0b11)),
            AutomatonKind::A3 => AnyAutomaton::A3(A3(bits & 0b11)),
            AutomatonKind::A4 => AnyAutomaton::A4(A4(bits & 0b11)),
        }
    }
}

/// λ and δ of one automaton kind over its 2-bit state codes (see
/// [`AnyAutomaton::state_bits`]), derived by enumerating decode → step
/// → encode over all four codes: no consumer of the codes writes a
/// transition table by hand, so none can drift from this file.
///
/// The pattern tables step these codes, and so does the gang walk's
/// slot-major replay of Lee & Smith lanes. The derivation also asserts
/// the convergence that every collapse of a same-outcome run rests on:
/// from any state, [`CodeTables::CONVERGENCE`] updates with one outcome
/// reach a fixed point that predicts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeTables {
    /// Bit `s`: λ(s) — does state code `s` predict taken?
    lambda: u8,
    /// Entry `taken << 2 | s`: the code of δ(s, taken).
    delta: [u8; 8],
}

impl CodeTables {
    /// How many same-outcome updates take any state of any Figure 2
    /// automaton to a fixed point that predicts that outcome: a 2-bit
    /// saturating machine can wander for at most three same-direction
    /// steps before it pins at the agreeing end. Past this many updates
    /// every further one is a correct guess that changes nothing, which
    /// is what lets a walk credit a long run's tail without stepping it.
    pub const CONVERGENCE: usize = 3;

    /// Derives the tables for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if the variant violates the convergence invariant:
    /// δ(δⁿ(s, t), t) = δⁿ(s, t) and λ(δⁿ(s, t)) = t for every state
    /// `s` and outcome `t`, where n is [`CodeTables::CONVERGENCE`].
    pub fn derive(kind: AutomatonKind) -> Self {
        let mut tables = CodeTables {
            lambda: 0,
            delta: [0; 8],
        };
        for s in 0..4u8 {
            let a = kind.from_state_bits(s);
            tables.lambda |= u8::from(a.predict()) << s;
            for taken in [false, true] {
                tables.delta[usize::from(taken) << 2 | usize::from(s)] =
                    a.update(taken).state_bits();
            }
        }
        for s in 0..4u8 {
            for taken in [false, true] {
                let fixed = (0..Self::CONVERGENCE).fold(s, |code, _| tables.next(code, taken));
                assert!(
                    tables.next(fixed, taken) == fixed && tables.predict(fixed) == taken,
                    "{}: state {s} does not converge to a {taken}-predicting fixed point \
                     within {} same-outcome steps",
                    kind.name(),
                    Self::CONVERGENCE,
                );
            }
        }
        tables
    }

    /// λ: does state code `code` predict taken?
    #[inline]
    pub fn predict(&self, code: u8) -> bool {
        self.lambda >> code & 1 != 0
    }

    /// δ: the code that state code `code` steps to on `taken`.
    #[inline]
    pub fn next(&self, code: u8, taken: bool) -> u8 {
        // Codes stay below 4, so the mask only spares a bounds check.
        self.delta[(usize::from(taken) << 2 | usize::from(code)) & 7]
    }
}

impl std::fmt::Display for AutomatonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime-polymorphic automaton (one variant per kind).
///
/// Configuration-driven predictors store `AnyAutomaton` in their tables;
/// statically-typed predictors can use the concrete types directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnyAutomaton {
    /// [`LastTime`]
    LastTime(LastTime),
    /// [`A1`]
    A1(A1),
    /// [`A2`]
    A2(A2),
    /// [`A3`]
    A3(A3),
    /// [`A4`]
    A4(A4),
}

impl AnyAutomaton {
    /// The prediction decision function λ.
    pub fn predict(self) -> bool {
        match self {
            AnyAutomaton::LastTime(a) => a.predict(),
            AnyAutomaton::A1(a) => a.predict(),
            AnyAutomaton::A2(a) => a.predict(),
            AnyAutomaton::A3(a) => a.predict(),
            AnyAutomaton::A4(a) => a.predict(),
        }
    }

    /// The state-transition function δ.
    #[must_use]
    pub fn update(self, taken: bool) -> Self {
        match self {
            AnyAutomaton::LastTime(a) => AnyAutomaton::LastTime(a.update(taken)),
            AnyAutomaton::A1(a) => AnyAutomaton::A1(a.update(taken)),
            AnyAutomaton::A2(a) => AnyAutomaton::A2(a.update(taken)),
            AnyAutomaton::A3(a) => AnyAutomaton::A3(a.update(taken)),
            AnyAutomaton::A4(a) => AnyAutomaton::A4(a.update(taken)),
        }
    }

    /// The kind of this automaton.
    pub fn kind(self) -> AutomatonKind {
        match self {
            AnyAutomaton::LastTime(_) => AutomatonKind::LastTime,
            AnyAutomaton::A1(_) => AutomatonKind::A1,
            AnyAutomaton::A2(_) => AutomatonKind::A2,
            AnyAutomaton::A3(_) => AutomatonKind::A3,
            AnyAutomaton::A4(_) => AutomatonKind::A4,
        }
    }

    /// Encodes the state as a 2-bit code — the representation pattern
    /// tables store and [`CodeTables`] index. Round-trips through
    /// [`AutomatonKind::from_state_bits`]. Last-Time, a 1-bit machine,
    /// only ever produces codes 0 and 1.
    pub fn state_bits(self) -> u8 {
        match self {
            AnyAutomaton::LastTime(a) => a.0 as u8,
            AnyAutomaton::A1(a) => a.0,
            AnyAutomaton::A2(a) => a.0,
            AnyAutomaton::A3(a) => a.0,
            AnyAutomaton::A4(a) => a.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<A: Automaton>(mut a: A, outcomes: &[bool]) -> A {
        for &t in outcomes {
            a = a.update(t);
        }
        a
    }

    #[test]
    fn last_time_tracks_last_outcome() {
        let a = LastTime::init();
        assert!(a.predict());
        assert!(!a.update(false).predict());
        assert!(a.update(false).update(true).predict());
    }

    #[test]
    fn a1_predicts_taken_unless_two_not_taken() {
        let a = A1::init();
        assert!(a.predict());
        assert!(a.update(false).predict()); // one not-taken: still taken
        assert!(!a.update(false).update(false).predict()); // two: not taken
        assert!(a.update(false).update(false).update(true).predict());
    }

    #[test]
    fn a2_saturates_both_ends() {
        let top = drive(A2::init(), &[true, true, true, true]);
        assert_eq!(top, A2::init());
        let bottom = drive(A2::init(), &[false; 10]);
        assert_eq!(bottom, A2::init_not_taken());
        assert!(!bottom.predict());
        // Hysteresis: one taken from the bottom is not enough.
        assert!(!bottom.update(true).predict());
        assert!(bottom.update(true).update(true).predict());
    }

    #[test]
    fn a2_single_disturbance_keeps_prediction() {
        // The motivation for 4-state automata: a single noisy not-taken
        // in a run of takens does not flip the prediction.
        let a = drive(A2::init(), &[true, true, false]);
        assert!(a.predict());
    }

    #[test]
    fn a3_escapes_strongly_taken_quickly() {
        // From state 3 a single not-taken goes to 1 (predict not taken
        // after two consecutive not-takens — or here in one step from 3).
        let a = A3::init().update(false);
        assert!(!a.predict());
        // But it still saturates upward like A2.
        assert_eq!(drive(A3::init(), &[true; 5]), A3::init());
    }

    #[test]
    fn a4_jumps_up_from_bottom() {
        let bottom = drive(A4::init(), &[false; 5]);
        assert!(!bottom.predict());
        // One taken jumps straight to a predicting state.
        assert!(bottom.update(true).predict());
        // But unlike Last-Time, A4 keeps hysteresis on the way down: a
        // single not-taken from the top does not flip the prediction.
        assert!(A4::init().update(false).predict());
    }

    #[test]
    fn four_state_automata_are_distinct_and_not_last_time() {
        // Drive every automaton through the same outcome stream and
        // check the *prediction* sequences differ somewhere: no
        // four-state machine may collapse into another or into
        // Last-Time.
        let stream: Vec<bool> = {
            let mut x = 0x1234_5678_9abc_def0u64;
            (0..256)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 60) & 3 != 0 // ~75 % taken, runs of both kinds
                })
                .collect()
        };
        let runs: Vec<Vec<bool>> = AutomatonKind::ALL
            .iter()
            .map(|kind| {
                let mut a = kind.init();
                stream
                    .iter()
                    .map(|&t| {
                        let p = a.predict();
                        a = a.update(t);
                        p
                    })
                    .collect()
            })
            .collect();
        for i in 0..runs.len() {
            for j in i + 1..runs.len() {
                assert_ne!(
                    runs[i],
                    runs[j],
                    "{} and {} predict identically",
                    AutomatonKind::ALL[i],
                    AutomatonKind::ALL[j]
                );
            }
        }
    }

    #[test]
    fn all_inits_predict_taken() {
        for kind in AutomatonKind::ALL {
            assert!(kind.init().predict(), "{kind}");
            assert!(!kind.init_not_taken().predict(), "{kind}");
        }
    }

    #[test]
    fn any_automaton_matches_concrete_a2() {
        let mut any = AutomatonKind::A2.init();
        let mut conc = A2::init();
        for (i, taken) in [true, false, false, true, false, false, true]
            .into_iter()
            .enumerate()
        {
            assert_eq!(any.predict(), conc.predict(), "step {i}");
            any = any.update(taken);
            conc = conc.update(taken);
        }
        assert_eq!(any, AnyAutomaton::A2(conc));
    }

    #[test]
    fn kind_roundtrips_through_name() {
        for kind in AutomatonKind::ALL {
            assert_eq!(AutomatonKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.init().kind(), kind);
        }
        assert_eq!(AutomatonKind::parse("bogus"), None);
    }

    #[test]
    fn automata_converge_on_biased_streams() {
        // Every automaton must learn an always-taken and an
        // always-not-taken branch after a few updates.
        for kind in AutomatonKind::ALL {
            let mut a = kind.init();
            for _ in 0..4 {
                a = a.update(false);
            }
            assert!(!a.predict(), "{kind} failed to learn not-taken");
            for _ in 0..4 {
                a = a.update(true);
            }
            assert!(a.predict(), "{kind} failed to learn taken");
        }
    }

    #[test]
    fn state_bits_round_trip_through_from_state_bits() {
        for kind in AutomatonKind::ALL {
            // Walk every state reachable from init.
            let mut frontier = vec![kind.init(), kind.init_not_taken()];
            let mut seen: Vec<AnyAutomaton> = Vec::new();
            while let Some(a) = frontier.pop() {
                if seen.contains(&a) {
                    continue;
                }
                seen.push(a);
                assert_eq!(kind.from_state_bits(a.state_bits()), a);
                frontier.push(a.update(false));
                frontier.push(a.update(true));
            }
        }
    }

    /// The derived code tables, state by state, against the scalar
    /// automaton: exhaustive over all 4 state codes × 2 outcomes × every
    /// variant. Pattern tables and the slot-major replay of Lee & Smith
    /// lanes step these codes.
    #[test]
    fn derived_tables_match_scalar_lambda_and_delta() {
        for kind in AutomatonKind::ALL {
            let t = CodeTables::derive(kind);
            for s in 0..4u8 {
                let a = kind.from_state_bits(s);
                assert_eq!(t.predict(s), a.predict(), "{kind} λ({s})");
                for taken in [false, true] {
                    let next = a.update(taken).state_bits();
                    assert_eq!(t.next(s, taken), next, "{kind} δ({s},{taken})");
                }
            }
        }
    }

    #[test]
    fn last_time_never_leaves_the_low_codes() {
        // Last-Time is a 1-bit machine: its init and every transition
        // stay on codes 0 and 1.
        let t = CodeTables::derive(AutomatonKind::LastTime);
        assert!(t.delta.iter().all(|&code| code < 2), "{:?}", t.delta);
        assert!(AutomatonKind::LastTime.init().state_bits() < 2);
    }

    #[test]
    fn convergence_bound_is_sufficient_and_tight() {
        // Every variant, from every state code, reaches a fixed point
        // predicting the outcome within `CONVERGENCE` same-outcome
        // updates (`derive` asserts it); and some variant needs all of
        // them, so no smaller bound would be exact.
        let steps = |t: &CodeTables, s: u8, taken: bool| {
            let mut code = s;
            let mut n = 0;
            while !(t.next(code, taken) == code && t.predict(code) == taken) {
                code = t.next(code, taken);
                n += 1;
            }
            n
        };
        let mut slowest = 0;
        for kind in AutomatonKind::ALL {
            let t = CodeTables::derive(kind);
            for s in 0..4u8 {
                for taken in [false, true] {
                    let n = steps(&t, s, taken);
                    assert!(n <= CodeTables::CONVERGENCE, "{kind} from {s} on {taken}");
                    slowest = slowest.max(n);
                }
            }
        }
        assert_eq!(slowest, CodeTables::CONVERGENCE);
    }
}
