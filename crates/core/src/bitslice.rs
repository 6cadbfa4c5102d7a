//! Branchless transition tables for the pattern-history automata: λ
//! and δ of each variant as bit masks over its 2-bit state codes.
//!
//! Every automaton variant of the paper's Figure 2 (Last-Time and
//! A1–A4) is expressed as a [`SliceTables`]: per-state λ/δ bit masks
//! *derived* from the scalar [`Automaton`](crate::Automaton)
//! implementations at construction time, so no consumer of the 2-bit
//! state codes can drift from `automaton.rs`. The derivation also
//! asserts the convergence invariant that run-chunked replays rely on:
//! from any state, three same-outcome updates reach a fixed point whose
//! prediction equals that outcome. The gang walk's slot-major replay
//! steps Lee & Smith lanes through these codes one lane at a time.

use crate::automaton::{AutomatonKind, CodeTables};

/// Branchless λ/δ tables for one automaton variant, one bit per 2-bit
/// state code (see [`crate::AnyAutomaton::state_bits`]).
///
/// Bit `s` of each mask describes state code `s`:
/// `predict` holds λ(s), `next_hi[t]`/`next_lo[t]` hold the two bits
/// of δ(s, t). Derived from — never hand-written next to — the scalar
/// automaton; `tests/bitslice_prop.rs` pins every mask against
/// `automaton.rs` state by state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceTables {
    /// The variant these tables encode.
    pub kind: AutomatonKind,
    /// Bit `s`: λ(s) — does state `s` predict taken?
    pub predict: u8,
    /// Bit `s` of `next_hi[t]`: high state bit of δ(s, t).
    pub next_hi: [u8; 2],
    /// Bit `s` of `next_lo[t]`: low state bit of δ(s, t).
    pub next_lo: [u8; 2],
    /// State code of [`AutomatonKind::init`].
    pub init: u8,
}

impl SliceTables {
    /// Derives the tables for `kind` by enumerating decode → scalar
    /// step → encode over all four state codes.
    ///
    /// # Panics
    ///
    /// Panics if the variant violates the run-chunking invariant:
    /// δ(δ³(s, t), t) = δ³(s, t) and λ(δ³(s, t)) = t for every state
    /// `s` and outcome `t`. All Figure 2 variants satisfy it (a 2-bit
    /// saturating machine can wander for at most three same-direction
    /// steps before pinning at the agreeing end).
    pub fn derive(kind: AutomatonKind) -> Self {
        let codes = CodeTables::derive(kind);
        let mut next_hi = [0u8; 2];
        let mut next_lo = [0u8; 2];
        for (t, (hi, lo)) in next_hi.iter_mut().zip(&mut next_lo).enumerate() {
            for s in 0..4 {
                let next = codes.delta[t << 2 | s];
                *hi |= (next >> 1 & 1) << s;
                *lo |= (next & 1) << s;
            }
        }
        for s in 0..4u8 {
            for taken in [false, true] {
                let mut a = kind.from_state_bits(s);
                for _ in 0..3 {
                    a = a.update(taken);
                }
                assert!(
                    a.update(taken) == a && a.predict() == taken,
                    "{}: state {s} does not converge to a {taken}-predicting \
                     fixed point within 3 same-outcome steps",
                    kind.name(),
                );
            }
        }
        SliceTables {
            kind,
            predict: codes.lambda,
            next_hi,
            next_lo,
            init: kind.init().state_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::AnyAutomaton;

    #[test]
    fn tables_derive_for_every_variant() {
        for kind in AutomatonKind::ALL {
            let t = SliceTables::derive(kind);
            assert_eq!(t.kind, kind);
            assert_eq!(t.init, kind.init().state_bits());
        }
    }

    #[test]
    fn last_time_never_sets_the_high_plane() {
        let t = SliceTables::derive(AutomatonKind::LastTime);
        assert_eq!(t.next_hi, [0, 0]);
        assert_eq!(t.init >> 1, 0);
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
}
