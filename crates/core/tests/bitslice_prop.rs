//! Differential test for the automata's derived transition tables: the
//! [`SliceTables`] masks must agree with the scalar automata of
//! `automaton.rs` over the whole state/outcome space. This is the inner
//! rail of the slot-major replay's byte-identity story; the outer rail
//! is the gang-vs-record tests in `tlat-sim`.

use tlat_core::{AutomatonKind, SliceTables};

/// The derived mask tables, state by state, against the scalar
/// automaton: exhaustive over all 4 state codes × 2 outcomes × every
/// variant. These are the codes the gang walk's slot-major replay steps
/// Lee & Smith lanes through.
#[test]
fn derived_tables_match_scalar_lambda_and_delta() {
    for kind in AutomatonKind::ALL {
        let t = SliceTables::derive(kind);
        for s in 0..4u8 {
            let a = kind.from_state_bits(s);
            assert_eq!(
                t.predict >> s & 1 != 0,
                a.predict(),
                "{} λ({s})",
                kind.name()
            );
            for (ti, taken) in [false, true].into_iter().enumerate() {
                let next = a.update(taken).state_bits();
                assert_eq!(
                    t.next_hi[ti] >> s & 1,
                    next >> 1,
                    "{} δ({s},{taken}) hi",
                    kind.name()
                );
                assert_eq!(
                    t.next_lo[ti] >> s & 1,
                    next & 1,
                    "{} δ({s},{taken}) lo",
                    kind.name()
                );
            }
        }
        assert_eq!(t.init, kind.init().state_bits(), "{} init", kind.name());
    }
}
