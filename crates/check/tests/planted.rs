//! The harness tested against itself: planted bugs whose *minimal*
//! counterexample is known exactly. Shrinking must find it.

use tlat_check::{check_with, gen, Config};

fn config(seed: u64) -> Config {
    Config { cases: 512, seed }
}

#[test]
fn shrinking_finds_the_minimal_scalar() {
    // Planted bug: the property rejects everything >= 1000. The
    // smallest failing input in [0, 4096] is exactly 1000, and the
    // shrinker must land on it no matter which case failed first.
    let g = gen::u32_in(0, 4096);
    let failure = check_with(&config(0xfeed), &g, |&v| {
        if v < 1000 {
            Ok(())
        } else {
            Err(format!("{v} >= 1000"))
        }
    })
    .expect_err("the planted bug must be found");
    assert_eq!(failure.minimal, 1000, "shrinker must reach the boundary");
    assert!(
        failure.shrink_steps > 0,
        "some shrinking must have happened"
    );
}

#[test]
fn shrinking_finds_the_minimal_vector() {
    // Planted bug: at most three `true`s allowed. The minimal failing
    // vector is exactly four trues and nothing else.
    let g = gen::vec_of(gen::bools(), 0, 32);
    let failure = check_with(&config(0xbeef), &g, |v| {
        if v.iter().filter(|&&b| b).count() <= 3 {
            Ok(())
        } else {
            Err("too many trues".to_owned())
        }
    })
    .expect_err("the planted bug must be found");
    assert_eq!(
        failure.minimal,
        vec![true, true, true, true],
        "minimal counterexample is exactly four trues"
    );
}

#[test]
fn shrinking_composes_through_tuples() {
    // Planted bug in one component: b >= 100 fails regardless of a.
    // The minimal pair is (0, 100).
    let g = gen::tuple2(gen::u32_in(0, 50), gen::u32_in(0, 500));
    let failure = check_with(&config(0xabcd), &g, |&(_, b)| {
        if b < 100 {
            Ok(())
        } else {
            Err("b out of spec".to_owned())
        }
    })
    .expect_err("the planted bug must be found");
    assert_eq!(failure.minimal, (0, 100));
}

#[test]
fn seeds_replay_identically() {
    let g = gen::u64_in(0, u64::MAX);
    let run = |seed| {
        check_with(&config(seed), &g, |&v| {
            if v < 1 << 60 {
                Ok(())
            } else {
                Err("huge".to_owned())
            }
        })
    };
    let a = run(42).unwrap_err();
    let b = run(42).unwrap_err();
    assert_eq!(a.minimal, b.minimal);
    assert_eq!(a.case, b.case);
}

#[test]
fn passing_properties_run_all_cases() {
    let g = gen::i64_in(-1000, 1000);
    let outcome = check_with(&config(7), &g, |&v| {
        if (-1000..=1000).contains(&v) {
            Ok(())
        } else {
            Err("generator out of range".to_owned())
        }
    });
    assert!(outcome.is_ok());
}
