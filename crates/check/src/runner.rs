//! The property runner: case generation, failure detection, greedy
//! shrinking, and reproducible reporting.

use crate::gen::Gen;
use crate::rng::Rng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases per property (override with
/// `TLAT_PROP_CASES`).
pub const DEFAULT_CASES: u32 = 64;

/// Upper bound on shrink attempts per failure.
const MAX_SHRINK_ATTEMPTS: u32 = 4096;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Seed of the case stream.
    pub seed: u64,
}

impl Config {
    /// Configuration for a named property: the case count comes from
    /// `TLAT_PROP_CASES` (default [`DEFAULT_CASES`]); the seed from
    /// `TLAT_PROP_SEED` when set, otherwise deterministically from the
    /// property name, so a given test binary replays identically from
    /// run to run.
    pub fn from_env(name: &str) -> Self {
        let cases = std::env::var("TLAT_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CASES)
            .max(1);
        let seed = std::env::var("TLAT_PROP_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fnv1a(name.as_bytes()));
        Config { cases, seed }
    }
}

/// FNV-1a, used to derive a stable seed from a property name.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A property failure: the original and fully shrunk counterexamples.
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// The minimal failing value after shrinking.
    pub minimal: T,
    /// The failure message produced by the minimal value.
    pub message: String,
    /// Seed of the case stream (rerun with `TLAT_PROP_SEED` to replay).
    pub seed: u64,
    /// Index of the generated case that first failed.
    pub case: u32,
    /// Number of successful shrink steps taken.
    pub shrink_steps: u32,
}

/// Evaluates the property on one value, converting panics (plain
/// `assert!` inside the property) into `Err`.
fn eval<T>(prop: &impl Fn(&T) -> Result<(), String>, value: &T) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_owned());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Runs `prop` over `config.cases` generated values, shrinking the
/// first failure. Returns `Err` with the minimal counterexample
/// instead of panicking — the panicking entry point is [`check`].
pub fn check_with<T: Clone + Debug + 'static>(
    config: &Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) -> Result<(), Failure<T>> {
    let mut rng = Rng::new(config.seed);
    for case in 0..config.cases {
        // Each case gets a forked generator so a property that consumes
        // a data-dependent amount of entropy still replays per-case.
        let mut case_rng = rng.fork();
        let value = gen.generate(&mut case_rng);
        if let Err(first_message) = eval(&prop, &value) {
            let (minimal, message, shrink_steps) = shrink(gen, &prop, value, first_message);
            return Err(Failure {
                minimal,
                message,
                seed: config.seed,
                case,
                shrink_steps,
            });
        }
    }
    Ok(())
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, until no candidate fails or the attempt budget runs out.
fn shrink<T: Clone + 'static>(
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> Result<(), String>,
    mut current: T,
    mut message: String,
) -> (T, String, u32) {
    let mut steps = 0u32;
    let mut attempts = 0u32;
    'outer: loop {
        for candidate in gen.shrinks(&current) {
            attempts += 1;
            if attempts > MAX_SHRINK_ATTEMPTS {
                break 'outer;
            }
            if let Err(msg) = eval(prop, &candidate) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

/// Runs a named property and panics with a replay-friendly report on
/// failure. This is the entry point test code normally uses.
///
/// # Panics
///
/// Panics when the property fails, reporting the minimal shrunk
/// counterexample and the seed.
pub fn check<T: Clone + Debug + 'static>(
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let config = Config::from_env(name);
    if let Err(failure) = check_with(&config, gen, prop) {
        panic!(
            "property '{name}' failed (case {}, seed {}, {} shrink steps)\n\
             minimal counterexample: {:?}\n{}\n\
             replay with TLAT_PROP_SEED={}",
            failure.case,
            failure.seed,
            failure.shrink_steps,
            failure.minimal,
            failure.message,
            failure.seed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn config(cases: u32, seed: u64) -> Config {
        Config { cases, seed }
    }

    #[test]
    fn passing_property_passes() {
        let g = gen::u32_in(0, 100);
        assert!(check_with(&config(200, 1), &g, |&v| {
            if v <= 100 {
                Ok(())
            } else {
                Err("impossible".into())
            }
        })
        .is_ok());
    }

    #[test]
    fn failure_reports_first_failing_case() {
        let g = gen::u32_in(0, 10);
        let failure = check_with(&config(500, 2), &g, |&v| {
            if v < 5 {
                Ok(())
            } else {
                Err(format!("{v} too big"))
            }
        })
        .unwrap_err();
        assert_eq!(failure.minimal, 5);
        assert!(failure.message.contains("too big"));
    }

    #[test]
    fn panics_inside_properties_are_failures() {
        let g = gen::u32_in(0, 10);
        let failure = check_with(&config(500, 3), &g, |&v| {
            assert!(v < 5, "assert tripped on {v}");
            Ok(())
        })
        .unwrap_err();
        assert_eq!(failure.minimal, 5);
        assert!(failure.message.contains("assert tripped"));
    }

    #[test]
    fn identical_seeds_find_identical_counterexamples() {
        let g = gen::vec_of(gen::bools(), 0, 20);
        let run = || {
            check_with(&config(200, 7), &g, |v| {
                if v.iter().filter(|&&b| b).count() < 3 {
                    Ok(())
                } else {
                    Err("three trues".into())
                }
            })
            .unwrap_err()
        };
        assert_eq!(run().minimal, run().minimal);
    }
}
