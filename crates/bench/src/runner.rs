//! The in-repo bench runner: the workspace's criterion replacement.
//!
//! A [`Runner`] times closures over a warmup phase and `N` measured
//! iterations, then reports the median and the median absolute
//! deviation (MAD) — robust statistics that a noisy neighbour cannot
//! drag the way a mean/variance pair can. Each finished measurement is
//! emitted as one machine-readable JSON line (via [`tlat_trace::json`])
//! prefixed with `BENCHJSON`, so downstream tooling can scrape results
//! with a single grep.
//!
//! Under a test pass (see [`crate::is_test_pass`], triggered by
//! `cargo bench -- --test`) the runner shrinks the plan to one warmup
//! and [`SMOKE_ITERS`] measured iterations: every bench body is
//! exercised and the reported median reflects the memoized steady
//! state (caches warm after the warmup pass), while `--test` stays
//! orders of magnitude cheaper than the full plan.
//!
//! # Examples
//!
//! ```
//! let mut r = tlat_bench::runner::Runner::new("doctest");
//! let m = r.bench("sum", || (0..1000u64).sum::<u64>());
//! assert!(m.median_ns > 0.0);
//! ```

use std::hint::black_box;
use std::time::Instant;
use tlat_sim::metrics;
use tlat_trace::json::{JsonObject, ToJson};

/// Default measured iterations (odd, so the median is a real sample).
pub const DEFAULT_ITERS: u32 = 15;
/// Default warmup iterations.
pub const DEFAULT_WARMUP: u32 = 3;
/// Measured iterations under a smoke pass (odd, so the median is a
/// real sample; small, so `--test` stays fast; enough samples that one
/// noisy-neighbour spike cannot drag the median).
pub const SMOKE_ITERS: u32 = 5;
/// Warmup iterations under a smoke pass: one, so memoized state
/// (traces, training artifacts, compiled streams) is populated before
/// the measured iterations — the same steady state the full plan's
/// warmup reaches.
pub const SMOKE_WARMUP: u32 = 1;

// A zero-iteration plan would still "succeed": `median_and_mad(&[])`
// reports (0.0, 0.0), so a smoke pass would print a fabricated 0 ns
// median and CI would record it as a real measurement. Pin every
// iteration constant at compile time (`plan` clamps its argument, and
// `bench` re-checks at run time).
const _: () = assert!(
    SMOKE_ITERS >= 1 && DEFAULT_ITERS >= 1,
    "bench plans must measure at least one iteration"
);

/// One completed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// `target/name` label.
    pub id: String,
    /// Measured iterations.
    pub iters: u32,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration times.
    pub mad_ns: f64,
    /// Optional work-per-iteration (elements processed), for
    /// throughput reporting.
    pub elements: Option<u64>,
    /// Phase-span wall-clock totals accumulated inside the measured
    /// iterations, as `(phase name, total ns)` — one entry per
    /// [`tlat_sim::metrics::Phase`]. Empty when telemetry recording is
    /// off (`TLAT_METRICS` unset), so default BENCHJSON lines are
    /// unchanged.
    pub spans: Vec<(&'static str, u64)>,
}

impl Measurement {
    /// Nanoseconds per element, when an element count was declared.
    pub fn ns_per_element(&self) -> Option<f64> {
        self.elements.map(|n| {
            if n == 0 {
                0.0
            } else {
                self.median_ns / n as f64
            }
        })
    }
}

impl ToJson for Measurement {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("bench", &self.id)
            .field("iters", &self.iters)
            .field("median_ns", &self.median_ns)
            .field("mad_ns", &self.mad_ns)
            .field("elements", &self.elements)
            .field("ns_per_element", &self.ns_per_element());
        for (phase, total_ns) in &self.spans {
            obj.field(&format!("span_{phase}_ns"), total_ns);
        }
        obj.finish_into(out);
    }
}

/// Median of a sorted slice (empty slices report zero).
fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median and median-absolute-deviation of raw samples.
pub fn median_and_mad(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let median = median_sorted(&sorted);
    let mut deviations: Vec<f64> = sorted.iter().map(|s| (s - median).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    (median, median_sorted(&deviations))
}

/// Times closures and emits JSON report lines.
#[derive(Debug)]
pub struct Runner {
    target: String,
    warmup: u32,
    iters: u32,
    /// Pending element count applied to the next `bench` call.
    elements: Option<u64>,
}

impl Runner {
    /// Creates a runner for `target` with the default iteration plan
    /// (shrunk to [`SMOKE_WARMUP`]/[`SMOKE_ITERS`] under a test pass).
    pub fn new(target: &str) -> Self {
        // Honour TLAT_METRICS no matter how the bench is structured
        // (micro benches build a Runner without the harness).
        metrics::enable_from_env();
        let smoke = crate::is_test_pass();
        Runner {
            target: target.to_owned(),
            warmup: if smoke { SMOKE_WARMUP } else { DEFAULT_WARMUP },
            iters: if smoke { SMOKE_ITERS } else { DEFAULT_ITERS },
            elements: None,
        }
    }

    /// A runner for report-regeneration benches: one measured pass
    /// (reports are regenerated, not statistically sampled), still
    /// emitting the JSON report line.
    pub fn for_reports(target: &str) -> Self {
        metrics::enable_from_env();
        Runner {
            target: target.to_owned(),
            warmup: 0,
            iters: 1,
            elements: None,
        }
    }

    /// Overrides the iteration plan.
    pub fn plan(&mut self, warmup: u32, iters: u32) -> &mut Self {
        if !crate::is_test_pass() {
            self.warmup = warmup;
            self.iters = iters.max(1);
        }
        self
    }

    /// Declares the work per iteration of the next `bench` call, so
    /// the report line carries a throughput figure.
    pub fn throughput(&mut self, elements: u64) -> &mut Self {
        self.elements = Some(elements);
        self
    }

    /// Times `f`, prints the JSON report line, and returns the
    /// measurement. The closure's result is passed through
    /// [`black_box`] so the work cannot be optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> Measurement {
        assert!(
            self.iters >= 1,
            "bench '{}/{name}' planned zero measured iterations — the median \
             would be fabricated from no samples",
            self.target
        );
        for _ in 0..self.warmup {
            black_box(f());
        }
        let before = metrics::Snapshot::now();
        let mut samples = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let start = Instant::now();
            black_box(f());
            samples.push(start.elapsed().as_nanos() as f64);
        }
        // Phase time spent inside the measured iterations (warmup is
        // excluded), emitted only when recording is on.
        let spans = if metrics::enabled() {
            let delta = metrics::Snapshot::now().since(&before);
            metrics::Phase::ALL
                .iter()
                .map(|&p| (p.name(), delta.span(p).0))
                .collect()
        } else {
            Vec::new()
        };
        let (median_ns, mad_ns) = median_and_mad(&samples);
        let m = Measurement {
            id: format!("{}/{}", self.target, name),
            iters: self.iters,
            median_ns,
            mad_ns,
            elements: self.elements.take(),
            spans,
        };
        println!("BENCHJSON {}", m.to_json());
        m
    }

    /// Like [`Runner::bench`] but returns the closure's final value
    /// (timing it once per iteration; the last iteration's value is
    /// returned). Used by report benches that need the regenerated
    /// report as well as the timing.
    pub fn bench_value<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        self.bench(name, || last = Some(f()));
        last.expect("at least one iteration runs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlat_trace::json;

    #[test]
    fn median_and_mad_basics() {
        let (m, d) = median_and_mad(&[1.0, 9.0, 5.0]);
        assert_eq!(m, 5.0);
        assert_eq!(d, 4.0);
        let (m, d) = median_and_mad(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(d, 1.0);
        assert_eq!(median_and_mad(&[]), (0.0, 0.0));
    }

    #[test]
    fn bench_measures_and_reports() {
        let mut r = Runner::new("test");
        r.plan(0, 3).throughput(100);
        let mut calls = 0u32;
        let m = r.bench("count_calls", || calls += 1);
        // Under a smoke pass (`cargo bench -- --test`) the plan() call
        // is ignored and the smoke warmup runs; under `cargo test` the
        // explicit zero-warmup plan applies.
        let warmup = if crate::is_test_pass() {
            SMOKE_WARMUP
        } else {
            0
        };
        assert_eq!(m.iters + warmup, calls);
        assert_eq!(m.elements, Some(100));
        assert!(m.ns_per_element().is_some());
        assert!(m.id.starts_with("test/"));
    }

    #[test]
    fn a_smoke_pass_never_measures_zero_iterations() {
        // The flakiness this guards against: a plan that reaches
        // `bench` with zero iterations reports a 0 ns median from
        // `median_and_mad(&[])` — a fabricated measurement that CI
        // would happily record. Every constructor and `plan` must
        // clamp to at least one measured iteration, under `--test`
        // smoke mode and the full plan alike.
        assert!(SMOKE_ITERS >= 1);
        assert!(DEFAULT_ITERS >= 1);
        let mut r = Runner::new("test");
        r.plan(0, 0); // ignored under --test; clamped to >= 1 otherwise
        let m = r.bench("never_zero", || ());
        assert!(m.iters >= 1, "reported median must come from real samples");
    }

    #[test]
    fn throughput_only_applies_once() {
        let mut r = Runner::for_reports("test");
        r.throughput(7);
        let first = r.bench("a", || ());
        let second = r.bench("b", || ());
        assert_eq!(first.elements, Some(7));
        assert_eq!(second.elements, None);
    }

    #[test]
    fn bench_value_returns_the_result() {
        let mut r = Runner::for_reports("test");
        let v = r.bench_value("forty_two", || 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn report_lines_are_valid_json() {
        let m = Measurement {
            id: "t/x".to_owned(),
            iters: 3,
            median_ns: 1.5,
            mad_ns: 0.25,
            elements: Some(10),
            spans: vec![("gang_walk", 42)],
        };
        let line = m.to_json();
        assert!(json::validate(&line));
        assert_eq!(
            line,
            r#"{"bench":"t/x","iters":3,"median_ns":1.5,"mad_ns":0.25,"elements":10,"ns_per_element":0.15,"span_gang_walk_ns":42}"#
        );
        let none = Measurement {
            elements: None,
            spans: Vec::new(),
            ..m
        };
        let line = none.to_json();
        assert!(json::validate(&line));
        assert_eq!(
            line,
            r#"{"bench":"t/x","iters":3,"median_ns":1.5,"mad_ns":0.25,"elements":null,"ns_per_element":null}"#,
            "no span fields when recording is off"
        );
    }
}
