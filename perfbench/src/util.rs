//! Small shared pieces: digests, the seeded permutation, host
//! normalization, sample distributions, and metric output.

use std::time::{Duration, Instant};

use crate::Tally;

/// FNV-1a over `bytes` (the report digest).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Splitmix64: the seed's only use is to permute operation order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Steps of the host-speed kernel per thread.
const PROBE_STEPS: u64 = 2_000_000;

/// Milliseconds [`probe_ms`] takes on the reference host: the 2-vCPU
/// machine this benchmark was defined on, in its fastest observed
/// period. It fixes the unit of every end-to-end time.
const REFERENCE_MS: f64 = 12.5;

/// Wall milliseconds for one copy per pool thread of a fixed kernel
/// owned by the benchmark (two-bit counters trained on a pseudo-random
/// outcome stream, like the predictor walk in miniature). The program
/// never runs this code, so no change to the program moves it.
fn probe_ms(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || std::hint::black_box(kernel(t as u64 + 1)));
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}

fn kernel(seed: u64) -> u64 {
    let mut table = vec![1u8; 1 << 16];
    let (mut x, mut hits) = (seed, 0u64);
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & 0xffff];
        let taken = x >> 63 == 1;
        hits += u64::from((*slot >= 2) == taken);
        *slot = if taken {
            (*slot + 1).min(3)
        } else {
            slot.saturating_sub(1)
        };
    }
    hits
}

/// Runs `op` between two host-speed probes. Returns its result and the
/// host's slowdown against the reference host while it ran (above 1
/// when the shared machine is slower than the reference).
pub fn probed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let threads = tlat_sim::threads_from_env();
    let before = probe_ms(threads);
    let result = op();
    let after = probe_ms(threads);
    (result, (before + after) / 2.0 / REFERENCE_MS)
}

/// Restarts the process's peak-resident-set counter (`VmHWM`), so the
/// next reading covers one operation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set since the last reset, in MiB (NaN
/// where the kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kib.map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Operations every run makes, however slow the host. The slowest
/// request kind is one seventh of resident-figures' requests and one
/// third of cold-start's; from eleven operations on, the ten samples
/// beyond `request_ms.tail` all fit inside that kind, so the tail never
/// lands on the gap below it.
const MIN_OPERATIONS: usize = 12;

/// The end-to-end metrics, which every workload reports whatever its
/// operations and requests are, collected one operation at a time.
pub struct EndToEnd {
    setup_s: f64,
    peaks: Vec<f64>,
    rates: Vec<f64>,
    /// Each request's kind and host-normalized latency in ms.
    requests: Vec<(&'static str, f64)>,
    slowdowns: Vec<f64>,
}

impl EndToEnd {
    /// An empty collection for a run whose median set-up took `setup_s`.
    pub fn new(setup_s: f64) -> Self {
        EndToEnd {
            setup_s,
            peaks: Vec::new(),
            rates: Vec::new(),
            requests: Vec::new(),
            slowdowns: Vec::new(),
        }
    }

    /// Operations recorded so far.
    pub fn operations(&self) -> usize {
        self.slowdowns.len()
    }

    /// Whether the run, which started measuring at `start`, needs another
    /// operation: until `seconds` have passed and [`MIN_OPERATIONS`]
    /// have run.
    pub fn wants_more(&self, start: Instant, seconds: Duration) -> bool {
        self.operations() < MIN_OPERATIONS || start.elapsed() < seconds
    }

    /// Records one operation that ran with the host `slowdown`: the peak
    /// resident set since [`reset_peak_rss`], the walk predictions it
    /// computed per wall second, and its requests' kinds and latencies
    /// in ms.
    pub fn operation(&mut self, slowdown: f64, rate: f64, requests: Vec<(&'static str, f64)>) {
        self.peaks.push(peak_rss_mb());
        self.slowdowns.push(slowdown);
        self.rates.push(rate * slowdown);
        self.requests
            .extend(requests.into_iter().map(|(kind, ms)| (kind, ms / slowdown)));
    }

    /// Prints the median host slowdown (the figure every time was divided
    /// by, and every rate multiplied by) and each request kind's own
    /// latencies, and returns the end-to-end metrics in the order
    /// `BENCHMARK.json` lists them.
    pub fn metrics(self) -> Metrics {
        println!(
            "host slowdown against the reference host: {:.4} (median over operations)",
            Dist::new(self.slowdowns).median()
        );
        let mut kinds: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for &(kind, ms) in &self.requests {
            kinds.entry(kind).or_default().push(ms);
        }
        for (kind, ms) in kinds {
            let dist = Dist::new(ms);
            let (tail, pct) = dist.tail();
            println!(
                "request kind {kind:<14} p50 {:>10.3} ms   p{pct:.1} {tail:>10.3} ms   n={}",
                dist.median(),
                dist.len()
            );
        }
        let mut metrics = Metrics::default();
        metrics.push("setup_s", self.setup_s, "s");
        metrics.push("peak_rss_mb", Dist::new(self.peaks).min(), "MiB");
        metrics.push("predictions_per_s", Dist::new(self.rates).median(), "1/s");
        let all = self.requests.into_iter().map(|(_, ms)| ms).collect();
        metrics.push_dist("request_ms", &Dist::new(all), "ms");
        metrics
    }
}

/// Samples a metric was measured from, sorted ascending.
pub struct Dist(Vec<f64>);

/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn min(&self) -> f64 {
        self.0.first().copied().unwrap_or(f64::NAN)
    }

    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(value, percentile)`; the maximum when there are too few samples.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        if n <= TAIL_BEYOND {
            return (self.0.last().copied().unwrap_or(f64::NAN), 100.0);
        }
        let index = n - TAIL_BEYOND - 1;
        (self.0[index], 100.0 * (index + 1) as f64 / n as f64)
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Named metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    fn push_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        });
    }

    /// `<name>.p50` and `<name>.tail`, noted with the tail's percentile
    /// and the sample count.
    pub fn push_dist(&mut self, name: &str, dist: &Dist, unit: &'static str) {
        let n = dist.len();
        self.push_noted(
            &format!("{name}.p50"),
            dist.median(),
            unit,
            format!("n={n}"),
        );
        let (value, pct) = dist.tail();
        self.push_noted(
            &format!("{name}.tail"),
            value,
            unit,
            format!("p{pct:.1} of n={n}"),
        );
    }

    /// The value of a metric pushed earlier (NaN when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// One human-readable line per metric.
    pub fn print(&self, prefix: &str) {
        for m in &self.0 {
            println!(
                "{prefix}{:<42} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }

    /// The result line. A value that is not a finite number fails the
    /// run instead of printing an unreadable figure.
    pub fn json(&self, tally: &Tally) -> String {
        let finite = self.0.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let dist = Dist::new((1..=40).map(f64::from).collect());
        assert_eq!(dist.tail(), (30.0, 75.0));
        assert_eq!(dist.median(), 20.5);
        assert_eq!(Dist::new(vec![3.0, 1.0]).tail(), (3.0, 100.0));
    }

    #[test]
    fn shuffles_depend_only_on_the_seed() {
        let order = |seed| {
            let mut items: Vec<u32> = (0..7).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        let mut sorted = order(9);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }
}
