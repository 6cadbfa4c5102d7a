//! `serve-restart`: an in-process `tlat_sim::Server` with journaling on,
//! over a trace cache warmed once in set-up. Each operation binds a
//! fresh server, has two closed-loop clients request all seven sweeps
//! (each computes once, the second request coalesces), fires a burst of
//! memoized requests, shuts the server down, rebinds over the same
//! journal, and requests all seven again (answered by journal replay).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tlat_sim::{sweep_specs, Server, SweepSpec};

use crate::util::{probed, reset_peak_rss, EndToEnd, Metrics, Rng};
use crate::{harness, millis, predictions, secs, timed_setups, Ctx, Tally};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Memoized requests each client sends per operation. Memoized requests
/// are the fastest kind and replays the next, so fourteen of them beside
/// fourteen sweep and seven replay requests put the request median in
/// the middle of the replays and the tail among the sweep requests.
const MEMO_BURST: usize = 7;

/// One HTTP response.
pub struct Response {
    pub status: u16,
    head: String,
    pub body: Vec<u8>,
}

impl Response {
    /// The value of a response header, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }
}

/// Sends one request and reads the whole response (the server closes
/// every connection after answering).
pub fn request(addr: SocketAddr, method: &str, path: &str) -> Result<Response, String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(fail)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n"
    )
    .map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(format!("{method} {path}: no end of response head"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{method} {path}: bad status line"))?;
    let response = Response {
        status,
        head,
        body: raw[split + 4..].to_vec(),
    };
    let length = response
        .header("content-length")
        .and_then(|v| v.parse().ok());
    if length != Some(response.body.len()) {
        return Err(format!(
            "{method} {path}: body length differs from Content-Length"
        ));
    }
    Ok(response)
}

/// A server running its accept loop on a thread of this process.
pub struct Running {
    pub addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Running {
    /// Binds a fresh server over the trace cache `cache`, journaling
    /// sweeps under `journal` when given.
    pub fn start(cache: &Path, journal: Option<&Path>) -> Result<Running, String> {
        let harness = harness(Some(cache));
        let harness = match journal {
            Some(root) => harness.with_resume_root(root),
            None => harness,
        };
        let server = Server::bind(harness, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running { addr, thread })
    }

    /// `POST /shutdown`, then waits for the accept loop to return.
    pub fn stop(self) -> Result<(), String> {
        let response = request(self.addr, "POST", "/shutdown")?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?;
        match response.status {
            200 => Ok(()),
            other => Err(format!("POST /shutdown answered {other}")),
        }
    }
}

/// `POST /sweep/<name>`: the latency in milliseconds and the job id,
/// with the body checked against the reference digest.
pub fn post_sweep(addr: SocketAddr, spec: &SweepSpec, tally: &mut Tally) -> (f64, Option<u64>) {
    let start = Instant::now();
    let response = request(addr, "POST", &format!("/sweep/{}", spec.name));
    let ms = millis(start);
    match response {
        Ok(r) if r.status == 200 => {
            tally.check_report(spec.name, &r.body);
            (ms, r.header("x-tlat-job").and_then(|id| id.parse().ok()))
        }
        Ok(r) => {
            tally.fail(format!("POST /sweep/{} answered {}", spec.name, r.status));
            (ms, None)
        }
        Err(e) => {
            tally.fail(e);
            (ms, None)
        }
    }
}

/// One memoized request of a seeded kind: a repeated sweep, the sweep
/// index, or a job's status. Returns its latency in milliseconds.
fn memo_request(
    addr: SocketAddr,
    specs: &[SweepSpec],
    jobs: &[u64],
    rng: &mut Rng,
    tally: &mut Tally,
) -> f64 {
    match rng.below(3) {
        0 => post_sweep(addr, &specs[rng.below(specs.len())], tally).0,
        kind => {
            let path = match kind {
                1 => "/sweeps".to_owned(),
                _ => format!("/status/{}", jobs[rng.below(jobs.len())]),
            };
            let start = Instant::now();
            let response = request(addr, "GET", &path);
            let ms = millis(start);
            match response {
                Ok(r) if r.status == 200 && memo_body_ok(&path, &r.body, specs.len()) => tally.ok(),
                Ok(r) => tally.fail(format!("GET {path} answered {}", r.status)),
                Err(e) => tally.fail(e),
            }
            ms
        }
    }
}

/// Whether a memoized index or status body says what it should.
fn memo_body_ok(path: &str, body: &[u8], sweeps: usize) -> bool {
    let text = String::from_utf8_lossy(body);
    if path == "/sweeps" {
        text.lines().count() == sweeps
    } else {
        text.contains("\"state\":\"done\"")
    }
}

/// Runs `f` once per client, concurrently, and collects what each
/// client returns with its own tally merged into `tally`.
pub fn clients<T: Send>(tally: &mut Tally, f: impl Fn(usize, &mut Tally) -> T + Sync) -> Vec<T> {
    let results: Vec<(T, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let f = &f;
                scope.spawn(move || {
                    let mut own = Tally::default();
                    (f(c, &mut own), own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    results
        .into_iter()
        .map(|(value, own)| {
            tally.merge(own);
            value
        })
        .collect()
}

/// One operation; returns each request's kind and latency in ms.
fn operation(
    ctx: &Ctx,
    n: usize,
    cache: &Path,
    specs: &[SweepSpec],
    order: &[usize],
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let journal = ctx.scratch.join(format!("journal-{n}"));
    let server = Running::start(cache, Some(&journal))?;
    let addr = server.addr;
    let rounds = clients(tally, |_, tally| {
        order
            .iter()
            .map(|&i| post_sweep(addr, &specs[i], tally))
            .collect::<Vec<_>>()
    });
    let mut requests = Vec::new();
    let mut jobs = Vec::new();
    for (ms, job) in rounds.into_iter().flatten() {
        requests.push(("sweep", ms));
        jobs.extend(job);
    }
    if jobs.is_empty() {
        server.stop()?;
        return Err("no sweep request succeeded".to_owned());
    }
    let seed = ctx.seed ^ (n as u64).wrapping_mul(0x9e37_79b9);
    let bursts = clients(tally, |c, tally| {
        let mut rng = Rng::new(seed.wrapping_add(c as u64));
        (0..MEMO_BURST)
            .map(|_| memo_request(addr, specs, &jobs, &mut rng, tally))
            .collect::<Vec<_>>()
    });
    requests.extend(bursts.into_iter().flatten().map(|ms| ("memo", ms)));
    server.stop()?;
    let server = Running::start(cache, Some(&journal))?;
    for &i in order {
        requests.push(("replay", post_sweep(server.addr, &specs[i], tally).0));
    }
    server.stop()?;
    let _ = std::fs::remove_dir_all(&journal);
    Ok(requests)
}

/// Generates every test and training trace into a fresh cache at `dir`.
pub fn warm_cache(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let harness = harness(Some(dir));
    harness.prewarm();
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Metrics, String> {
    let specs = sweep_specs();
    let (cache, setup_s) = timed_setups(|i| {
        let dir = ctx.scratch.join(format!("serve-cache-{i}"));
        warm_cache(&dir);
        CacheDir(dir)
    });
    // Each server computes every sweep once: the second client's request
    // coalesces or is memoized, and replay walks nothing.
    let counter = harness(Some(&cache.0));
    let computed: u64 = specs.iter().map(|spec| predictions(&counter, spec)).sum();
    drop(counter);
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut e2e = EndToEnd::new(setup_s);
    let start = Instant::now();
    while e2e.wants_more(start, ctx.seconds) {
        rng.shuffle(&mut order);
        reset_peak_rss();
        let n = e2e.operations();
        let ((requests, seconds), slowdown) = probed(|| {
            let op = Instant::now();
            let requests = operation(ctx, n, &cache.0, &specs, &order, tally);
            (requests, secs(op))
        });
        e2e.operation(slowdown, computed as f64 / seconds, requests?);
    }
    Ok(e2e.metrics())
}

/// A scratch trace cache, removed when dropped (so each set-up starts
/// from an empty directory and only the last one stays on disk).
struct CacheDir(std::path::PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
