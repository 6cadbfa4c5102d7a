//! `tlat serve` — a long-lived sweep server over `std::net`.
//!
//! Every service ingredient of the harness already exists in batch
//! form: the persistent trace cache, the memoized [`CompiledTrace`]
//! arena inside [`TraceStore`], the bounded worker pool
//! (`TLAT_THREADS`), the checkpoint journal, and the JSONL telemetry
//! layer. This module wires them behind a socket: a hand-rolled
//! (zero-dependency) HTTP/1.1 server on [`std::net::TcpListener`] that
//! accepts sweep, figure, and diagnostic requests and answers them
//! from **one shared [`Harness`]** — all clients hit the same trace
//! store, the same compiled-stream memos, and the same journal.
//!
//! [`CompiledTrace`]: tlat_trace::CompiledTrace
//! [`TraceStore`]: crate::TraceStore
//!
//! The full wire protocol (endpoints, JSON schemas, error codes, the
//! streaming-event grammar, and the `TLAT_SERVE_ADDR` /
//! `TLAT_SERVE_BACKLOG` environment variables) is specified in
//! `SERVING.md`; the short version:
//!
//! | request | answer |
//! |---|---|
//! | `GET /sweeps` | the sweep registry ([`sweep_specs`]), one JSON object per line |
//! | `POST /sweep/<name>` | run (or join) that sweep; body = the batch report bytes |
//! | `POST /sweep/<name>?stream=1` | chunked JSONL progress events, then the report |
//! | `GET /status/<id>` | one JSON object describing a submitted run |
//! | `GET /metrics` | the telemetry JSONL snapshot (see `OBSERVABILITY.md`) |
//! | `GET /healthz` | `ok` (readiness probe) |
//! | `POST /shutdown` | graceful shutdown: drain live connections, then exit |
//!
//! # Request coalescing
//!
//! [`TraceStore::get`] guards trace generation with a per-key
//! in-flight slot so concurrent requests for one trace generate it
//! exactly once. The server generalizes that guard to **whole
//! sweeps**: runs are keyed by the sweep fingerprint
//! ([`Harness::sweep_fingerprint`] — the same identity the checkpoint
//! journal directory is keyed on), identical concurrent requests
//! attach to the one in-flight computation, and completed results are
//! memoized so repeat requests answer from memory. The
//! `requests_coalesced` counter counts every sweep request that was
//! answered without starting a new computation.
//!
//! [`TraceStore::get`]: crate::TraceStore
//!
//! # Byte identity
//!
//! A served sweep body is exactly the bytes `tlat sweep <name>` prints
//! on stdout — the server renders through the same
//! [`Harness::run_sweep`] path as the batch CLI, so the cold, warm
//! (memoized), and resumed-after-restart responses are all
//! byte-identical to the batch report. Journal replay applies
//! unchanged: a server restarted over a journaled trace cache resumes
//! warm, replaying landed cells instead of recomputing them.
//!
//! # Concurrency
//!
//! Each connection is served on its own thread, but at most
//! [`backlog_from_env`] (`TLAT_SERVE_BACKLOG`, default
//! [`DEFAULT_BACKLOG`]) connections are in flight — excess connections
//! are answered `503` immediately. Sweep *computation* is further
//! bounded by the worker pool: a run executes on one detached thread
//! whose gang walks fan out through [`crate::pool`] under
//! `TLAT_THREADS`, exactly as in batch mode.
//!
//! # Example
//!
//! ```no_run
//! use tlat_sim::{serve::Server, Harness};
//!
//! let server = Server::bind(Harness::from_env(), "127.0.0.1:0").expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.run(); // accept loop; returns after POST /shutdown
//! ```

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tlat_trace::json::JsonObject;

use crate::error::lock_unpoisoned;
use crate::experiment::{sweep_spec, sweep_specs, Harness, SweepSpec};
use crate::journal::SweepJournal;
use crate::metrics::{self, Counter, Phase};
use crate::pool;
use crate::SimError;

/// Environment variable naming the listen address (`host:port`).
pub const ADDR_ENV: &str = "TLAT_SERVE_ADDR";

/// Environment variable capping concurrent in-flight connections.
pub const BACKLOG_ENV: &str = "TLAT_SERVE_BACKLOG";

/// Listen address used when `TLAT_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7091";

/// Concurrent-connection cap used when `TLAT_SERVE_BACKLOG` is unset.
pub const DEFAULT_BACKLOG: usize = 64;

/// Largest request head (request line + headers) the server accepts.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest request body the server reads (bodies are ignored, but a
/// well-formed client must have its `Content-Length` drained).
const MAX_BODY_BYTES: u64 = 64 * 1024;

/// How often a waiting request re-checks its run (and, when
/// streaming, emits a progress event).
const POLL: Duration = Duration::from_millis(100);

/// The listen address: `TLAT_SERVE_ADDR`, or [`DEFAULT_ADDR`] when
/// unset or empty.
pub fn addr_from_env() -> String {
    match std::env::var(ADDR_ENV) {
        Ok(addr) if !addr.is_empty() => addr,
        _ => DEFAULT_ADDR.to_owned(),
    }
}

/// The concurrent-connection cap: `TLAT_SERVE_BACKLOG`, or
/// [`DEFAULT_BACKLOG`] when unset. Unparsable or zero values warn on
/// stderr and fall back to the default (the supervisor's env-knob
/// convention).
pub fn backlog_from_env() -> usize {
    match std::env::var(BACKLOG_ENV) {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!(
                    "warning: unusable {BACKLOG_ENV}={raw:?} (want a positive integer); \
                     using {DEFAULT_BACKLOG}"
                );
                DEFAULT_BACKLOG
            }
        },
        Err(_) => DEFAULT_BACKLOG,
    }
}

// ---------------------------------------------------------------------
// Run registry (the sweep-fingerprint in-flight guard)
// ---------------------------------------------------------------------

/// What a run is currently doing.
enum RunState {
    /// The computation thread is walking the sweep.
    Running,
    /// Finished: the exact batch-report bytes, shared by every waiter.
    Done(Arc<Vec<u8>>),
    /// The computation panicked; the payload message.
    Failed(String),
}

/// One submitted sweep run: a job id, the sweep it serves, and a
/// state cell every attached request waits on.
struct Run {
    id: u64,
    sweep: String,
    fingerprint: u64,
    /// Cells in the sweep grid (configurations × workloads).
    cells: usize,
    /// The journal this run checkpoints into, when resume is enabled —
    /// progress events read landed-cell counts from it.
    journal: Option<SweepJournal>,
    state: Mutex<RunState>,
    done: Condvar,
    /// Requests that attached to this run (1 + coalesced).
    requests: AtomicU64,
}

impl Run {
    /// Blocks until the run completes (or `POLL` elapses); `None`
    /// means still running. A memoized result returns immediately —
    /// the warm path never sleeps.
    fn wait(&self) -> Option<Result<Arc<Vec<u8>>, String>> {
        let mut guard = lock_unpoisoned(&self.state);
        if matches!(&*guard, RunState::Running) {
            guard = self
                .done
                .wait_timeout(guard, POLL)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        match &*guard {
            RunState::Running => None,
            RunState::Done(bytes) => Some(Ok(Arc::clone(bytes))),
            RunState::Failed(message) => Some(Err(message.clone())),
        }
    }

    /// `"running"` / `"done"` / `"failed"` for the status endpoint.
    fn state_name(&self) -> &'static str {
        match &*lock_unpoisoned(&self.state) {
            RunState::Running => "running",
            RunState::Done(_) => "done",
            RunState::Failed(_) => "failed",
        }
    }

    /// Landed-cell count from the journal, when this run has one.
    fn landed(&self) -> Option<usize> {
        self.journal.as_ref().map(|j| j.keys().len())
    }
}

/// Shared server state: the harness every client hits, the run
/// registry, and the connection accounting.
struct ServeState {
    harness: Harness,
    /// In-flight and memoized runs, keyed by sweep fingerprint — the
    /// generalized exactly-once guard.
    runs: Mutex<HashMap<u64, Arc<Run>>>,
    /// Every run ever submitted, by job id (for `GET /status/<id>`).
    jobs: Mutex<BTreeMap<u64, Arc<Run>>>,
    next_job: AtomicU64,
    /// Connections currently being served (the backlog cap).
    live: AtomicU64,
    backlog: usize,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl ServeState {
    /// Attaches a request to the sweep's run, starting a computation
    /// thread only when no run exists for the fingerprint. Returns the
    /// run and whether this request is *fresh* (started the
    /// computation) — a non-fresh attach is a coalesced request.
    fn attach(self: &Arc<Self>, spec: &SweepSpec) -> (Arc<Run>, bool) {
        let fingerprint = self.harness.sweep_fingerprint(spec.title, &spec.configs);
        let mut runs = lock_unpoisoned(&self.runs);
        if let Some(run) = runs.get(&fingerprint) {
            let run = Arc::clone(run);
            run.requests.fetch_add(1, Ordering::Relaxed);
            return (run, false);
        }
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let run = Arc::new(Run {
            id,
            sweep: spec.name.to_owned(),
            fingerprint,
            cells: spec.configs.len() * self.harness.workloads().len(),
            journal: self.harness.sweep_journal(spec.title, &spec.configs),
            state: Mutex::new(RunState::Running),
            done: Condvar::new(),
            requests: AtomicU64::new(1),
        });
        runs.insert(fingerprint, Arc::clone(&run));
        drop(runs);
        lock_unpoisoned(&self.jobs).insert(id, Arc::clone(&run));
        self.start(Arc::clone(&run), spec.clone());
        (run, true)
    }

    /// Spawns the detached computation thread for a fresh run. The
    /// sweep itself fans out through the bounded worker pool
    /// (`TLAT_THREADS`) exactly as in batch mode; this thread only
    /// owns the run's lifecycle, so a client that disconnects does not
    /// abort the computation.
    fn start(self: &Arc<Self>, run: Arc<Run>, spec: SweepSpec) {
        let state = Arc::clone(self);
        std::thread::spawn(move || {
            // `tlat sweep` prints the report with `println!`, so the
            // batch stdout is the Display rendering plus one newline —
            // reproduce those bytes exactly.
            let result = pool::catch_cell(|| {
                let mut bytes = state.harness.run_sweep(&spec).to_string().into_bytes();
                bytes.push(b'\n');
                bytes
            });
            let mut st = lock_unpoisoned(&run.state);
            match result {
                Ok(bytes) => *st = RunState::Done(Arc::new(bytes)),
                Err(panic) => {
                    *st = RunState::Failed(panic.message);
                    // A failed run is not memoized: drop it from the
                    // fingerprint map so the next request retries
                    // (the job stays visible under /status).
                    lock_unpoisoned(&state.runs).remove(&run.fingerprint);
                }
            }
            drop(st);
            run.done.notify_all();
        });
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A bound (but not yet accepting) sweep server. [`Server::run`] turns
/// it into the accept loop.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the server to `addr` (use port `0` for an ephemeral
    /// port), wrapping the given harness. Telemetry recording is
    /// enabled so `GET /metrics` has live counters to report —
    /// recording never changes report bytes (pinned by the metrics
    /// test suite). The connection cap comes from
    /// [`backlog_from_env`].
    pub fn bind(harness: Harness, addr: &str) -> Result<Server, SimError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| SimError::io(format!("binding sweep server to {addr}"), e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SimError::io("reading the bound server address", e))?;
        metrics::set_enabled(true);
        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                harness,
                runs: Mutex::new(HashMap::new()),
                jobs: Mutex::new(BTreeMap::new()),
                next_job: AtomicU64::new(0),
                live: AtomicU64::new(0),
                backlog: backlog_from_env(),
                shutdown: AtomicBool::new(false),
                local_addr,
            }),
        })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// The accept loop. Serves until a `POST /shutdown` request lands,
    /// then drains live connections (bounded wait) and returns.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("warning: sweep server accept failed: {e}");
                    continue;
                }
            };
            let live = self.state.live.fetch_add(1, Ordering::SeqCst);
            if live >= self.state.backlog as u64 {
                // Over the cap: answer 503 on the accept thread and
                // move on — the guard below restores the count.
                let _guard = LiveGuard(&self.state.live);
                let _ = respond_error(&stream, 503, "overloaded", "connection cap reached");
                continue;
            }
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || {
                let _guard = LiveGuard(&state.live);
                handle_connection(&state, stream);
            });
        }
        // Graceful drain: give in-flight handlers a bounded window to
        // finish writing their responses.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.state.live.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Decrements the live-connection count when a handler exits, even by
/// panic.
struct LiveGuard<'a>(&'a AtomicU64);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------

/// One parsed request: method, path, and the raw query string.
struct Request {
    method: String,
    path: String,
    query: String,
}

/// Reads and parses the request head, then drains any declared body
/// (bodies carry no meaning in this protocol, but leaving them unread
/// would corrupt keep-alive clients' view of the stream).
fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_HEAD_BYTES as u64)
        .read_line(&mut line)
        .map_err(|e| format!("reading request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err("malformed request line".to_owned());
    };
    let method = method.to_owned();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    // Headers: only Content-Length matters (to drain the body).
    let mut content_length: u64 = 0;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("reading header: {e}"))?;
        head_bytes += n;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if head_bytes > MAX_HEAD_BYTES {
            return Err("request head too large".to_owned());
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > 0 {
        let mut sink = Vec::new();
        let _ = reader
            .take(content_length.min(MAX_BODY_BYTES))
            .read_to_end(&mut sink);
    }
    Ok(Request {
        method,
        path,
        query,
    })
}

/// Writes one complete `Content-Length` response.
fn respond(
    mut stream: &TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes one single-line JSON error body: `{"error":code,"detail":…}`.
fn respond_error(stream: &TcpStream, status: u16, code: &str, detail: &str) -> std::io::Result<()> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut body = JsonObject::new()
        .field("error", &code)
        .field("detail", &detail)
        .finish();
    body.push('\n');
    respond(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    )
}

/// Starts a chunked response; each subsequent [`write_chunk`] carries
/// one JSONL event line.
fn start_chunked(mut stream: &TcpStream, content_type: &str) -> std::io::Result<()> {
    stream.write_all(
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )
        .as_bytes(),
    )?;
    stream.flush()
}

/// Writes one chunk (an event line, newline included).
fn write_chunk(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(format!("{:x}\r\n{line}\r\n", line.len()).as_bytes())?;
    stream.flush()
}

/// Terminates a chunked response.
fn end_chunked(mut stream: &TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

/// Serves one connection: parse, route, respond. Every answered
/// request counts toward `requests_served` and is timed under the
/// `serve_request` phase span.
fn handle_connection(state: &Arc<ServeState>, stream: TcpStream) {
    // A dead client must not pin a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let _span = metrics::span(Phase::ServeRequest);
    metrics::bump(Counter::RequestsServed);
    let request = match read_request(&stream) {
        Ok(r) => r,
        Err(detail) => {
            let _ = respond_error(&stream, 400, "bad_request", &detail);
            return;
        }
    };
    let result = route(state, &stream, &request);
    if let Err(e) = result {
        // The socket is gone (client hung up mid-response); nothing
        // to do but note it.
        eprintln!("warning: sweep server response failed: {e}");
    }
}

/// Dispatches one parsed request to its endpoint.
fn route(state: &Arc<ServeState>, stream: &TcpStream, request: &Request) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            respond(stream, 200, "OK", "text/plain; charset=utf-8", &[], b"ok\n")
        }
        ("GET", "/sweeps") => {
            let mut body = String::new();
            for spec in sweep_specs() {
                JsonObject::new()
                    .field("name", &spec.name)
                    .field("title", &spec.title)
                    .field("configs", &(spec.configs.len() as u64))
                    .field(
                        "cells",
                        &((spec.configs.len() * state.harness.workloads().len()) as u64),
                    )
                    .finish_into(&mut body);
                body.push('\n');
            }
            respond(stream, 200, "OK", "application/jsonl", &[], body.as_bytes())
        }
        ("GET", "/metrics") => {
            let body = metrics::render_jsonl();
            respond(stream, 200, "OK", "application/jsonl", &[], body.as_bytes())
        }
        ("POST", "/shutdown") => {
            respond(
                stream,
                200,
                "OK",
                "text/plain; charset=utf-8",
                &[],
                b"shutting down\n",
            )?;
            state.shutdown.store(true, Ordering::SeqCst);
            // The accept loop is blocked in accept(); poke it awake
            // with a throwaway connection so it observes the flag.
            let _ = TcpStream::connect(state.local_addr);
            Ok(())
        }
        ("GET", path) if path.starts_with("/status/") => {
            let id = path.trim_start_matches("/status/");
            let Some(run) = id
                .parse::<u64>()
                .ok()
                .and_then(|id| lock_unpoisoned(&state.jobs).get(&id).cloned())
            else {
                return respond_error(stream, 404, "unknown_job", "no run with that id");
            };
            let mut object = JsonObject::new();
            object
                .field("id", &run.id)
                .field("sweep", &run.sweep.as_str())
                .field("state", &run.state_name())
                .field("requests", &run.requests.load(Ordering::Relaxed))
                .field("cells", &(run.cells as u64));
            if matches!(&*lock_unpoisoned(&run.state), RunState::Running) {
                if let Some(landed) = run.landed() {
                    object.field("landed", &(landed as u64));
                }
            }
            let mut body = object.finish();
            body.push('\n');
            respond(stream, 200, "OK", "application/json", &[], body.as_bytes())
        }
        ("POST", path) if path.starts_with("/sweep/") => {
            let name = path.trim_start_matches("/sweep/");
            let Some(spec) = sweep_spec(name) else {
                let known: Vec<&str> = sweep_specs().iter().map(|s| s.name).collect();
                return respond_error(
                    stream,
                    404,
                    "unknown_sweep",
                    &format!("no sweep `{name}`; one of: {}", known.join(", ")),
                );
            };
            let (run, fresh) = state.attach(&spec);
            if !fresh {
                metrics::bump(Counter::RequestsCoalesced);
            }
            let streaming = request
                .query
                .split('&')
                .any(|kv| kv == "stream=1" || kv == "stream=true");
            if streaming {
                serve_streaming(stream, &run, fresh)
            } else {
                serve_blocking(stream, &run, fresh)
            }
        }
        ("GET" | "POST", _) => respond_error(stream, 404, "not_found", "no such endpoint"),
        _ => respond_error(stream, 405, "method_not_allowed", "use GET or POST"),
    }
}

/// The default sweep mode: block until the run completes, answer with
/// the exact batch-report bytes.
fn serve_blocking(stream: &TcpStream, run: &Run, fresh: bool) -> std::io::Result<()> {
    loop {
        match run.wait() {
            None => continue,
            Some(Ok(bytes)) => {
                let headers = [
                    ("X-Tlat-Job", run.id.to_string()),
                    ("X-Tlat-Coalesced", (!fresh).to_string()),
                ];
                return respond(
                    stream,
                    200,
                    "OK",
                    "text/plain; charset=utf-8",
                    &headers,
                    &bytes,
                );
            }
            Some(Err(detail)) => {
                return respond_error(stream, 500, "sweep_failed", &detail);
            }
        }
    }
}

/// The streaming sweep mode: chunked JSONL events (`accepted`, then
/// `progress` ticks, then `done` carrying the report — or `error`).
fn serve_streaming(stream: &TcpStream, run: &Run, fresh: bool) -> std::io::Result<()> {
    start_chunked(stream, "application/jsonl")?;
    let accepted = JsonObject::new()
        .field("event", &"accepted")
        .field("id", &run.id)
        .field("sweep", &run.sweep.as_str())
        .field("coalesced", &!fresh)
        .field("cells", &(run.cells as u64))
        .finish();
    write_chunk(stream, &format!("{accepted}\n"))?;
    loop {
        match run.wait() {
            None => {
                let mut progress = JsonObject::new();
                progress
                    .field("event", &"progress")
                    .field("id", &run.id)
                    .field("cells", &(run.cells as u64));
                if let Some(landed) = run.landed() {
                    progress.field("landed", &(landed as u64));
                }
                write_chunk(stream, &format!("{}\n", progress.finish()))?;
            }
            Some(Ok(bytes)) => {
                let report = String::from_utf8_lossy(&bytes);
                let done = JsonObject::new()
                    .field("event", &"done")
                    .field("id", &run.id)
                    .field("report", &report.as_ref())
                    .finish();
                write_chunk(stream, &format!("{done}\n"))?;
                return end_chunked(stream);
            }
            Some(Err(detail)) => {
                let error = JsonObject::new()
                    .field("event", &"error")
                    .field("id", &run.id)
                    .field("detail", &detail.as_str())
                    .finish();
                write_chunk(stream, &format!("{error}\n"))?;
                return end_chunked(stream);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_parses_and_falls_back() {
        // Plain unit check of the parse rule, not the env (tests run
        // in parallel; the env-driven path is covered end to end by
        // tests/serve.rs through real server processes).
        assert_eq!(DEFAULT_BACKLOG, 64);
        assert!(addr_from_env().contains(':'));
    }

    #[test]
    fn attach_coalesces_identical_sweeps() {
        let state = Arc::new(ServeState {
            harness: Harness::new(2_000),
            runs: Mutex::new(HashMap::new()),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(0),
            live: AtomicU64::new(0),
            backlog: DEFAULT_BACKLOG,
            shutdown: AtomicBool::new(false),
            local_addr: "127.0.0.1:0".parse().unwrap(),
        });
        let spec = sweep_spec("fig10").unwrap();
        let (first, fresh_first) = state.attach(&spec);
        let (second, fresh_second) = state.attach(&spec);
        assert!(fresh_first);
        assert!(!fresh_second, "identical sweep must coalesce");
        assert_eq!(first.id, second.id);
        assert_eq!(first.requests.load(Ordering::Relaxed), 2);
        let other = sweep_spec("fig5").unwrap();
        let (third, fresh_third) = state.attach(&other);
        assert!(fresh_third, "a different sweep is a fresh run");
        assert_ne!(third.id, first.id);
        // Both runs complete and memoize their exact report bytes.
        for run in [&first, &third] {
            let bytes = loop {
                match run.wait() {
                    Some(Ok(bytes)) => break bytes,
                    Some(Err(e)) => panic!("run failed: {e}"),
                    None => continue,
                }
            };
            assert!(
                bytes.ends_with(b"\n\n"),
                "report bytes end like batch stdout"
            );
        }
        let (again, fresh_again) = state.attach(&spec);
        assert!(!fresh_again, "memoized result keeps coalescing");
        assert_eq!(again.id, first.id);
    }
}
