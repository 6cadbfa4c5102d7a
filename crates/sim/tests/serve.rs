//! `tlat serve` integration tests: a real server process answering
//! real TCP requests — request coalescing, byte-identity against the
//! batch path, warm restart over a checkpoint journal, the streaming
//! event grammar, and the error surface.
//!
//! The server is this same test binary re-executed with a libtest
//! filter selecting [`server_entry`], which does nothing unless the
//! `SERVE_IT_CACHE` marker variable is set (the supervisor suite's
//! re-exec pattern). All server configuration travels through
//! `Command::env`, never through in-process `set_var`, so the suite
//! stays safe under parallel test execution.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tlat_sim::{sweep_spec, Harness, Server, SweepSpec, TraceStore};

const BUDGET: u64 = 20_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlat-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_harness(cache: &Path) -> Harness {
    Harness::over(TraceStore::new(BUDGET).with_disk_cache(cache))
}

/// The bytes `tlat sweep <name>` would print for this spec over this
/// cache: the report's Display rendering plus `println!`'s newline.
fn batch_bytes(cache: &Path, spec: &SweepSpec) -> Vec<u8> {
    let mut bytes = cached_harness(cache)
        .run_sweep(spec)
        .to_string()
        .into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Re-exec entry point, not a test of its own: becomes a sweep server
/// when spawned by one of the tests below, returns immediately in a
/// normal suite run. Prints `PORT <n>` once the listener is bound.
#[test]
fn server_entry() {
    let Ok(cache) = std::env::var("SERVE_IT_CACHE") else {
        return;
    };
    let cache = PathBuf::from(cache);
    let mut harness = cached_harness(&cache);
    if std::env::var("SERVE_IT_RESUME").as_deref() == Ok("1") {
        harness = harness.with_resume_root(cache.join("sweeps"));
    }
    let server = Server::bind(harness, "127.0.0.1:0").expect("bind an ephemeral port");
    println!("PORT {}", server.local_addr().port());
    server.run();
}

/// A spawned server process; killed on drop so a failing assertion
/// never leaks a listener.
struct ServerProc {
    child: Child,
    port: u16,
    /// Keeps the child's stdout pipe open: libtest prints its epilogue
    /// when the server exits, and a closed pipe would turn that into
    /// an EPIPE panic (exit 101) masking the real exit status.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServerProc {
    fn spawn(cache: &Path, resume: bool) -> ServerProc {
        let exe = std::env::current_exe().expect("test binary path");
        let mut cmd = Command::new(exe);
        cmd.args(["server_entry", "--exact", "--nocapture"]);
        cmd.env("SERVE_IT_CACHE", cache);
        if resume {
            cmd.env("SERVE_IT_RESUME", "1");
        } else {
            cmd.env_remove("SERVE_IT_RESUME");
        }
        // The server must see only the configuration this test chose.
        for var in [
            "TLAT_SERVE_BACKLOG",
            "TLAT_METRICS",
            "TLAT_SHARD",
            "TLAT_WORKERS",
            "TLAT_FAULTS",
            "TLAT_RESUME",
            "TLAT_TRACE_CACHE",
            "TLAT_BRANCH_LIMIT",
        ] {
            cmd.env_remove(var);
        }
        cmd.stdout(Stdio::piped());
        cmd.stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn the server process");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let port = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read server stdout");
            assert!(n > 0, "server stdout ended before the ready line");
            // libtest prints `test server_entry ... ` without a
            // newline before the test body runs, so the ready marker
            // lands mid-line — search, don't prefix-match.
            if let Some(pos) = line.find("PORT ") {
                break line[pos + "PORT ".len()..]
                    .trim()
                    .parse::<u16>()
                    .expect("ready-line port");
            }
        };
        ServerProc {
            child,
            port,
            _stdout: reader,
        }
    }

    /// Issues `POST /shutdown` and waits for a clean exit.
    fn shutdown(mut self) {
        let (status, _, _) = http(self.port, "POST", "/shutdown");
        assert_eq!(status, 200, "shutdown must be acknowledged");
        for _ in 0..100 {
            if let Ok(Some(code)) = self.child.try_wait() {
                assert!(code.success(), "server must exit cleanly, got {code}");
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("server did not exit within 5s of /shutdown");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Minimal HTTP/1.1 client: one request, `Connection: close`, returns
/// (status, headers, raw body bytes). Chunked bodies are decoded.
fn http(port: u16, method: &str, path: &str) -> (u16, String, Vec<u8>) {
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).expect("connect to the server under test");
    stream
        .write_all(
            format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body separator");
    let head = String::from_utf8(raw[..split].to_vec()).expect("ASCII head");
    let body = raw[split + 4..].to_vec();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        decode_chunked(&body)
    } else {
        body
    };
    (status, head, body)
}

/// Decodes a chunked transfer-encoding body into the payload bytes.
fn decode_chunked(mut body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[..line_end])
                .expect("hex size")
                .trim(),
            16,
        )
        .expect("hex chunk size");
        body = &body[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..]; // skip the chunk's trailing CRLF
    }
}

/// Extracts `"name":"<counter>","value":N` from a `/metrics` scrape.
fn counter(metrics: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\",\"value\":");
    let line = metrics
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no counter `{name}` in metrics:\n{metrics}"));
    let tail = &line[line.find(&needle).expect("needle located") + needle.len()..];
    tail.trim_end_matches('}')
        .parse()
        .expect("numeric counter value")
}

/// Un-escapes a JSON string literal's payload (the `report` field of a
/// `done` event) back into raw bytes.
fn json_unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().expect("escape has a payload") {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'u' => {
                let hex: String = (&mut chars).take(4).collect();
                let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                out.push(char::from_u32(code).expect("scalar value"));
            }
            other => panic!("unexpected escape \\{other}"),
        }
    }
    out
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_computation() {
    let cache = scratch_dir("coalesce");
    let spec = sweep_spec("fig5").expect("fig5 is registered");
    // Local baseline over the same cache — also warms the traces so
    // the server spends its time simulating, not generating.
    let expected = batch_bytes(&cache, &spec);

    let server = ServerProc::spawn(&cache, false);
    let port = server.port;
    const CLIENTS: usize = 4;
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(move || http(port, "POST", "/sweep/fig5")))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (status, _, body) = h.join().expect("client thread");
                assert_eq!(status, 200);
                body
            })
            .collect()
    });
    for body in &bodies {
        assert_eq!(
            body, &expected,
            "served bytes must equal the batch report exactly"
        );
    }

    let (status, _, metrics) = http(port, "GET", "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("JSONL metrics");
    assert_eq!(
        counter(&metrics, "requests_coalesced"),
        (CLIENTS - 1) as u64,
        "exactly one of {CLIENTS} identical requests may compute"
    );
    let cells = spec.configs.len() * cached_harness(&cache).workloads().len();
    assert_eq!(
        counter(&metrics, "cells_computed"),
        cells as u64,
        "the sweep grid must be walked exactly once"
    );
    assert!(counter(&metrics, "requests_served") >= (CLIENTS + 1) as u64);

    // A later identical request answers from the memoized result:
    // still byte-identical, still no new computation.
    let (_, _, warm) = http(port, "POST", "/sweep/fig5");
    assert_eq!(warm, expected);
    let (_, _, metrics) = http(port, "GET", "/metrics");
    let metrics = String::from_utf8(metrics).expect("JSONL metrics");
    assert_eq!(counter(&metrics, "requests_coalesced"), CLIENTS as u64);
    assert_eq!(counter(&metrics, "cells_computed"), cells as u64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn restarted_server_resumes_warm_from_the_journal() {
    let cache = scratch_dir("restart");
    let spec = sweep_spec("fig5").expect("fig5 is registered");
    let expected = batch_bytes(&cache, &spec);

    // First server life: compute the sweep cold (journaling cells),
    // then shut down gracefully.
    let first = ServerProc::spawn(&cache, true);
    let (status, _, body) = http(first.port, "POST", "/sweep/fig5");
    assert_eq!(status, 200);
    assert_eq!(body, expected, "cold response must match batch bytes");
    first.shutdown();

    // Second life over the same cache: the journal replays every
    // landed cell, so the response is byte-identical with zero cells
    // recomputed.
    let second = ServerProc::spawn(&cache, true);
    let (status, _, body) = http(second.port, "POST", "/sweep/fig5");
    assert_eq!(status, 200);
    assert_eq!(body, expected, "resumed response must match batch bytes");
    let (_, _, metrics) = http(second.port, "GET", "/metrics");
    let metrics = String::from_utf8(metrics).expect("JSONL metrics");
    let cells = spec.configs.len() * cached_harness(&cache).workloads().len();
    assert_eq!(counter(&metrics, "cells_replayed"), cells as u64);
    assert_eq!(
        counter(&metrics, "cells_computed"),
        0,
        "a fully journaled sweep must not recompute anything"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn streaming_events_carry_the_exact_report() {
    let cache = scratch_dir("stream");
    let spec = sweep_spec("fig5").expect("fig5 is registered");
    let expected = batch_bytes(&cache, &spec);

    let server = ServerProc::spawn(&cache, false);
    let (status, head, body) = http(server.port, "POST", "/sweep/fig5?stream=1");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "streaming responses are chunked: {head}"
    );
    let text = String::from_utf8(body).expect("JSONL events");
    let events: Vec<&str> = text.lines().collect();
    assert!(
        events
            .first()
            .is_some_and(|e| e.contains("\"event\":\"accepted\"")),
        "first event must be `accepted`: {events:?}"
    );
    let done = events.last().expect("at least one event");
    assert!(
        done.contains("\"event\":\"done\""),
        "last event must be `done`: {events:?}"
    );
    for middle in &events[1..events.len() - 1] {
        assert!(
            middle.contains("\"event\":\"progress\""),
            "interior events are progress ticks: {middle}"
        );
    }
    let start =
        done.find("\"report\":\"").expect("done carries the report") + "\"report\":\"".len();
    let escaped = &done[start..done.rfind("\"}").expect("report closes the object")];
    assert_eq!(
        json_unescape(escaped).as_bytes(),
        expected,
        "the streamed report must be the exact batch bytes"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn the_error_surface_and_registry_index_answer_correctly() {
    let cache = scratch_dir("errors");
    let server = ServerProc::spawn(&cache, false);
    let port = server.port;

    let (status, _, body) = http(port, "GET", "/sweeps");
    assert_eq!(status, 200);
    let index = String::from_utf8(body).expect("JSONL index");
    assert_eq!(
        index.lines().next(),
        Some(
            r#"{"name":"fig5","title":"Figure 5: AT schemes using different state transition automata","configs":4,"cells":36}"#
        )
    );
    for spec in tlat_sim::sweep_specs() {
        assert!(
            index.contains(&format!("\"name\":\"{}\"", spec.name)),
            "index must list `{}`:\n{index}",
            spec.name
        );
    }

    let (status, _, body) = http(port, "POST", "/sweep/nope");
    assert_eq!(status, 404);
    let body = String::from_utf8(body).expect("JSON error");
    assert_eq!(
        body,
        "{\"error\":\"unknown_sweep\",\"detail\":\"no sweep `nope`; one of: \
         fig5, fig6, fig7, fig8, fig9, fig10, taxonomy\"}\n"
    );

    let (status, _, body) = http(port, "GET", "/status/999");
    assert_eq!(status, 404);
    assert!(String::from_utf8(body)
        .expect("JSON error")
        .contains("unknown_job"));

    let (status, _, _) = http(port, "DELETE", "/sweeps");
    assert_eq!(status, 405, "unknown methods are rejected");

    let (status, _, body) = http(port, "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
