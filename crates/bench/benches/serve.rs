//! Load generator for `tlat serve`: requests/sec and p50/p99 latency
//! at N concurrent clients, so the ROADMAP's "heavy traffic" goal has
//! a number.
//!
//! An in-process [`Server`] is bound to an ephemeral port and driven
//! over real TCP by client threads. One cold `POST /sweep/fig10`
//! prewarms the memoized result, then each measured target hammers the
//! warm path — the serving overhead itself (accept, parse, route,
//! respond), not the sweep computation, which `sweep.rs` already
//! measures. Every response is asserted byte-identical to the first,
//! so a load spike can never silently corrupt a report.
//!
//! Emits one `BENCHJSON` line per target with `rps`, `p50_ns`, and
//! `p99_ns` (captured into `target/ci-bench/BENCH_serve.json` by
//! `scripts/ci.sh` in smoke mode).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;
use tlat_sim::Server;
use tlat_trace::json::JsonObject;

/// One request over a fresh connection; returns the raw body bytes.
fn request(port: u16, method: &str, path: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to bench server");
    stream
        .write_all(
            format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    assert!(
        raw.starts_with(b"HTTP/1.1 200"),
        "bench requests must succeed: {}",
        String::from_utf8_lossy(&raw[..head_end])
    );
    raw[head_end + 4..].to_vec()
}

/// Drives `clients` threads, each issuing `per_client` requests, and
/// reports aggregate throughput plus the latency distribution.
fn load(port: u16, name: &str, method: &str, path: &str, clients: usize, per_client: usize) {
    let expected = request(port, method, path);
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let t = Instant::now();
                        let body = request(port, method, path);
                        lat.push(t.elapsed().as_nanos() as u64);
                        assert_eq!(
                            &body, expected,
                            "every response under load must match the first byte for byte"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    latencies.sort_unstable();
    let total = latencies.len();
    let pick = |pct: usize| latencies[((total * pct) / 100).min(total - 1)];
    let rps = total as f64 / wall.as_secs_f64();
    let mut line = JsonObject::new();
    line.field("bench", &format!("serve/{name}"))
        .field("clients", &(clients as u64))
        .field("requests", &(total as u64))
        .field("rps", &rps)
        .field("p50_ns", &pick(50))
        .field("p99_ns", &pick(99))
        .field("wall_ns", &(wall.as_nanos() as u64));
    println!("BENCHJSON {}", line.finish());
    println!(
        "[serve] {name}: {clients} clients x {per_client} requests -> {rps:.0} req/s, \
         p50 {:.1} us, p99 {:.1} us",
        pick(50) as f64 / 1e3,
        pick(99) as f64 / 1e3
    );
}

fn main() {
    let harness = tlat_bench::harness("serve");
    let server = Server::bind(harness, "127.0.0.1:0").expect("bind bench server");
    let port = server.local_addr().port();
    let accept_loop = std::thread::spawn(move || server.run());

    // Cold pass: computes the sweep once and memoizes it; everything
    // measured below exercises the warm serving path.
    request(port, "POST", "/sweep/fig10");

    let (clients, per_client) = if tlat_bench::is_test_pass() {
        (4, 8)
    } else {
        (8, 64)
    };
    load(
        port,
        "warm_sweep",
        "POST",
        "/sweep/fig10",
        clients,
        per_client,
    );
    load(port, "sweeps_index", "GET", "/sweeps", clients, per_client);

    request(port, "POST", "/shutdown");
    accept_loop.join().expect("server accept loop");
}
