//! Trace codec throughput: the TLA3 packet format the disk cache
//! reads and writes.
//!
//! Measures what the cache actually pays, on what it actually stores:
//! the nine workload test traces at the default 500 k-branch budget
//! (`SMOKE_BRANCH_LIMIT` in smoke mode). Each row times encode, decode,
//! or one of the two routes from a cache entry to a [`CompiledTrace`]
//! (streaming the TLA3 buffer straight into the compiled stream, or
//! decoding the record vector and compiling it) over all nine traces,
//! and reports ns per record over their sum. Run with
//! `cargo bench --bench trace_io`; four BENCHJSON lines are emitted
//! (`encode_tla3`, `decode_tla3`, `decode_then_compile`,
//! `stream_decode_compiled`) plus a derived speedup line.

use tlat_bench::runner::Runner;
use tlat_trace::{codec, CompiledTrace};

fn main() {
    let branches: u64 = if tlat_bench::is_test_pass() {
        tlat_bench::SMOKE_BRANCH_LIMIT
    } else {
        500_000
    };
    println!("[trace_io] encoding/decoding the nine workload test traces at {branches} branches");
    let traces: Vec<_> = tlat_workloads::all()
        .iter()
        .map(|w| w.trace_test(branches).expect("workload runs"))
        .collect();
    let records: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let encoded: Vec<Vec<u8>> = traces.iter().map(codec::encode_v3).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    println!(
        "[trace_io] bytes/record: TLA3 {:.2} ({bytes} bytes over {records} records)",
        bytes as f64 / records as f64
    );

    let mut group = Runner::new("trace_io");
    group.plan(1, 7);
    group.throughput(records).bench("encode_tla3", || {
        traces
            .iter()
            .map(|t| codec::encode_v3(t).len())
            .sum::<usize>()
    });
    group.plan(1, 7);
    group.throughput(records).bench("decode_tla3", || {
        encoded
            .iter()
            .map(|b| codec::decode(b).unwrap().len())
            .sum::<usize>()
    });

    // The gang sweeps' two routes to a compiled stream: materialize the
    // record vector and compile it, or lower packets straight into the
    // stream (what a cache hit pays).
    group.plan(1, 7);
    let via_records = group.throughput(records).bench("decode_then_compile", || {
        encoded
            .iter()
            .map(|b| CompiledTrace::compile(&codec::decode(b).unwrap()).len())
            .sum::<usize>()
    });
    group.plan(1, 7);
    let streamed = group
        .throughput(records)
        .bench("stream_decode_compiled", || {
            encoded
                .iter()
                .map(|b| codec::decode_compiled(b).unwrap().len())
                .sum::<usize>()
        });
    if streamed.median_ns > 0.0 {
        println!(
            "[trace_io] streaming decode vs decode-then-compile: {:.2}x",
            via_records.median_ns / streamed.median_ns
        );
    }
}
