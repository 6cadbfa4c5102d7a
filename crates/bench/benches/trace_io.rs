//! Trace codec throughput: the TLA3 packet format the disk cache
//! reads and writes.
//!
//! Measures what the cache actually pays — encode, decode, and bytes
//! per record — plus the two routes from a cache entry to a
//! [`CompiledTrace`]: streaming the TLA3 buffer straight into the
//! compiled stream, or decoding the record vector and compiling it.
//! Run with `cargo bench --bench trace_io`; four BENCHJSON lines are
//! emitted (`encode_tla3`, `decode_tla3`, `decode_then_compile`,
//! `stream_decode_compiled`) plus a derived speedup line.

use tlat_bench::runner::Runner;
use tlat_trace::{codec, CompiledTrace};
use tlat_workloads::SyntheticStream;

fn main() {
    let branches: u64 = if tlat_bench::is_test_pass() {
        tlat_bench::SMOKE_BRANCH_LIMIT
    } else {
        500_000
    };
    println!("[trace_io] encoding/decoding {branches} synthetic branches per iteration");
    let trace = SyntheticStream::mixed(0x10a3, 512).generate(branches);
    let records = trace.len() as u64;

    let v3 = codec::encode_v3(&trace);
    println!(
        "[trace_io] bytes/record: TLA3 {:.2} ({} bytes)",
        v3.len() as f64 / records as f64,
        v3.len()
    );

    let mut group = Runner::new("trace_io");
    group.plan(1, 7);
    group.throughput(records).bench("encode_tla3", || codec::encode_v3(&trace).len());
    group.plan(1, 7);
    group
        .throughput(records)
        .bench("decode_tla3", || codec::decode(&v3).unwrap().len());

    // The gang sweeps' two routes to a compiled stream: materialize the
    // record vector and compile it, or lower packets straight into the
    // stream (what a cache hit pays).
    group.plan(1, 7);
    let via_records = group.throughput(records).bench("decode_then_compile", || {
        CompiledTrace::compile(&codec::decode(&v3).unwrap()).len()
    });
    group.plan(1, 7);
    let streamed = group.throughput(records).bench("stream_decode_compiled", || {
        codec::decode_compiled(&v3).unwrap().len()
    });
    if streamed.median_ns > 0.0 {
        println!(
            "[trace_io] streaming decode vs decode-then-compile: {:.2}x",
            via_records.median_ns / streamed.median_ns
        );
    }
}
