//! Micro-benchmarks: workload trace-generation (interpreter)
//! throughput and TLA3 trace serialization, on the in-repo runner.
//!
//! Run with `cargo bench --bench trace_gen`.

use tlat_bench::runner::Runner;
use tlat_trace::codec;
use tlat_workloads::by_name;

fn main() {
    let smoke = tlat_bench::is_test_pass();

    let mut group = Runner::new("trace_generation");
    let budget = if smoke { 2_000u64 } else { 20_000u64 };
    for name in ["eqntott", "gcc", "matrix300", "li"] {
        let workload = by_name(name).unwrap();
        // Build once outside the timing loop: generation cost is
        // dominated by interpretation, which is what we measure.
        let loaded = workload.build(workload.test_input());
        group
            .throughput(budget)
            .bench(name, || tlat_workloads::run_trace(&loaded, budget).unwrap());
    }

    let workload = by_name("espresso").unwrap();
    let trace = workload
        .trace_test(if smoke { 5_000 } else { 50_000 })
        .unwrap();
    let encoded = codec::encode_v3(&trace);
    let mut group = Runner::new("codec");
    group
        .throughput(encoded.len() as u64)
        .bench("encode", || codec::encode_v3(&trace));
    group
        .throughput(encoded.len() as u64)
        .bench("decode", || codec::decode(&encoded).unwrap());
}
