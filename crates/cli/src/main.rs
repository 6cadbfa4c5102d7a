//! `tlat` — command-line driver for the Two-Level Adaptive Training
//! reproduction.
//!
//! ```text
//! tlat table 1|2|3          regenerate a paper table
//! tlat fig 3|4|5|...|10     regenerate a paper figure
//! tlat all                  regenerate everything
//! tlat sweep [name]         run a registered sweep (default fig10)
//! tlat serve [--addr a:p]   long-lived HTTP sweep server (SERVING.md)
//! tlat gc [--all]           collect orphaned sweep journals
//! tlat stats                per-benchmark trace statistics
//! tlat stats <file>...      summarize telemetry (merged when several)
//! tlat stats --check <file>... validate telemetry files
//! tlat run <config-index>   simulate one Table 2 configuration
//! tlat list                 list Table 2 configurations with indices
//! ```
//!
//! The conditional-branch budget per benchmark defaults to 500 000 and
//! can be overridden with the `TLAT_BRANCH_LIMIT` environment variable.
//! Sweeps run on a bounded worker pool (`TLAT_THREADS`, or the
//! `--threads` flag) and generated traces persist in a disk cache
//! (`TLAT_TRACE_CACHE`, or `--cache-dir`/`--no-cache`) so repeat runs
//! skip workload interpretation entirely.
//!
//! Sweeps are fault-tolerant: a panicking or erroring cell is isolated
//! (rendered `✗` with a footnote) instead of killing the run, and
//! `--resume` (= `TLAT_RESUME=1`) checkpoints completed cells under
//! the trace cache so a killed sweep recomputes only what is missing.
//! `TLAT_FAULTS=<spec>:<seed>` injects deterministic faults for
//! testing the recovery paths (see EXPERIMENTS.md).
//!
//! Sweeps also scale across processes on the same journal:
//! `tlat sweep --shard i/N <name>` computes one deterministic slice of
//! the cells, and `tlat sweep --workers N <name>` spawns one worker
//! per shard, restarts crashed or hung workers (capped backoff, strike
//! limit, `TLAT_WORKER_TIMEOUT` heartbeat liveness), and renders the
//! final report from the landed journal — byte-identical to an
//! uninterrupted single-process run. `tlat gc` collects orphaned
//! journal directories left behind by abandoned sweeps.
//!
//! `tlat serve` keeps the whole stack resident behind a socket: a
//! zero-dependency HTTP/1.1 server (`TLAT_SERVE_ADDR`, default
//! `127.0.0.1:7091`) answering sweep, figure, and diagnostic requests
//! from one shared harness — identical concurrent sweep requests
//! coalesce into one computation, results memoize, and response bytes
//! match the batch CLI exactly. The wire protocol is specified in
//! SERVING.md.
//!
//! `--metrics <path>` (= `TLAT_METRICS=<path>`) records counters and
//! phase timings during the run and writes them as JSONL at exit;
//! `tlat stats <path>` renders the file (several files merge into one
//! summary) and `tlat stats --check <path>...` validates each. The
//! schema is documented in OBSERVABILITY.md. Recording never changes
//! report output — stdout stays byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;
use std::time::Duration;
use tlat_sim::{table2, Harness, PipelineModel};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tlat [flags] <command>\n\
         flags:\n\
         \u{20}  --threads <n>     worker-pool size (= TLAT_THREADS)\n\
         \u{20}  --cache-dir <dir> trace-cache directory (= TLAT_TRACE_CACHE)\n\
         \u{20}  --no-cache        disable the persistent trace cache\n\
         \u{20}  --resume          checkpoint sweep cells; resume a killed sweep (= TLAT_RESUME=1)\n\
         \u{20}  --shard <i/N>     compute only shard i of N sweep slices (= TLAT_SHARD)\n\
         \u{20}  --workers <n>     supervise n shard worker processes (= TLAT_WORKERS)\n\
         \u{20}  --metrics <path>  write run telemetry as JSONL (= TLAT_METRICS)\n\
         commands:\n\
         \u{20}  table <1|2|3>     regenerate a paper table\n\
         \u{20}  fig <3..10>       regenerate a paper figure\n\
         \u{20}  all               regenerate every table and figure\n\
         \u{20}  sweep [name]      run a registered sweep (fig5..fig10, taxonomy; default fig10)\n\
         \u{20}  serve [--addr <host:port>]  long-lived HTTP sweep server (= TLAT_SERVE_ADDR)\n\
         \u{20}  gc [--all]        collect orphaned sweep journals (--all ignores the age guard)\n\
         \u{20}  stats             per-benchmark trace statistics\n\
         \u{20}  stats <file>...   summarize telemetry (several files merge into one summary)\n\
         \u{20}  stats --check <file>...  validate telemetry files\n\
         \u{20}  list              list Table 2 configurations\n\
         \u{20}  run <index>       simulate one Table 2 configuration\n\
         \u{20}  diagnose <bench> [i]  worst sites for a scheme\n\
         \u{20}  taxonomy          GAg/GAs/PAg/PAs extension comparison\n\
         \u{20}  cost              pipeline CPI under the flush model\n\
         \u{20}  dump <bench> <file>  write a benchmark's test trace as TLA3\n\
         \u{20}  simulate <file> [i]  run a config over a trace file\n\
         \u{20}  warmup <bench> [i]   windowed accuracy curve\n\
         \u{20}  report            full experiment log as markdown\n\
         environment: TLAT_BRANCH_LIMIT (default 500000),\n\
         \u{20}             TLAT_THREADS (default: all cores),\n\
         \u{20}             TLAT_TRACE_CACHE (default target/tlat-cache; 0/off disables),\n\
         \u{20}             TLAT_RESUME (1/on enables sweep checkpoint/resume),\n\
         \u{20}             TLAT_SHARD (i/N sweep slice), TLAT_WORKERS (supervised worker count),\n\
         \u{20}             TLAT_WORKER_TIMEOUT (seconds of heartbeat silence before a worker is killed),\n\
         \u{20}             TLAT_FAULTS (deterministic fault injection, e.g. io@0,corrupt@1,panic@2:42),\n\
         \u{20}             TLAT_METRICS (telemetry JSONL output path),\n\
         \u{20}             TLAT_SERVE_ADDR (serve listen address, default 127.0.0.1:7091),\n\
         \u{20}             TLAT_SERVE_BACKLOG (serve connection cap; see README.md for the full table)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags, consumed before the subcommand. They act by setting
    // the corresponding environment variable, so the harness (and any
    // code it spawns) picks them up through the one configuration path.
    loop {
        match args.first().map(String::as_str) {
            Some("--threads") => {
                let Some(n) = args.get(1) else { return usage() };
                std::env::set_var("TLAT_THREADS", n);
                args.drain(..2);
            }
            Some("--cache-dir") => {
                let Some(dir) = args.get(1) else {
                    return usage();
                };
                std::env::set_var("TLAT_TRACE_CACHE", dir);
                args.drain(..2);
            }
            Some("--no-cache") => {
                std::env::set_var("TLAT_TRACE_CACHE", "off");
                args.drain(..1);
            }
            Some("--resume") => {
                std::env::set_var("TLAT_RESUME", "1");
                args.drain(..1);
            }
            Some("--shard") => {
                let Some(s) = args.get(1) else { return usage() };
                std::env::set_var("TLAT_SHARD", s);
                args.drain(..2);
            }
            Some("--workers") => {
                let Some(n) = args.get(1) else { return usage() };
                std::env::set_var("TLAT_WORKERS", n);
                args.drain(..2);
            }
            Some("--metrics") => {
                let Some(path) = args.get(1) else {
                    return usage();
                };
                std::env::set_var("TLAT_METRICS", path);
                args.drain(..2);
            }
            _ => break,
        }
    }
    // `--shard` / `--workers` also parse after the subcommand
    // (`tlat sweep --workers 4`), but they configure the harness, so
    // they must reach the environment before it is built: hoist any
    // remaining occurrence here.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shard" | "--workers" => {
                let Some(value) = args.get(i + 1).cloned() else {
                    return usage();
                };
                let var = if args[i] == "--shard" {
                    "TLAT_SHARD"
                } else {
                    "TLAT_WORKERS"
                };
                std::env::set_var(var, value);
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    let harness = Harness::from_env();
    match args.first().map(String::as_str) {
        Some("table") => match args.get(1).map(String::as_str) {
            Some("1") => println!("{}", harness.table1()),
            Some("2") => println!("{}", harness.table2()),
            Some("3") => println!("{}", harness.table3()),
            _ => return usage(),
        },
        Some("fig") => match args.get(1).map(String::as_str) {
            Some("3") => println!("{}", harness.figure3()),
            Some("4") => println!("{}", harness.figure4()),
            Some("5") => println!("{}", harness.figure5()),
            Some("6") => println!("{}", harness.figure6()),
            Some("7") => println!("{}", harness.figure7()),
            Some("8") => println!("{}", harness.figure8()),
            Some("9") => println!("{}", harness.figure9()),
            Some("10") => println!("{}", harness.figure10()),
            _ => return usage(),
        },
        Some("all") => {
            println!("{}", harness.table1());
            println!("{}", harness.table2());
            println!("{}", harness.table3());
            println!("{}", harness.figure3());
            println!("{}", harness.figure4());
            println!("{}", harness.figure5());
            println!("{}", harness.figure6());
            println!("{}", harness.figure7());
            println!("{}", harness.figure8());
            println!("{}", harness.figure9());
            println!("{}", harness.figure10());
        }
        Some("sweep") => {
            let name = args.get(1).map(String::as_str).unwrap_or("fig10");
            let Some(spec) = tlat_sim::sweep_spec(name) else {
                eprintln!(
                    "unknown sweep `{name}`; one of: {}",
                    tlat_sim::sweep_specs()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::FAILURE;
            };
            let shard = tlat_sim::Shard::from_env();
            let workers = tlat_sim::supervisor::workers_from_env();
            match (shard, workers) {
                // Supervisor: spawn one worker process per shard over
                // the shared journal, restart crashes, render the
                // report from what landed. A worker inherits this
                // environment minus TLAT_WORKERS (so it computes its
                // shard instead of supervising recursively) and writes
                // telemetry to a per-worker side file so restarts and
                // retried cells stay visible after a merge.
                (None, Some(n)) => {
                    let exe = match std::env::current_exe() {
                        Ok(exe) => exe,
                        Err(e) => {
                            eprintln!("cannot locate the tlat binary to spawn workers: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let metrics_base = std::env::var("TLAT_METRICS").ok().filter(|s| !s.is_empty());
                    let mut make_worker = |shard: tlat_sim::Shard| {
                        let mut cmd = std::process::Command::new(&exe);
                        cmd.arg("sweep").arg(name);
                        cmd.env("TLAT_SHARD", shard.to_string());
                        cmd.env_remove("TLAT_WORKERS");
                        if let Some(base) = &metrics_base {
                            cmd.env("TLAT_METRICS", format!("{base}.worker{}", shard.index));
                        }
                        // The worker's report is a partial duplicate of
                        // the supervisor's final render; only its
                        // journal records matter.
                        cmd.stdout(std::process::Stdio::null());
                        cmd
                    };
                    let opts = tlat_sim::SupervisorOptions::new(n);
                    match tlat_sim::run_supervised(
                        &harness,
                        spec.title,
                        &spec.configs,
                        &mut make_worker,
                        &opts,
                    ) {
                        Ok((mut report, outcomes)) => {
                            for note in &spec.notes {
                                report.push_note(*note);
                            }
                            println!("{report}");
                            for o in &outcomes {
                                eprintln!(
                                    "supervisor: shard {} — {} spawn(s), {} restart(s), \
                                     {} timeout(s), {} cell(s) landed{}",
                                    o.shard,
                                    o.spawns,
                                    o.restarts,
                                    o.timeouts,
                                    o.landed,
                                    if o.exhausted { ", exhausted" } else { "" }
                                );
                            }
                        }
                        Err(e) => {
                            eprintln!("sweep supervisor: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                // Worker (or a hand-run shard): heartbeat into the
                // journal directory while computing this shard's slice.
                // TLAT_SHARD wins over TLAT_WORKERS so a worker that
                // somehow inherits both never forks its own fleet.
                (Some(shard), _) => {
                    let period = tlat_sim::supervisor::worker_timeout_from_env()
                        .map_or(Duration::from_millis(500), |t| {
                            (t / 4).max(Duration::from_millis(10))
                        });
                    let heartbeat = harness.sweep_journal(spec.title, &spec.configs).map(|j| {
                        tlat_sim::supervisor::start_heartbeat(j.dir(), shard.index, period)
                    });
                    println!("{}", harness.run_sweep(&spec));
                    drop(heartbeat);
                }
                (None, None) => println!("{}", harness.run_sweep(&spec)),
            }
        }
        Some("serve") => {
            let addr = match args.get(1).map(String::as_str) {
                Some("--addr") => match args.get(2) {
                    Some(a) => a.clone(),
                    None => return usage(),
                },
                Some(_) => return usage(),
                None => tlat_sim::serve::addr_from_env(),
            };
            let server = match tlat_sim::Server::bind(harness, &addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("tlat serve: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The ready line goes to stdout (line-buffered, so it
            // flushes even when piped) — scripts wait for it before
            // sending requests.
            println!(
                "serving on http://{} ({} sweeps registered)",
                server.local_addr(),
                tlat_sim::sweep_specs().len()
            );
            server.run();
        }
        Some("gc") => {
            let min_age = match args.get(1).map(String::as_str) {
                None => tlat_sim::supervisor::GC_MIN_AGE,
                Some("--all") => Duration::ZERO,
                Some(_) => return usage(),
            };
            let Some(cache) = harness.store().disk_cache() else {
                eprintln!("gc needs the trace cache (TLAT_TRACE_CACHE); nothing to collect");
                return ExitCode::FAILURE;
            };
            let root = cache.root().join("sweeps");
            let stats = tlat_sim::journal::gc(&root, &[], min_age);
            println!(
                "collected {} sweep journal(s) ({} bytes), kept {}",
                stats.removed, stats.bytes, stats.kept
            );
        }
        Some("stats") => match args.get(1).map(String::as_str) {
            // No argument: the original per-benchmark trace statistics.
            None => {
                for (w, trace) in harness.workloads().iter().zip(harness.test_traces()) {
                    let stats = trace.stats();
                    println!(
                        "{:<12} dyn-cond {:>9}  static-cond {:>6}  taken {:>6.2}%  branch-frac {:>6.2}%",
                        w.name,
                        stats.dynamic_conditional_branches,
                        stats.static_conditional_branches,
                        stats.taken_rate * 100.0,
                        stats.branch_fraction() * 100.0,
                    );
                }
            }
            // Telemetry files: validate each, then either report
            // per-file (--check) or summarize — several files (e.g.
            // one per supervised worker) merge into one summary.
            Some(first) => {
                let checking = first == "--check";
                let paths: Vec<&String> = if checking {
                    args.iter().skip(2).collect()
                } else {
                    args.iter().skip(1).collect()
                };
                if paths.is_empty() {
                    return usage();
                }
                let mut files = Vec::new();
                for path in &paths {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("cannot read {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match tlat_sim::metrics::check(&text) {
                        Ok(file) => {
                            if checking {
                                println!(
                                    "{path}: ok (schema v{}, {} counters, {} spans, {} cell groups)",
                                    file.schema,
                                    file.counters.len(),
                                    file.spans.len(),
                                    file.cells.len()
                                );
                            } else {
                                files.push(file);
                            }
                        }
                        Err(e) => {
                            eprintln!("{path}: invalid telemetry: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if !checking {
                    let merged = match files.len() {
                        1 => Ok(files.remove(0)),
                        _ => tlat_sim::metrics::merge(&files),
                    };
                    let file = match merged {
                        Ok(file) => file,
                        Err(e) => {
                            eprintln!("cannot merge telemetry: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    print!("{}", tlat_sim::metrics::summarize(&file));
                }
            }
        },
        Some("list") => {
            for (i, config) in table2().iter().enumerate() {
                println!("{i:>3}  {}", config.label());
            }
        }
        Some("run") => {
            let Some(index) = args.get(1).and_then(|s| s.parse::<usize>().ok()) else {
                return usage();
            };
            let configs = table2();
            let Some(config) = configs.get(index) else {
                eprintln!("index out of range; `tlat list` shows valid indices");
                return ExitCode::FAILURE;
            };
            println!(
                "{}",
                harness.accuracy_table(&config.label(), std::slice::from_ref(config))
            );
        }
        Some("diagnose") => {
            let Some(bench) = args.get(1) else {
                return usage();
            };
            let Some(workload) = tlat_workloads::by_name(bench) else {
                eprintln!(
                    "unknown benchmark `{bench}`; the suite: {:?}",
                    tlat_workloads::all()
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                );
                return ExitCode::FAILURE;
            };
            let index = args
                .get(2)
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(1); // AT(AHRT(512,12SR),PT(2^12,A2)) by default
            let configs = table2();
            let Some(config) = configs.get(index) else {
                eprintln!("index out of range; `tlat list` shows valid indices");
                return ExitCode::FAILURE;
            };
            let Some(mut predictor) = harness.predictor(config, &workload) else {
                eprintln!("{bench} has no Diff training set");
                return ExitCode::FAILURE;
            };
            let trace = harness.store().test(&workload);
            println!("{} on {}:", config.label(), bench);
            println!(
                "{}",
                tlat_sim::worst_sites_report(predictor.as_mut(), &trace, 20)
            );
        }
        Some("taxonomy") => println!("{}", harness.taxonomy()),
        Some("cost") => {
            println!("{}", harness.performance_table(PipelineModel::deep()));
            println!(
                "{}",
                harness.performance_table(PipelineModel::superscalar())
            );
        }
        Some("report") => {
            // Full experiment log as markdown (EXPERIMENTS.md shape).
            println!("# Regenerated experiment report\n");
            println!(
                "Budget: {} conditional branches per benchmark.\n",
                harness.store().budget()
            );
            println!("{}", harness.table1().to_markdown());
            println!("{}", harness.figure3().to_markdown());
            println!("{}", harness.figure4().to_markdown());
            println!("{}", harness.figure5().to_markdown());
            println!("{}", harness.figure6().to_markdown());
            println!("{}", harness.figure7().to_markdown());
            println!("{}", harness.figure8().to_markdown());
            println!("{}", harness.figure9().to_markdown());
            println!("{}", harness.figure10().to_markdown());
            println!("{}", harness.taxonomy().to_markdown());
        }
        Some("simulate") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Binary traces start with a TLA* magic (only TLA3 decodes;
            // an older one fails naming the format it wants); anything
            // else is tried as the text format.
            let trace = if bytes.starts_with(b"TLA") {
                tlat_trace::codec::decode(&bytes)
            } else {
                match std::str::from_utf8(&bytes) {
                    Ok(text) => tlat_trace::codec::decode_text(text),
                    Err(_) => {
                        eprintln!("{path} is neither a binary nor a text trace");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let trace = match trace {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot decode {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let index = args
                .get(2)
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(1);
            let configs = table2();
            let Some(config) = configs.get(index) else {
                eprintln!("index out of range; `tlat list` shows valid indices");
                return ExitCode::FAILURE;
            };
            // External traces have no training twin: trained schemes
            // profile the trace itself (Same semantics).
            let mut predictor = config.build(config.needs_training().then_some(&trace));
            let result = tlat_sim::simulate(predictor.as_mut(), &trace);
            println!(
                "{} on {path} ({} conditional branches):",
                config.label(),
                result.conditional.predicted
            );
            println!(
                "  accuracy {:.2} %   miss rate {:.2} %   RAS accuracy {:.2} %",
                result.accuracy() * 100.0,
                result.conditional.miss_rate() * 100.0,
                result.ras.accuracy() * 100.0
            );
        }
        Some("warmup") => {
            let Some(bench) = args.get(1) else {
                return usage();
            };
            let Some(workload) = tlat_workloads::by_name(bench) else {
                eprintln!("unknown benchmark `{bench}`");
                return ExitCode::FAILURE;
            };
            let index = args
                .get(2)
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(1);
            let configs = table2();
            let Some(config) = configs.get(index) else {
                eprintln!("index out of range; `tlat list` shows valid indices");
                return ExitCode::FAILURE;
            };
            let Some(mut predictor) = harness.predictor(config, &workload) else {
                eprintln!("{bench} has no Diff training set");
                return ExitCode::FAILURE;
            };
            let trace = harness.store().test(&workload);
            let window = (trace.conditional_len() / 20).max(1);
            let curve = tlat_sim::windowed_accuracy(predictor.as_mut(), &trace, window);
            println!(
                "{} on {bench}, windows of {window} conditional branches:",
                config.label()
            );
            for (i, acc) in curve.iter().enumerate() {
                let bar = "#".repeat(((acc - 0.5).max(0.0) * 100.0) as usize);
                println!("  window {i:>3}  {:>6.2} %  {bar}", acc * 100.0);
            }
        }
        Some("dump") => {
            let (Some(bench), Some(path)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let Some(workload) = tlat_workloads::by_name(bench) else {
                eprintln!("unknown benchmark `{bench}`");
                return ExitCode::FAILURE;
            };
            let trace = harness.store().test(&workload);
            let bytes = tlat_trace::codec::encode_v3(&trace);
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} branches ({} bytes) to {path}",
                trace.len(),
                bytes.len()
            );
        }
        _ => return usage(),
    }
    // Telemetry goes to its side-channel file last, after every report
    // has been printed — stdout is never touched.
    tlat_sim::metrics::emit_from_env();
    ExitCode::SUCCESS
}
