#!/usr/bin/env bash
# Tier-1 gate, run hermetically: the workspace must build, test, and
# smoke-run every bench target with the network unplugged, because it
# depends on nothing outside this repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Zero-dependency policy: every [workspace.dependencies] entry must be
# a path dependency into crates/. A version/git/registry entry means an
# off-repo dependency crept back in.
offenders=$(awk '
    /^\[/ { in_table = ($0 == "[workspace.dependencies]") ; next }
    in_table && NF && $0 !~ /^#/ && $0 !~ /\{ *path *=/ { print }
' Cargo.toml)
if [[ -n "$offenders" ]]; then
    echo "error: non-path entries in [workspace.dependencies]:" >&2
    echo "$offenders" >&2
    exit 1
fi

# No build output in git: everything under a target/ directory is
# regenerated by building, testing or running (.gitignore covers it),
# so a tracked file there is a committed artifact.
tracked_output=$(git ls-files -- 'target/*' '*/target/*')
if [[ -n "$tracked_output" ]]; then
    echo "error: build output tracked in git:" >&2
    echo "$tracked_output" >&2
    exit 1
fi

# Formatting: the tree is kept in rustfmt's default style (no
# rustfmt.toml), so the check flags exactly the lines a change adds
# out of style.
cargo fmt --all -- --check

# Tier-1: release build + full test suite, offline, across every
# workspace member (plain `cargo test` would only cover the root
# facade package).
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# API docs: every intra-doc link must resolve, and no public item's
# docs may link a private one.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The paper's claims at the default budget: tests/paper_shape.rs runs
# at 60,000 branches per trace above, and once more here at the
# program's default of 500,000.
TLAT_BRANCH_LIMIT=500000 cargo test -q --release --offline --test paper_shape

# Run collapsing at the default budget: every registered sweep's lanes
# walk the nine test streams to the same results and table statistics
# with collapsing on and forced off (at 20,000 branches above).
TLAT_BRANCH_LIMIT=500000 cargo test -q --release --offline -p tlat-sim --lib \
    experiment::tests::collapsing_long_runs_changes_nothing_on_the_real_streams -- --exact

# Smoke-run every bench target (--test puts them in smoke mode: tiny
# branch budgets, single iterations — see crates/bench/src/lib.rs).
cargo bench -q --offline -p tlat-bench -- --test

# Smoke-mode BENCHJSON captures land under target/, never in the
# tree: 2,000-branch smoke numbers gate "emits valid lines", they are
# not a perf record (perfbench/ measures at the default budget).
bench_dir=target/ci-bench
mkdir -p "$bench_dir"

# Sweep-throughput bench smoke: capture its BENCHJSON lines (one JSON
# object per line) and check the gang engine / worker pool / baseline
# rows are there.
cargo bench -q --offline -p tlat-bench --bench sweep -- --test \
    | sed -n 's/^BENCHJSON //p' > "$bench_dir/BENCH_sweep.json"
[[ -s "$bench_dir/BENCH_sweep.json" ]] || {
    echo "error: sweep bench emitted no BENCHJSON lines" >&2
    exit 1
}
grep -q '"bench":"sweep/fig5_gang_pool"' "$bench_dir/BENCH_sweep.json" || {
    echo "error: sweep bench emitted no fig5 gang + pool measurement" >&2
    exit 1
}

# Serve load-generator smoke: the ROADMAP's "heavy traffic" number.
# Smoke mode drives 4 concurrent clients over real TCP against an
# in-process server; the BENCHJSON lines (rps, p50/p99 latency) are
# captured the same way.
cargo bench -q --offline -p tlat-bench --bench serve -- --test \
    | sed -n 's/^BENCHJSON //p' > "$bench_dir/BENCH_serve.json"
[[ -s "$bench_dir/BENCH_serve.json" ]] || {
    echo "error: serve bench emitted no BENCHJSON lines" >&2
    exit 1
}
grep -q '"bench":"serve/warm_sweep"' "$bench_dir/BENCH_serve.json" || {
    echo "error: serve bench emitted no warm_sweep measurement" >&2
    exit 1
}

# Gang inner-loop bench smoke: the compiled event-stream walk vs the
# raw-record reference walk must both run (and emit BENCHJSON) under
# smoke mode. Capture the full output before grepping: `grep -q` on a
# live pipe exits at first match and the bench would die on SIGPIPE
# printing its remaining lines.
gang_inner_out=$(cargo bench -q --offline -p tlat-bench --bench gang_inner -- --test)
for line in inner_compiled_walk inner_ls_st_walk inner_at_grid_walk inner_fig5_walk \
    inner_taxonomy_walk inner_fig6_walk inner_loop_heavy_walk; do
    grep -q "^BENCHJSON .*$line" <<<"$gang_inner_out" || {
        echo "error: gang_inner bench emitted no $line BENCHJSON line" >&2
        exit 1
    }
done

# Trace-codec bench smoke: TLA3 must encode and decode, and both routes
# to a compiled stream (decode then compile, streaming decode) must
# emit their lines, under smoke mode.
trace_io_out=$(cargo bench -q --offline -p tlat-bench --bench trace_io -- --test)
for line in encode_tla3 decode_tla3 decode_then_compile stream_decode_compiled; do
    grep -q "^BENCHJSON .*$line" <<<"$trace_io_out" || {
        echo "error: trace_io bench emitted no $line BENCHJSON line" >&2
        exit 1
    }
done

# Streaming discipline: the gang sweeps must reach their compiled
# stream through the store's streaming entry points (TLA3 cache
# entries decode straight into CompiledTrace; no per-record Vec in the
# gang path).
for gate in \
    'crates/sim/src/experiment.rs:gang_simulate_isolated_compiled' \
    'crates/sim/src/experiment.rs:try_test_compiled' \
    'crates/sim/src/traces.rs:load_compiled' \
    'crates/sim/src/diskcache.rs:decode_compiled'; do
    file=${gate%%:*}; sym=${gate##*:}
    grep -q "$sym" "$file" || {
        echo "error: $file no longer routes through $sym (streaming decode unwired?)" >&2
        exit 1
    }
done

# Differential smoke at pinned seeds: the property that proves every
# lane kind's walk, under forced plans, byte-identical to the record
# walk, and the one that checks each member of a level-one walk against
# its own predictor event for event, must pass on reproducible case
# sets (the full suite also runs above under a per-property derived
# seed; this pins two known-good seeds so a generator change cannot
# silently shift coverage).
for seed in 20261018 20261019; do
    TLAT_PROP_SEED=$seed TLAT_PROP_CASES=128 \
        cargo test -q --offline -p tlat-sim --lib gang::tests::scalar_lane_walks_match_the_record_walk -- --exact
    TLAT_PROP_SEED=$seed TLAT_PROP_CASES=128 \
        cargo test -q --offline -p tlat-core --test prop walkers_guess_as_predict_update -- --exact
done

# Automaton discipline: inside crates/sim, no walk may fall back to
# stepping a scalar two-bit automaton (that requires materializing an
# AnyAutomaton; the sim crate legitimately handles only AutomatonKind
# tags, and the walks tlat-core builds step CodeTables codes).
if grep -rn 'AnyAutomaton' crates/sim/src; then
    echo "error: crates/sim materializes a scalar AnyAutomaton; walks must step through the walk members' CodeTables codes" >&2
    exit 1
fi

# Concurrency discipline: every thread fan-out in crates/sim must go
# through the bounded worker pool (crates/sim/src/pool.rs); a bare
# scope.spawn elsewhere bypasses the TLAT_THREADS bound.
if grep -rn 'scope\.spawn' crates/sim/src | grep -v '^crates/sim/src/pool\.rs:'; then
    echo "error: bare scope.spawn in crates/sim outside the pool module" >&2
    exit 1
fi

# Error discipline: no new bare `.unwrap()` in crates/sim non-test code
# (everything before the first `#[cfg(test)]` in each file). Handle the
# failure with SimError, `expect("invariant")`, or lock_unpoisoned —
# or, for a genuinely unreachable case, add the exact line to
# scripts/unwrap-allowlist.txt with a justification.
unwraps=$(for f in crates/sim/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)/{print FILENAME":"$0}' "$f"
done | grep -vFf <(grep -vE '^(#|$)' scripts/unwrap-allowlist.txt) || true)
if [[ -n "$unwraps" ]]; then
    echo "error: bare .unwrap() in crates/sim non-test code:" >&2
    echo "$unwraps" >&2
    exit 1
fi

# Fault-injection smoke: a seeded TLAT_FAULTS run over a real sweep
# must recover invisibly — byte-identical report to the clean run —
# and an injected panicking lane must fail exactly one cell while the
# sweep completes. Tiny budget: this gates recovery, not accuracy.
smoke_dir=target/ci-fault-smoke
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
tlat=target/release/tlat
export TLAT_BRANCH_LIMIT=20000
export TLAT_TRACE_CACHE="$smoke_dir/cache"
"$tlat" fig 10 > "$smoke_dir/warm.txt"               # warm the trace cache
"$tlat" fig 10 > "$smoke_dir/clean.txt"              # baseline, served from disk
# Cold-cache and disk-served runs must render byte-identically (the
# disk round-trip through TLA3 is lossless for the report).
if ! diff -u "$smoke_dir/warm.txt" "$smoke_dir/clean.txt"; then
    echo "error: disk-cached fig10 report differs from the cold run" >&2
    exit 1
fi
TLAT_FAULTS=io@0,corrupt@1:42 "$tlat" fig 10 > "$smoke_dir/faulted.txt"
if ! diff -u "$smoke_dir/clean.txt" "$smoke_dir/faulted.txt"; then
    echo "error: recovered fault injection changed the fig10 report" >&2
    exit 1
fi
TLAT_FAULTS=panic@2:42 "$tlat" fig 10 > "$smoke_dir/panicked.txt"
if [[ "$(grep -c '✗' "$smoke_dir/panicked.txt")" != 1 ]] \
    || ! grep -q 'failed: .*injected fault' "$smoke_dir/panicked.txt"; then
    echo "error: injected panic did not fail exactly one cell:" >&2
    cat "$smoke_dir/panicked.txt" >&2
    exit 1
fi
# Checkpoint/resume: a resumed run must replay the journal into a
# byte-identical report.
"$tlat" --resume fig 10 > "$smoke_dir/journaled.txt"
"$tlat" --resume fig 10 > "$smoke_dir/resumed.txt"
if ! diff -u "$smoke_dir/clean.txt" "$smoke_dir/resumed.txt"; then
    echo "error: resumed fig10 report differs from the clean run" >&2
    exit 1
fi

# Supervised sharded sweeps (DESIGN.md "Distributed sweeps"): the sweep
# command must render fig10 byte-identically, and a supervised run
# whose workers keep dying on an injected abort fault must converge by
# crash-restart to the same bytes, with the restarts visible in the
# merged per-worker telemetry. abort@5 hard-exits each worker at its
# 6th cell evaluation: past the first five-config workload batch, so
# every attempt lands journal progress (TLAT_THREADS=1 keeps the batch
# order, and with it the abort's landing point, deterministic).
"$tlat" sweep fig10 > "$smoke_dir/sweep.txt"
if ! diff -u "$smoke_dir/clean.txt" "$smoke_dir/sweep.txt"; then
    echo "error: tlat sweep fig10 differs from tlat fig 10" >&2
    exit 1
fi
# The sweeps whose lanes once read records (fig8's Diff training, fig9's
# static schemes, the taxonomy) must render the same bytes from a cold
# cache (generated traces, compiled in memory) and a warm one (TLA3
# entries decoded straight into compiled streams).
for sweep in fig8 fig9 taxonomy; do
    rm -rf "$smoke_dir/sweep-cache"
    TLAT_TRACE_CACHE="$smoke_dir/sweep-cache" "$tlat" sweep "$sweep" > "$smoke_dir/$sweep-cold.txt"
    TLAT_TRACE_CACHE="$smoke_dir/sweep-cache" "$tlat" sweep "$sweep" > "$smoke_dir/$sweep-warm.txt"
    if ! diff -u "$smoke_dir/$sweep-cold.txt" "$smoke_dir/$sweep-warm.txt"; then
        echo "error: warm-cache tlat sweep $sweep differs from the cold run" >&2
        exit 1
    fi
done
# The taxonomy's tournament derives its component guesses from its AT
# and gshare twins on every workload: a --metrics run must render the
# same bytes and derive one lane per trace walk.
TLAT_TRACE_CACHE="$smoke_dir/sweep-cache" "$tlat" --metrics "$smoke_dir/taxonomy.jsonl" \
    sweep taxonomy > "$smoke_dir/taxonomy-metered.txt"
if ! diff -u "$smoke_dir/taxonomy-cold.txt" "$smoke_dir/taxonomy-metered.txt"; then
    echo "error: --metrics changed the taxonomy report" >&2
    exit 1
fi
counter() { # <name> <jsonl>: the counter's value
    sed -n 's/.*"kind":"counter","name":"'"$1"'","value":\([0-9]*\).*/\1/p' "$2"
}
derived=$(counter lanes_derived "$smoke_dir/taxonomy.jsonl")
walks=$(counter trace_walks "$smoke_dir/taxonomy.jsonl")
if [[ -z "$walks" || "$walks" == 0 || "$derived" != "$walks" ]]; then
    echo "error: the taxonomy sweep derived $derived lanes over $walks trace walks" >&2
    exit 1
fi
# Its scalar walks collapse long same-outcome runs: at this budget
# matrix300 alone still has 299 runs longer than any lane's bound.
collapsed=$(counter events_collapsed "$smoke_dir/taxonomy.jsonl")
if [[ -z "$collapsed" || "$collapsed" == 0 ]]; then
    echo "error: the taxonomy sweep's walks collapsed no events" >&2
    exit 1
fi
# fig9's Lee & Smith lanes walk as scalar lanes and collapse long runs
# too; a --metrics run must render the cold run's bytes.
TLAT_TRACE_CACHE="$smoke_dir/sweep-cache" "$tlat" --metrics "$smoke_dir/fig9.jsonl" \
    sweep fig9 > "$smoke_dir/fig9-metered.txt"
if ! diff -u "$smoke_dir/fig9-cold.txt" "$smoke_dir/fig9-metered.txt"; then
    echo "error: --metrics changed the fig9 report" >&2
    exit 1
fi
collapsed=$(counter events_collapsed "$smoke_dir/fig9.jsonl")
if [[ -z "$collapsed" || "$collapsed" == 0 ]]; then
    echo "error: the fig9 sweep's walks collapsed no events" >&2
    exit 1
fi
# Lanes of one walker kind on one table walk as one group: fig5's four
# AT lanes on the paper AHRT form one, while fig6's five lanes, one per
# table, walk alone.
for sweep in fig5 fig6; do
    TLAT_TRACE_CACHE="$smoke_dir/sweep-cache" "$tlat" --metrics "$smoke_dir/$sweep.jsonl" \
        sweep "$sweep" > /dev/null
done
grouped=$(counter lanes_grouped "$smoke_dir/fig5.jsonl")
if [[ -z "$grouped" || "$grouped" == 0 ]]; then
    echo "error: the fig5 sweep walked no lane in a group" >&2
    exit 1
fi
grouped=$(counter lanes_grouped "$smoke_dir/fig6.jsonl")
if [[ "$grouped" != 0 ]]; then
    echo "error: the fig6 sweep walked ${grouped:-an unknown number of} lanes in groups" >&2
    exit 1
fi
rm -rf "$smoke_dir/cache/sweeps"                     # force a cold journal
TLAT_THREADS=1 TLAT_FAULTS=abort@5:7 TLAT_METRICS="$smoke_dir/sup.jsonl" \
    "$tlat" sweep --workers 2 fig10 > "$smoke_dir/supervised.txt" 2> "$smoke_dir/sup.log"
if ! diff -u "$smoke_dir/clean.txt" "$smoke_dir/supervised.txt"; then
    echo "error: supervised fig10 under worker abort faults differs from the clean run" >&2
    cat "$smoke_dir/sup.log" >&2
    exit 1
fi
if ! grep '"kind":"counter","name":"worker_restarts"' "$smoke_dir/sup.jsonl" \
    | grep -vq '"value":0'; then
    echo "error: supervised abort-fault run recorded no worker restarts" >&2
    cat "$smoke_dir/sup.log" >&2
    exit 1
fi
"$tlat" stats "$smoke_dir/sup.jsonl" "$smoke_dir"/sup.jsonl.worker* \
    > "$smoke_dir/sup-merged.txt"
grep -q 'worker_restarts' "$smoke_dir/sup-merged.txt" || {
    echo "error: merged telemetry summary lost the worker_restarts counter" >&2
    exit 1
}

# Orphaned-journal GC: the default 7-day age guard must keep every
# fresh journal (including a stale-looking one just planted), and
# `gc --all` must collect unclaimed sweep directories.
mkdir -p "$smoke_dir/cache/sweeps/sweep-00000000deadbeef"
echo "orphan" > "$smoke_dir/cache/sweeps/sweep-00000000deadbeef/c0-w0.cell"
"$tlat" gc > "$smoke_dir/gc-default.txt"
grep -q '^collected 0 ' "$smoke_dir/gc-default.txt" || {
    echo "error: tlat gc collected a journal younger than the age guard" >&2
    cat "$smoke_dir/gc-default.txt" >&2
    exit 1
}
"$tlat" gc --all > "$smoke_dir/gc-all.txt"
if grep -q '^collected 0 ' "$smoke_dir/gc-all.txt" \
    || [[ -d "$smoke_dir/cache/sweeps/sweep-00000000deadbeef" ]]; then
    echo "error: tlat gc --all left orphaned sweep journals behind" >&2
    cat "$smoke_dir/gc-all.txt" >&2
    exit 1
fi

# Telemetry smoke (OBSERVABILITY.md): a --metrics run must render a
# byte-identical report, its JSONL must pass the schema check, and the
# default-off path must emit no file.
"$tlat" --metrics "$smoke_dir/m.jsonl" fig 10 > "$smoke_dir/metered.txt"
if ! diff -u "$smoke_dir/clean.txt" "$smoke_dir/metered.txt"; then
    echo "error: --metrics changed the fig10 report" >&2
    exit 1
fi
[[ -s "$smoke_dir/m.jsonl" ]] || {
    echo "error: --metrics run emitted no telemetry file" >&2
    exit 1
}
"$tlat" stats --check "$smoke_dir/m.jsonl"
rm -f "$smoke_dir/m.jsonl"
"$tlat" fig 10 > /dev/null                           # default-off: no file
if [[ -e "$smoke_dir/m.jsonl" ]]; then
    echo "error: telemetry file appeared without TLAT_METRICS/--metrics" >&2
    exit 1
fi

# TLA3 cache format + dump smoke: entries must be packet-format on
# disk, and a `tlat dump` file must read back through `tlat simulate`.
entry=$(ls "$smoke_dir"/cache/*-test-*.tlat | head -n1)
if ! head -c4 "$entry" | grep -q 'TLA3'; then
    echo "error: trace cache entry $entry is not in the TLA3 packet format" >&2
    exit 1
fi
"$tlat" dump li "$smoke_dir/li.tlat" > /dev/null
"$tlat" simulate "$smoke_dir/li.tlat" 1 > "$smoke_dir/simulated.txt"
grep -q 'accuracy' "$smoke_dir/simulated.txt" || {
    echo "error: tlat simulate printed no accuracy line for a dumped trace" >&2
    cat "$smoke_dir/simulated.txt" >&2
    exit 1
}

# Corrupt-TLA3 eviction: injected truncation of packet entries must
# evict and regenerate invisibly — identical report, nonzero
# cache_evictions.
TLAT_FAULTS=corrupt@0:2 TLAT_METRICS="$smoke_dir/evict.jsonl" \
    "$tlat" fig 10 > "$smoke_dir/evicted.txt"
if ! diff -u "$smoke_dir/clean.txt" "$smoke_dir/evicted.txt"; then
    echo "error: corrupt-TLA3 eviction changed the fig10 report" >&2
    exit 1
fi
if ! grep '"kind":"counter","name":"cache_evictions"' "$smoke_dir/evict.jsonl" \
    | grep -vq '"value":0'; then
    echo "error: injected TLA3 corruption evicted nothing" >&2
    exit 1
fi
# Serve smoke (SERVING.md): a real `tlat serve` process must answer a
# sweep request with exactly the batch bytes, count it in /metrics,
# shut down gracefully on POST /shutdown, and — restarted over the same
# journal — come back warm (all cells replayed, none recomputed).
serve_req() { # <port> <method> <path> <body-outfile>
    exec 9<>"/dev/tcp/127.0.0.1/$1"
    printf '%s %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$2" "$3" >&9
    cat <&9 > "$4.raw"
    exec 9<&- 9>&-
    sed -e '1,/^\r$/d' "$4.raw" > "$4"   # strip the response head
}
serve_start() { # <logfile>; sets $serve_pid and $serve_port
    TLAT_RESUME=1 TLAT_SERVE_ADDR=127.0.0.1:0 "$tlat" serve > "$1" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
        if grep -q 'serving on' "$1"; then break; fi
        sleep 0.1
    done
    serve_port=$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$1")
    [[ -n "$serve_port" ]] || {
        echo "error: tlat serve never printed its ready line" >&2
        cat "$1" >&2
        exit 1
    }
}
serve_start "$smoke_dir/serve.log"
serve_req "$serve_port" POST /sweep/fig10 "$smoke_dir/served.txt"
if ! diff -u "$smoke_dir/sweep.txt" "$smoke_dir/served.txt"; then
    echo "error: served fig10 report differs from the batch sweep" >&2
    exit 1
fi
serve_req "$serve_port" POST /sweep/taxonomy "$smoke_dir/served-taxonomy.txt"
if ! diff -u "$smoke_dir/taxonomy-cold.txt" "$smoke_dir/served-taxonomy.txt"; then
    echo "error: served taxonomy report differs from the batch sweep" >&2
    exit 1
fi
serve_req "$serve_port" GET /metrics "$smoke_dir/serve-metrics.jsonl"
if ! grep '"kind":"counter","name":"requests_served"' "$smoke_dir/serve-metrics.jsonl" \
    | grep -vq '"value":0'; then
    echo "error: /metrics recorded no served requests" >&2
    exit 1
fi
serve_req "$serve_port" POST /shutdown "$smoke_dir/serve-bye.txt"
wait "$serve_pid" || {
    echo "error: tlat serve exited nonzero after graceful shutdown" >&2
    cat "$smoke_dir/serve.log" >&2
    exit 1
}
serve_start "$smoke_dir/serve2.log"
serve_req "$serve_port" POST /sweep/fig10 "$smoke_dir/served-resumed.txt"
if ! diff -u "$smoke_dir/sweep.txt" "$smoke_dir/served-resumed.txt"; then
    echo "error: restarted server's fig10 report differs from the batch sweep" >&2
    exit 1
fi
serve_req "$serve_port" GET /metrics "$smoke_dir/serve-metrics2.jsonl"
if ! grep '"kind":"counter","name":"cells_replayed"' "$smoke_dir/serve-metrics2.jsonl" \
    | grep -vq '"value":0'; then
    echo "error: restarted server replayed nothing from the journal" >&2
    exit 1
fi
if ! grep -q '"kind":"counter","name":"cells_computed","value":0' \
    "$smoke_dir/serve-metrics2.jsonl"; then
    echo "error: restarted server recomputed cells a warm journal should replay" >&2
    exit 1
fi
serve_req "$serve_port" POST /shutdown "$smoke_dir/serve-bye2.txt"
wait "$serve_pid" || {
    echo "error: restarted tlat serve exited nonzero after graceful shutdown" >&2
    cat "$smoke_dir/serve2.log" >&2
    exit 1
}

unset TLAT_BRANCH_LIMIT TLAT_TRACE_CACHE

# Environment-variable documentation: every TLAT_* variable read in the
# sources must have a row in README.md's "Environment variables" table.
env_vars=$(grep -rhoE '"TLAT_[A-Z_]+"' crates src tests examples 2>/dev/null \
    | tr -d '"' | sort -u)
# The serve layer's knobs must be visible to this gate — if the extract
# pattern goes stale, fail loudly instead of silently gating nothing.
for must in TLAT_SERVE_ADDR TLAT_SERVE_BACKLOG TLAT_METRICS; do
    grep -qx "$must" <<<"$env_vars" || {
        echo "error: env-table gate no longer sees $must in the sources" >&2
        exit 1
    }
done
undocumented=$(while read -r var; do
        grep -q "^| \`$var\`" README.md || echo "$var"
    done <<<"$env_vars")
if [[ -n "$undocumented" ]]; then
    echo "error: TLAT_ variables read in code but missing from README.md's table:" >&2
    echo "$undocumented" >&2
    exit 1
fi

# Documentation integrity: every intra-repo markdown link and every
# crates/... path mentioned in the top-level docs must exist, so the
# docs cannot drift from the tree they describe.
doc_dead=$(for doc in README.md DESIGN.md EXPERIMENTS.md OBSERVABILITY.md \
                      SERVING.md ROADMAP.md; do
    { grep -oE '\]\([^)]+\)' "$doc" || true; } \
        | sed -e 's/^](//' -e 's/)$//' \
        | { grep -vE '^(https?:|#|mailto:)' || true; } | sed 's/#.*$//' | sort -u \
        | while read -r target; do
            [[ -e "$target" ]] || echo "$doc: broken link -> $target"
        done
    { grep -oE 'crates/[A-Za-z0-9_./-]+' "$doc" || true; } \
        | sed 's/[.,;:]$//' | sort -u \
        | while read -r path; do
            [[ -e "${path%/}" ]] || echo "$doc: missing path -> $path"
        done
done)
if [[ -n "$doc_dead" ]]; then
    echo "error: stale references in docs:" >&2
    echo "$doc_dead" >&2
    exit 1
fi

# Non-test line counts (informational, never gating): non-blank lines
# not starting with `//`, skipping every `#[cfg(test)]` item wherever
# it sits in the file (braces inside string and char literals are
# ignored when finding the item's end).
for dir in crates/core/src crates/trace/src crates/sim/src crates/cli/src; do
    awk -v dir="$dir" '
        FNR == 1 { skip = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (skip) {
                code = line
                gsub(/\\./, "", code)
                gsub(/"[^"]*"/, "", code)
                gsub(/'\''.'\''/, "", code)
                sub(/\/\/.*/, "", code)
                opens = gsub(/\{/, "{", code)
                depth += opens - gsub(/\}/, "}", code)
                if (opens) opened = 1
                if ((opened && depth <= 0) || (!opened && code ~ /;[ \t]*$/)) skip = 0
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) { skip = 1; depth = 0; opened = 0; next }
            if (line == "" || line ~ /^\/\//) next
            n++
        }
        END { printf "non-test lines: %-18s %6d\n", dir, n }' "$dir"/*.rs
done

echo "ci: OK"
