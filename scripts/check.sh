#!/usr/bin/env bash
# Repository gate: formatting, lints, build, and the full test suite.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo run -q -p asd-lint --offline
run cargo build --workspace --all-targets --offline
# Rustdoc with warnings as errors: a broken or private intra-doc link
# (say, to a method a refactor deleted) fails the gate instead of
# rendering as plain text.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
run cargo test --workspace --offline -q
# The packed layouts again in the build that ships: release drops
# overflow checks and `debug_assert!`, so the trace memo's packed record,
# the cache directory and recency words, the way-count arithmetic, the
# inline writeback list, the completion queue and the controller's queue
# rings are tested without them, and the cross-commit golden runs replay
# through that build too.
run cargo test --release --offline -q -p asd-core -p asd-trace -p asd-cache -p asd-cpu -p asd-mc
run cargo test --release --offline -q -p asd-sim --test golden_runs
# The full-catalog thread identity (`figures all` on one worker thread
# against two), which plain `cargo test` skips as slow.
run cargo test --release --offline -q -p asd-bench --test pipeline_modes -- --ignored

# Trace-corpus smoke: record a trace with the CLI, verify its structure
# and checksums, prove it replays bit-identically to regeneration, and
# verify the checked-in golden fixture still decodes. The two-thread
# recording spans several 4096-record chunks, so the batched decoder
# crosses chunk and thread boundaries.
smokedir="$(mktemp -d)"
smoke="$smokedir/smoke.asdt"
smt="$smokedir/smt.asdt"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- \
    record --profile milc --accesses 2000 --seed 7 --out "$smoke"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- verify "$smoke"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- check "$smoke"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- \
    record --profile tpcc --threads 2 --accesses 5000 --out "$smt"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- verify "$smt"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- check "$smt"
run cargo run -q -p asd-traceio --offline --bin asd-trace -- verify tests/data/golden.asdt
run cargo run -q -p asd-traceio --offline --bin asd-trace -- check tests/data/golden.asdt
rm -rf "$smokedir"

# Telemetry smoke: regenerate one figure with full instrumentation, then
# validate every exposition backend's output with the in-tree schema
# checker, and diff wall times against the committed baseline. A >= 20%
# regression prints a warning; a >= 30% regression FAILS the gate (host
# noise on whole-figure wall times stays well under that).
teldir="$(mktemp -d)"
run env ASD_TELEMETRY_DIR="$teldir" ASD_FIGURES_JSON="$teldir/BENCH_figures.json" \
    cargo run -q --release -p asd-bench --offline --bin figures -- telemetry
run cargo run -q -p asd-telemetry --offline --bin telemetry-check -- prom "$teldir/telemetry.prom"
run cargo run -q -p asd-telemetry --offline --bin telemetry-check -- trace "$teldir/telemetry.trace.json"
run cargo run -q -p asd-telemetry --offline --bin telemetry-check -- csv "$teldir/telemetry.csv"
run cargo run -q -p asd-telemetry --offline --bin telemetry-check -- \
    bench-diff BENCH_figures.json "$teldir/BENCH_figures.json"
# The figure keeps its run's snapshot, not the rendered files, and renders
# each file only as it writes it, so the run peaks under 9 MiB resident
# (about 17 MiB when all three were rendered with the trace built entry
# by entry and kept to the end of the run).
peak="$(grep -o '"peak_rss_kib":[0-9]*' "$teldir/BENCH_figures.json" | cut -d: -f2 || true)"
echo "==> figures telemetry: peak_rss_kib ${peak:-unreadable}"
if [[ -z "$peak" || "$peak" -gt 9216 ]]; then
    echo "telemetry smoke: figures telemetry must report a peak_rss_kib of at most 9216"
    exit 1
fi
rm -rf "$teldir"

# Arena smoke: a 2-engine x 2-profile tournament through the full
# league-table pipeline (roster resolution, shared NP baseline, ranking).
# The 30-profile arena of record lives in `figures arena`.
run env ASD_FIGURES_JSON=- ASD_ARENA_ENGINES=asd,stream-table ASD_ARENA_PROFILES=milc,tpcc \
    cargo run -q --release -p asd-bench --offline --bin figures -- arena

# Pipeline smoke: the same figure set on one worker thread and on two
# must be byte-identical on stdout, and the job graph must actually
# deduplicate (fig5/fig13/arena overlap on their NP points). The run's
# trace memo must generate and serve the same nonzero number of traces
# on both: a memo that regenerated a trace, or freed one before its last
# reader, under concurrency would count more. The other JSON bookkeeping
# (wall times, peak counts) legitimately differs; tests/pipeline_modes.rs
# compares the per-figure metrics blocks.
pipedir="$(mktemp -d)"
for threads in 1 2; do
    echo "==> figures fig5 fig13 arena (ASD_SWEEP_THREADS=$threads)"
    env ASD_SWEEP_THREADS="$threads" ASD_FIGURES_ACCESSES=6000 \
        ASD_FIGURES_JSON="$pipedir/t$threads.json" \
        ASD_ARENA_ENGINES=asd,stream-table ASD_ARENA_PROFILES=milc,tpcc \
        cargo run -q --release -p asd-bench --offline --bin figures -- fig5 fig13 arena \
        > "$pipedir/t$threads.txt"
done
run cmp "$pipedir/t1.txt" "$pipedir/t2.txt"
if grep -q '"inflight_joins":0[,}]' "$pipedir/t2.json"; then
    echo "pipeline smoke: the job graph found no in-flight joins to share"
    exit 1
fi
for key in trace_misses trace_hits; do
    one="$(grep -o "\"$key\":[0-9]*" "$pipedir/t1.json" || true)"
    two="$(grep -o "\"$key\":[0-9]*" "$pipedir/t2.json" || true)"
    echo "==> $key: $one on 1 thread, $two on 2"
    if [[ -z "$one" || "$one" != "$two" || "$one" == "\"$key\":0" ]]; then
        echo "pipeline smoke: $key must be equal and nonzero on 1 and 2 threads"
        exit 1
    fi
done
rm -rf "$pipedir"

# Sweep-daemon smoke: spawn asd-serve on an ephemeral port, run the same
# figure job against the cold daemon and against a restarted one (whose
# runs must come off the persistent disk cache), and byte-compare the two
# responses. Then the two-phase load bench, which exits nonzero unless
# the restarted daemon serves the whole concurrent load bit-identically
# with zero new simulation runs. A step that fails while a daemon runs
# (a refused submit, a banner that never appears) exits the script; the
# EXIT trap then kills that daemon and removes the state directory.
servedir="$(mktemp -d)"
servebin="target/debug/asd-serve"
serve_pid=""
serve_cleanup() {
    if [[ -n "$serve_pid" ]] && kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$servedir"
}
trap serve_cleanup EXIT
run cargo build -q -p asd-serve --offline
"$servebin" serve --port 0 --dir "$servedir/state" > "$servedir/banner" &
serve_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$servedir/banner" 2>/dev/null && break
    sleep 0.1
done
serveaddr="$(sed -n 's/^asd-serve listening on //p' "$servedir/banner")"
run "$servebin" client "$serveaddr" submit '{"kind":"figure","figure":"fig5","accesses":2000,"seed":42}'
"$servebin" client "$serveaddr" wait 1 > "$servedir/fig.cold"
run "$servebin" client "$serveaddr" shutdown
wait "$serve_pid"
"$servebin" serve --port 0 --dir "$servedir/state" > "$servedir/banner2" &
serve_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$servedir/banner2" 2>/dev/null && break
    sleep 0.1
done
serveaddr="$(sed -n 's/^asd-serve listening on //p' "$servedir/banner2")"
run "$servebin" client "$serveaddr" submit '{"kind":"figure","figure":"fig5","accesses":2000,"seed":42}'
"$servebin" client "$serveaddr" wait 1 > "$servedir/fig.warm"
run cmp "$servedir/fig.cold" "$servedir/fig.warm"
if "$servebin" client "$serveaddr" stats | grep -q '"cache_disk_hits":0[,}]'; then
    echo "asd-serve smoke: restarted daemon never hit the disk cache"
    exit 1
fi
run "$servebin" client "$serveaddr" shutdown
wait "$serve_pid"
run "$servebin" bench --clients 24 --requests 4 --accesses 1500 --dir "$servedir/bench"
rm -rf "$servedir"
trap - EXIT

echo "All checks passed."
