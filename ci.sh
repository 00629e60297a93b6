#!/usr/bin/env bash
# Workspace CI gate: formatting, clippy, invariant linter, lock
# checker, model checking, then the full build + test suite. Any
# failure stops the run.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo xtask lint"
cargo xtask lint

step "debug tests with the lock checker on (lock order, blocking under a lock)"
# Debug builds carry the lock checker in iofwd::sync: a lock-order cycle
# or a blocking call under a foreign lock aborts the test binary that
# caused it, with both witness sites. The release test step below
# compiles the checker out, so this step is where CI gates lock order.
cargo test -q -p iofwd
# The observed lock graph, pinned by the test that prints it.
cargo test -q -p iofwd --test lock_check -- --nocapture graph 2>&1 | grep -A20 '^observed lock graph'

step "loom model suite (cargo xtask loom)"
cargo xtask loom

step "one measurement harness (no bench target, no criterion or bench package, no figures binary)"
# crates/experiments and benchmark/ are the harnesses and `experiments`
# the one CLI that prints numbers; a `[[bench]]` target, a criterion
# dependency, a `bench` package or a `figures` target coming back fails
# here.
META=$(cargo metadata --no-deps --offline --format-version 1)
if grep -Eq '"kind":\["bench"\]|"name":"(criterion|bench|figures)"' <<<"$META"; then
    echo "ci: a bench target, a criterion/bench package or a figures binary is back in the workspace"; exit 1
fi

step "build --release"
cargo build --release --workspace

step "test --release"
cargo test -q --release --workspace

step "benchmark harness compiles against this tree (compile only)"
# The repo benchmark (benchmark/, its own workspace and lock file) builds
# against the public items listed under "Contract surface" in
# benchmark/README.md. Compile it here so that renaming one of them fails
# CI, not the next benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

step "benchmark run-time smoke (all five workloads, 2 s each: correct and nothing failed; no timing asserted)"
# A contract-surface break that still compiles (a changed default, a
# counter the harness reads, close/unlink semantics) shows as a wrong
# byte or a failed call here, not in the next benchmark run. small_task
# is the per-op path; stream_write and stream_read the 1 MiB
# pwrite/pread path; device_bound the staging path (bursts of 64 KiB
# writes received into BML blocks, drained, repeated); reactor_mix the
# reactor's staged writes and reads.
for WORKLOAD in small_task stream_write stream_read device_bound reactor_mix; do
    BENCH_SMOKE=$(bash benchmark/run.sh --workload "$WORKLOAD" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    echo "$BENCH_SMOKE"
    case "$BENCH_SMOKE" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "ci: benchmark smoke run ($WORKLOAD) was not correct with 0 failed calls"; exit 1 ;;
    esac
done

step "experiment harness: coalescing paired sweep (scenario gate)"
# The declarative successor of the old telemetry smoke + coalescing
# bench gate: the committed scenario replays a seeded MADbench write
# phase off/on over live daemons and enforces the >=1.20x paired
# throughput budget plus nonzero coalesced_* telemetry. --force keeps
# CI measurements fresh (no checkpoint reuse between CI runs); the
# report JSON/markdown land in ci-artifacts for offline triage.
mkdir -p target/ci-artifacts/experiments
cargo run --release -q -p experiments -- run \
    crates/experiments/scenarios/coalescing.toml \
    --out target/ci-artifacts/experiments/coalescing \
    --bin target/release/iofwdd --force

step "experiment harness: fault-plan chaos sweep (scenario gate)"
# Declarative successor of the old chaos smoke: mixed workload clean vs
# seeded fault storm across sched/staged; budgets require completion
# >=95%, a throughput floor, and provably-nonzero fault/retry counters.
cargo run --release -q -p experiments -- run \
    crates/experiments/scenarios/faults.toml \
    --out target/ci-artifacts/experiments/faults \
    --bin target/release/iofwdd --force
step "experiment harness: connection-scale transport sweep (scenario gate)"
# Thread-per-connection vs poll-based reactor at 1000 concurrent
# clients with injected accept faults (DESIGN.md 15). Budgets require
# the reactor arm to match or beat the threads arm on p99 tail latency
# and hold aggregate throughput, full completion in both arms, and
# proof that the injected accept faults actually fired.
cargo run --release -q -p experiments -- run \
    crates/experiments/scenarios/connection_scale.toml \
    --out target/ci-artifacts/experiments/connection_scale \
    --bin target/release/iofwdd --force

step "experiment harness: data-only scenarios parse and expand (not timed, not a gate on numbers)"
# The paper's mode ladder and worker sweep are reporting scenarios (see
# EXPERIMENTS.md); CI only proves they still load and expand.
cargo run --release -q -p experiments -- expand crates/experiments/scenarios/mode_ladder.toml
cargo run --release -q -p experiments -- expand crates/experiments/scenarios/worker_sweep.toml

echo "experiment reports: target/ci-artifacts/experiments/{coalescing,faults,connection_scale}/report.{json,md}"

step "experiment artifact guard (BENCH_PR7.json drift check)"
# The committed report must stay structurally valid, green, and
# fingerprint-matched to the scenario that generated it — editing the
# scenario without regenerating the artifact fails here.
cargo run --release -q -p experiments -- check \
    BENCH_PR7.json crates/experiments/scenarios/coalescing.toml

step "trace smoke (traced put/get under faults -> Perfetto export on the reader + stage bounds over the wire)"
TRACED=$(mktemp -d)
trap 'kill "$TRACED_PID" "${TRACER_PID:-}" 2>/dev/null || true; rm -rf "$TRACED"' EXIT
cat >"$TRACED/plan" <<'EOF'
# Tracing must survive the retry path: traced ops that fault transiently
# still complete and still land in the trace with full lifecycles.
seed 7
on write p=0.2 errno=EAGAIN
on read p=0.2 errno=EAGAIN
EOF
target/release/iofwdd --listen 127.0.0.1:0 --root "$TRACED/root" \
    --mode staged --workers 2 \
    --fault-plan "$TRACED/plan" --retry-attempts 8 \
    --port-file "$TRACED/port" 2>"$TRACED/daemon.log" &
TRACED_PID=$!
for _ in $(seq 50); do [ -s "$TRACED/port" ] && break; sleep 0.1; done
[ -s "$TRACED/port" ] || { echo "ci: traced iofwdd never wrote its port file"; exit 1; }
ADDR="127.0.0.1:$(cat "$TRACED/port")"
# The trace writer is a reader of the daemon's flight recorder: it polls
# the spans over the stats wire protocol and rewrites the export.
target/release/iofwd-cp trace "$ADDR" "$TRACED/trace.json" &
TRACER_PID=$!
head -c 1048576 /dev/urandom >"$TRACED/in.bin"
# A traced transfer must end with the client-side latency decomposition
# naming the dominant server stage (the bottleneck-attribution contract).
target/release/iofwd-cp --trace put "$TRACED/in.bin" "$ADDR" /traced.bin 2>"$TRACED/put.log"
cat "$TRACED/put.log" >&2
grep -q "dominant server stage" "$TRACED/put.log" \
    || { echo "ci: traced put printed no stage attribution"; exit 1; }
target/release/iofwd-cp --trace get "$ADDR" /traced.bin "$TRACED/out.bin" 2>"$TRACED/get.log"
cat "$TRACED/get.log" >&2
grep -q "dominant server stage" "$TRACED/get.log" \
    || { echo "ci: traced get printed no stage attribution"; exit 1; }
cmp "$TRACED/in.bin" "$TRACED/out.bin"
# The reader rewrites the export shortly after spans arrive; poll until
# it validates against the trace-event schema with op slices present.
TRACE_OK=
for _ in $(seq 50); do
    if [ -s "$TRACED/trace.json" ] \
        && target/release/iofwd-cp trace "$TRACED/trace.json"; then
        TRACE_OK=1
        break
    fi
    sleep 0.2
done
[ -n "$TRACE_OK" ] || { echo "ci: trace export never validated"; exit 1; }
# Stage-latency regression gate, asked of the live daemon over the stats
# wire protocol: p99 queue wait under 2 s (generous — the histogram
# quantile reports power-of-two bucket upper bounds). Retried: staged
# spans fold in the workers a beat after the client's reply.
SNAP_OK=
for _ in $(seq 50); do
    if target/release/iofwd-cp stats "$ADDR" "p99:queue_wait_ns<2000000"; then
        SNAP_OK=1
        break
    fi
    sleep 0.2
done
[ -n "$SNAP_OK" ] || { echo "ci: live snapshot failed the p99 stage bound"; exit 1; }

step "live introspection smoke (stats wire protocol against the running daemon)"
# The same daemon, queried in-band on its data port mid-run: the
# rendered snapshot must carry per-client attribution rows for the
# put/get traffic above, the rates between two snapshots must expose
# their fields, the Prometheus exposition rendered from a snapshot must
# pass the built-in validator, and one `top` refresh must render.
target/release/iofwd-cp stats "$ADDR" >"$TRACED/live-stats.txt"
cat "$TRACED/live-stats.txt"
grep -q '^clients (' "$TRACED/live-stats.txt" \
    || { echo "ci: live snapshot carries no per-client rows"; exit 1; }
# Flushes per close = 0, as a count that repeats exactly: the one
# `iofwd-cp put` above made one fsync and one close, the get closed a
# descriptor it only read, so the daemon has flushed once per put.
PUTS=1
SYNCS=$(awk '$1 == "backend_sync_ops" { print $2 }' "$TRACED/live-stats.txt")
[ "$SYNCS" = "$PUTS" ] \
    || { echo "ci: backend_sync_ops = '$SYNCS' after $PUTS put(s): something other than fsync flushes"; exit 1; }
# Payload storage comes from the pool: the put's 1 MiB write was received
# into a BML block, and the get's reply was served out of the same one.
SLAB_HITS=$(awk '$1 == "slab_hits" { print $2 }' "$TRACED/live-stats.txt")
[ "${SLAB_HITS:-0}" -gt 0 ] \
    || { echo "ci: slab_hits = '$SLAB_HITS' after a put and a get: payloads are not landing in recycled BML blocks"; exit 1; }
# Hand-offs only when they buy something: the get's reads met an idle pool,
# so they ran on the handler that received them, under a free execution
# slot, instead of crossing to a worker.
IN_PLACE=$(awk '$1 == "ops_in_place" { print $2 }' "$TRACED/live-stats.txt")
[ "${IN_PLACE:-0}" -gt 0 ] \
    || { echo "ci: ops_in_place = '$IN_PLACE' after a get: reads cross to a worker even with the pool idle"; exit 1; }
# The work queue and the BML count into the registry like every other
# layer: the put's staged write crossed the queue and held a block, so
# both peaks (the gauge line is "name current / peak") are nonzero.
for GAUGE in queue_depth bml_occupancy; do
    PEAK=$(awk -v g="$GAUGE" '$1 == g { print $4 }' "$TRACED/live-stats.txt")
    [ "${PEAK:-0}" -gt 0 ] \
        || { echo "ci: $GAUGE peak = '$PEAK' after a put and a get: the registry missed it"; exit 1; }
done
target/release/iofwd-cp stats "$ADDR" --rates | grep -q '"ops_per_s"' \
    || { echo "ci: live rates JSON missing rate fields"; exit 1; }
target/release/iofwd-cp stats "$ADDR" --prom --check \
    || { echo "ci: live Prometheus exposition failed validation"; exit 1; }
target/release/iofwd-cp top "$ADDR" --count 1 --interval 0.2 >"$TRACED/live-top.txt"
grep -q '^iofwd top' "$TRACED/live-top.txt" \
    || { echo "ci: iofwd-cp top rendered nothing"; cat "$TRACED/live-top.txt"; exit 1; }

if grep -qi "panicked" "$TRACED/daemon.log"; then
    echo "ci: daemon panicked while tracing"; cat "$TRACED/daemon.log"; exit 1
fi
kill "$TRACED_PID"

step "bottleneck attribution (experiments figures bottleneck)"
target/release/experiments figures bottleneck >"$TRACED/bottleneck.txt"
cat "$TRACED/bottleneck.txt"
# The paper's diagnosis, as a CI invariant: the thread-per-CN proxy
# (ciod) queues, the inline thread-per-client daemon (zoid) is bound by
# backend service. (sched/staged flap between queue-wait and reply
# under scheduler noise, so only the stable two are gated.)
grep -A6 '^ciod:' "$TRACED/bottleneck.txt" | grep -q 'dominant stage: queue-wait' \
    || { echo "ci: ciod bottleneck not attributed to queue-wait"; exit 1; }
grep -A6 '^zoid:' "$TRACED/bottleneck.txt" | grep -q 'dominant stage: backend' \
    || { echo "ci: zoid bottleneck not attributed to backend"; exit 1; }

printf '\nci: all gates passed\n'
