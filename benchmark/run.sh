#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       object BENCHMARK.json describes (end-to-end metrics with
#       --trace 0, per-layer metrics with --trace 1)
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, both ways, into benchmark/out/results.json
#   benchmark/run.sh compare A.json B.json
#
# Builds `iofwdd` from the root workspace (release profile, its own
# defaults) and the harness from benchmark/ first; both builds are no-ops
# when nothing changed. Everything it writes stays under benchmark/out and
# the cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# cargo resolves a relative CARGO_TARGET_DIR against the caller's
# directory; pin it before anything changes directory.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
daemon_target="${CARGO_TARGET_DIR:-$root/target}"
# The harness gets a target directory of its own: it compiles the same
# crates as the root workspace under another lock file and profile, and
# sharing one directory would make each build evict the other's artefacts.
harness_target="${CARGO_TARGET_DIR:+$CARGO_TARGET_DIR/harness}"
harness_target="${harness_target:-$here/target}"

# Build output goes to stderr: stdout is the result.
CARGO_TARGET_DIR="$daemon_target" cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p iofwd --bin iofwdd >&2
CARGO_TARGET_DIR="$harness_target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

bench="$harness_target/release/iofwd-bench"
case "${1:-}" in
compare | manifest)
    exec "$bench" "$@"
    ;;
esac

mode=suite
for arg in "$@"; do
    [[ "$arg" == --workload ]] && mode=run
done
exec "$bench" "$mode" "$@" --iofwdd "$daemon_target/release/iofwdd" --out "$here/out"
