#!/usr/bin/env bash
# A deliberately corrupted byte in a root file must make run.sh exit
# non-zero with "correct": false. (`--corrupt` flips one byte of client 1's
# ring file in the daemon's root after the pass, before verification.)
set -uo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

out="$(bash "$here/run.sh" --workload stream_write --seed 1 --seconds 2 --trace 0 --corrupt)"
code=$?
line="$(tail -n 1 <<<"$out")"
if [[ $code -eq 1 && "$line" == *'"correct": false'* && "$line" == *'"failed": 1,'* ]]; then
    echo "selftest: ok (corrupted byte caught, exit $code)"
else
    echo "selftest: FAILED (exit $code): $line" >&2
    exit 1
fi
