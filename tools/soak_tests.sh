#!/usr/bin/env bash
# Run the tier-1 test suite n times in a row; stop at the first red run.
#
#   tools/soak_tests.sh <n>
#
# Tier-1 has to be green every run, not most runs (ROADMAP north-star aim 3):
# a test that depends on scheduling, on a sibling test or on leftover process
# state passes once and fails on the tenth try. The test binaries are built
# once; every round then runs all of them the way `cargo test -q` does, test
# threads in parallel. Prints the number of green rounds; exits nonzero, after
# the failing round's output, if one was red.
set -uo pipefail

n=${1:?usage: tools/soak_tests.sh <n>}
cd "$(dirname "$0")/.."
cargo test -q --no-run || exit 1
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for i in $(seq 1 "$n"); do
    if ! cargo test -q >"$log" 2>&1; then
        cat "$log"
        echo "soak: round $i of $n RED after $((i - 1)) green" >&2
        exit 1
    fi
    echo "soak: round $i of $n green ($(grep -c '^test result: ok' "$log") suites)" >&2
done
echo "soak: $n of $n rounds green"
