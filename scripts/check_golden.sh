#!/usr/bin/env sh
# Golden gate: a full `repro` run must reproduce `repro_output.txt` byte
# for byte, and its per-exhibit event and scheduler counts (the
# `"exhibit"`, `"events"` and `"sched_*"` lines of `--bench-json`) must
# equal `repro_counts.txt`, at one thread and at two (neither depends on
# the thread count). Prints the diff and exits nonzero on any drift. A
# change that moves a count regenerates the file and explains the delta
# in CHANGES.md, the same rule as for `repro_output.txt`:
#
#   ./target/release/repro --bench-json=counts.json > /dev/null
#   grep -E '"(exhibit|events|sched_[a-z_]+)":' counts.json > repro_counts.txt
#
# `make check-golden` and `scripts/lint.sh` both run this; the two runs
# take just under two minutes on a 2-vCPU host.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p h2priv-bench --bin repro

out="$(mktemp)"
json="$(mktemp)"
counts="$(mktemp)"
trap 'rm -f "$out" "$json" "$counts"' EXIT
for threads in 1 2; do
    ./target/release/repro --threads "$threads" --bench-json="$json" > "$out" 2> /dev/null
    if ! diff -u repro_output.txt "$out"; then
        echo "check-golden: repro --threads $threads differs from repro_output.txt" >&2
        exit 1
    fi
    grep -E '"(exhibit|events|sched_[a-z_]+)":' "$json" > "$counts"
    if ! diff -u repro_counts.txt "$counts"; then
        echo "check-golden: repro --threads $threads counts differ from repro_counts.txt" >&2
        exit 1
    fi
done
echo "check-golden: repro_output.txt and repro_counts.txt reproduced at --threads 1 and 2"
