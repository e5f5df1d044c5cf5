#!/usr/bin/env sh
# Golden gate: a full `repro` run must reproduce `repro_output.txt` byte
# for byte, at one thread and at two (output never depends on the thread
# count). Prints the diff and exits nonzero on any drift. `make
# check-golden` and `scripts/lint.sh` both run this; the two runs take
# just under two minutes on a 2-vCPU host.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p h2priv-bench --bin repro

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
for threads in 1 2; do
    ./target/release/repro --threads "$threads" > "$out" 2> /dev/null
    if ! diff -u repro_output.txt "$out"; then
        echo "check-golden: repro --threads $threads differs from repro_output.txt" >&2
        exit 1
    fi
done
echo "check-golden: repro_output.txt reproduced at --threads 1 and 2"
