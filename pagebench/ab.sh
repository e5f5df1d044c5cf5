#!/bin/sh
# Interleaved A/B of the page-load benchmark on this host: a parent
# revision against the working tree, with identical benchmark code.
#
#   pagebench/ab.sh [REV]
#
# REV defaults to the merge-base of HEAD with main. The parent's sources
# come from `git archive REV`; both sides are built from the working
# tree's pagebench/ sources, so only the crates under test differ. Every
# workload gets 10 pairs, the fewest the 9-of-10 gain rule can judge. Each
# pair runs both sides on seed 1 for BENCHMARK.json's `run_seconds`, and
# the side that goes first alternates. Both JSON-lines files then go to
# `benchmark --compare`, which exits 1 if any metric regressed.
set -eu

root=$(git rev-parse --show-toplevel)
rev=${1:-$(git -C "$root" merge-base HEAD main)}
pairs=10
seed=1
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
out=$root/pagebench/target/ab
parent_src=$out/parent-src

rm -rf "$parent_src"
mkdir -p "$parent_src"
git -C "$root" archive "$rev" | tar -x -C "$parent_src"
rm -rf "$parent_src/pagebench"
mkdir -p "$parent_src/pagebench"
cp -R "$root/pagebench/Cargo.toml" "$root/pagebench/Cargo.lock" "$root/pagebench/src" \
    "$parent_src/pagebench/"

echo "building parent $rev and the working tree" >&2
cargo build --release --quiet --manifest-path "$parent_src/pagebench/Cargo.toml" \
    --target-dir "$out/parent-target"
cargo build --release --quiet --manifest-path "$root/pagebench/Cargo.toml" \
    --target-dir "$out/change-target"
parent=$out/parent-target/release/benchmark
change=$out/change-target/release/benchmark

a=$out/parent.jsonl
b=$out/change.jsonl
log=$out/runs.log
rm -f "$a" "$b" "$log"

# run BINARY WORKLOAD RECORDS
run() {
    if ! "$1" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
        --jsonl "$3" >/dev/null 2>>"$log"; then
        echo "run failed: $1 --workload $2 (see $log)" >&2
        exit 1
    fi
}

for w in pageload attack defended fleet; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        echo "$w: pair $((i + 1))/$pairs" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run "$parent" "$w" "$a"
            run "$change" "$w" "$b"
        else
            run "$change" "$w" "$b"
            run "$parent" "$w" "$a"
        fi
        i=$((i + 1))
    done
done

"$change" --compare "$a" "$b"
