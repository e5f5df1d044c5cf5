#!/usr/bin/env sh
# Lint gate: the workspace must be clippy-clean (warnings are errors),
# rustfmt-clean, rustdoc-clean, and protocol-conformant (the oracle must
# stay silent across a quick repro run), and the benchmark must build and
# pass its tests against it. CI and `make lint` both run this.
set -eu

cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

# Rustdoc with warnings as errors (equivalent to `make doc`): an intra-doc
# link to a renamed, private or deleted item fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Tier-1 tests build at opt-level 1, but `repro` and pagebench time the
# release record cipher: its known-answer digests and reference property
# must hold in that build too.
cargo test --release -q -p h2priv-tls

lock=$(mktemp)
quickstart=$(mktemp)
trap 'rm -f "$lock" "$quickstart"' EXIT INT TERM

# The examples run, not just compile: `quickstart` must print exactly the
# block under its command in README.md, and the other five must exit 0.
cargo build --release -q --examples
sed -n '/^\$ cargo run --release --example quickstart$/,/^```$/p' README.md |
    sed '1d;$d' > "$quickstart"
printed=$(./target/release/examples/quickstart)
printf '%s\n' "$printed" | diff -u "$quickstart" -
for example in parameter_sweep defense_reordering generality streaming_leak; do
    ./target/release/examples/$example > /dev/null
done
./target/release/examples/survey_fingerprint 5 > /dev/null

# The benchmark is a workspace of its own: build it against the crates and
# run its tests, so a crate change that breaks it fails here on any host.
# Building it may rewrite its Cargo.lock; the benchmark's directory must
# stay as it was, so the file is put back.
cp pagebench/Cargo.lock "$lock"
tested=0
cargo test -q --manifest-path pagebench/Cargo.toml && tested=1
cp "$lock" pagebench/Cargo.lock
[ "$tested" = 1 ]

sh scripts/bench_check.sh

# Cross-layer conformance oracle over a quick full-exhibit run through the
# JSON path: exits nonzero on any TCP/TLS/HTTP/2 invariant violation. The
# golden check below covers the table path at full size.
cargo run --release -p h2priv-bench --bin repro -- --quick --check --json > /dev/null

# The recorded full-run stdout and per-exhibit counts must still
# reproduce exactly.
sh scripts/check_golden.sh

echo "lint: clean"
