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

# The benchmark is a workspace of its own: build it against the crates and
# run its tests, so a crate change that breaks it fails here on any host.
# Building it may rewrite its Cargo.lock; the benchmark's directory must
# stay as it was, so the file is put back.
lock=$(mktemp)
trap 'rm -f "$lock"' EXIT INT TERM
cp pagebench/Cargo.lock "$lock"
tested=0
cargo test -q --manifest-path pagebench/Cargo.toml && tested=1
cp "$lock" pagebench/Cargo.lock
[ "$tested" = 1 ]

sh scripts/bench_check.sh

# Cross-layer conformance oracle over a quick full-exhibit run
# (equivalent to `make check-conformance`): exits nonzero on any TCP/TLS/
# HTTP/2 invariant violation.
cargo run --release -p h2priv-bench --bin repro -- --quick --check > /dev/null

# The recorded full-run stdout and per-exhibit counts must still
# reproduce exactly.
sh scripts/check_golden.sh

echo "lint: clean"
