#!/usr/bin/env sh
# Lint gate: the workspace must be clippy-clean (warnings are errors),
# rustfmt-clean, rustdoc-clean, and protocol-conformant (the oracle must
# stay silent across a quick repro run). CI and `make lint` both run this.
set -eu

cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

# Rustdoc with warnings as errors (equivalent to `make doc`): an intra-doc
# link to a renamed, private or deleted item fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

sh scripts/bench_check.sh

# Scheduler microbench smoke run (`make bench-sched` in full): proves the
# calendar queue and its reference-heap twin still build and run at the
# fig5-like event mix. Regression *thresholds* live in bench-check above,
# which gates whole-trial events/sec against BENCH_repro.json.
cargo bench -q -p h2priv-bench --bench sched -- fig5_mix

# Cross-layer conformance oracle over a quick full-exhibit run
# (equivalent to `make check-conformance`): exits nonzero on any TCP/TLS/
# HTTP/2 invariant violation.
cargo run --release -p h2priv-bench --bin repro -- --quick --check > /dev/null

# The recorded full-run stdout must still reproduce byte for byte.
sh scripts/check_golden.sh

echo "lint: clean"
