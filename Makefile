# Convenience targets; each is a thin wrapper over cargo.

.PHONY: build test lint doc bench bench-check bench-sched bench-defense bench-dos bench-fleet bench-fleet-mem bench-fleet-1m bench-scaleout check-conformance check-golden repro repro-quick

build:
	cargo build --release --workspace

test:
	cargo test -q

lint:
	sh scripts/lint.sh

# API docs for every workspace crate; warnings (broken intra-doc links)
# are errors, as in the lint gate.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

bench:
	cargo bench -p h2priv-bench

bench-check:
	sh scripts/bench_check.sh

bench-sched:
	cargo bench -p h2priv-bench --bench sched

# The countermeasure arena: every defense vs. the adversary grid, with
# the conformance oracle attached (exit 2 on any violation). Use
# `--defense <name>` via `make repro` to evaluate a single defense.
bench-defense:
	cargo run --release -p h2priv-bench --bin repro -- defend --check

# The slow-DoS triad: every attack workload vs. the hardened server and
# the online detector, standalone and inside a contended fleet, plus the
# false-positive sweep — with the conformance oracle attached (the
# attacks are RFC-legal, so the oracle must stay green).
bench-dos:
	cargo run --release -p h2priv-bench --bin repro -- dos --check

# The population-scale exhibit at fleet size: 10k client-server pairs
# sharded over 8 engines. Byte-identical at any --threads.
bench-fleet:
	cargo run --release -p h2priv-bench --bin repro -- fleet --population 10000 --shards 8

# Memory telemetry at fleet size: the counting allocator reports
# peak_alloc_bytes and bytes per co-resident pair on stderr ([timing]
# lines) and in the JSON. bench-check gates the fleet entry's
# bytes_per_pair against BENCH_repro.json (>20% growth fails).
bench-fleet-mem:
	cargo run --release -p h2priv-bench --bin repro -- fleet --population 10000 --shards 8 --bench-json=/dev/stdout

# The million-pair sitting: shards build each pair at its staggered
# start time and free it (returning its slab slots and buffers) once its
# page load is over and its server is quiet, so peak memory tracks the
# number of co-resident pairs — set by --spread — instead of the
# population. --progress prints a pairs/events/ETA heartbeat on stderr
# every ~2s without touching stdout. Expect a few hours on one core;
# scale --threads to taste.
bench-fleet-1m:
	cargo run --release -p h2priv-bench --bin repro -- fleet --population 1000000 --shards 64 --spread 14400 --progress --bench-json=BENCH_fleet_1m.json

# Parallel-efficiency curve: re-runs the baseline fleet population at
# --threads 1/2/4/8 and reports aggregate ev/s, ev/s per core, and
# efficiency vs. the 1-thread point. Outcome rows are asserted identical
# across thread counts before any rate is reported.
bench-scaleout:
	cargo run --release -p h2priv-bench --bin repro -- scaleout --population 2000 --shards 8

check-conformance:
	cargo run --release -p h2priv-bench --bin repro -- --quick --check

# Full repro at --threads 1 and 2 must reproduce repro_output.txt.
check-golden:
	sh scripts/check_golden.sh

repro:
	cargo run --release -p h2priv-bench --bin repro

repro-quick:
	cargo run --release -p h2priv-bench --bin repro -- --quick --bench-json
