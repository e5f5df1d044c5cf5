#!/usr/bin/env sh
# Perf regression gate: one memory check and one time check.
#
# Memory, at one thread, where the counting allocator's peak is the same
# on every run. Two rows:
# - `repro fleet --threads 1` runs the fleet's shards one after another;
#   the gate fails when its bytes per co-resident pair grow more than 20%.
#   A spread-out fleet run (`--spread 60`, the million-pair configuration
#   at a gate-friendly size) must stay strictly below the baseline:
#   holding pairs that have finished and gone quiet is the regression
#   streaming exists to prevent.
# - `repro --threads 1 --quick table1` runs 25 single-pair trials per
#   jitter point and keeps every trial's result until the table is built;
#   the gate fails when its `peak_alloc_bytes` grows more than 20%. A
#   capture that kept the payload bytes it saw would multiply this peak.
# BENCH_repro.json holds the two rows these same commands write, the
# fleet row first. Re-record it from a release build with:
#
#   ./target/release/repro fleet --threads 1 --bench-json=fleet.json
#   ./target/release/repro --threads 1 --quick table1 --bench-json=table1.json
#   { sed '$d' fleet.json | sed '$s/$/,/'; sed 1d table1.json; } > BENCH_repro.json
#
# Time, through pagebench only, and only on the host that recorded
# pagebench/BASELINE.json. The host counts as the same when `nproc` and
# the first `model name` of /proc/cpuinfo equal the baseline's `cpus` and
# `model`. The kernel release is not compared: pagebench scales every
# time by its reference tick, which runs on the same kernel as the loads.
# Each workload runs once, at seed 1 for BENCHMARK.json's `run_seconds`.
# The gate fails when pagebench exits nonzero (one of its correctness
# checks failed), or when an end-to-end metric on its last stdout line is
# worse than the baseline's median for that workload by more than
# BENCHMARK.json's bound for that metric. On another host it says it
# cannot judge time and points at `pagebench/ab.sh`, the interleaved A/B
# against a parent revision on one host.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p h2priv-bench --bin repro

fresh=$(mktemp)
log=$(mktemp)
lock=$(mktemp)
trap 'rm -f "$fresh" "$log" "$lock"' EXIT INT TERM
status=0

# field FILE EXHIBIT NAME: the NAME field of the EXHIBIT row.
field() {
    awk -v exhibit="\"$2\"" -v name="\"$3\":" '
        $1 == "\"exhibit\":" { hit = index($2, exhibit) == 1 }
        $1 == name && hit { gsub(/,/, "", $2); print $2 + 0 }' "$1"
}

./target/release/repro fleet --threads 1 --bench-json="$fresh" >/dev/null
now=$(field "$fresh" fleet bytes_per_pair)
./target/release/repro fleet --threads 1 --spread 60 --bench-json="$fresh" >/dev/null
spread=$(field "$fresh" fleet bytes_per_pair)
./target/release/repro --threads 1 --quick table1 --bench-json="$fresh" >/dev/null
table1=$(field "$fresh" table1 peak_alloc_bytes)
awk -v base="$(field BENCH_repro.json fleet bytes_per_pair)" -v now="$now" -v spread="$spread" \
    -v table1_base="$(field BENCH_repro.json table1 peak_alloc_bytes)" -v table1="$table1" 'BEGIN {
    if (base == "" || now == "" || spread == "" || table1_base == "" || table1 == "") {
        print "bench-check: memory: a fleet bytes_per_pair or table1 peak_alloc_bytes row is missing"
        exit 1
    }
    printf "bench-check: memory fleet       %8d bytes/pair vs baseline %8d (%+.1f%%)\n",
           now, base, (now / base - 1) * 100
    printf "bench-check: memory --spread 60 %8d bytes/pair vs baseline %8d (%+.1f%%)\n",
           spread, base, (spread / base - 1) * 100
    printf "bench-check: memory table1 --quick peak %10d bytes vs baseline %10d (%+.1f%%)\n",
           table1, table1_base, (table1 / table1_base - 1) * 100
    bad = 0
    if (now > base * 1.20) {
        print "bench-check: fleet memory regressed more than 20%"
        bad = 1
    }
    if (spread >= base) {
        print "bench-check: streaming no longer bounds the working set"
        bad = 1
    }
    if (table1 > table1_base * 1.20) {
        print "bench-check: table1 --quick peak memory regressed more than 20%"
        bad = 1
    }
    exit bad
}' || status=1

baseline=pagebench/BASELINE.json
want_cpus=$(sed -n 's/^ *"cpus": *\([0-9][0-9]*\).*/\1/p' "$baseline" | head -n 1)
want_model=$(sed -n 's/^ *"model": *"\(.*\)",*$/\1/p' "$baseline" | head -n 1)
cpus=$(nproc)
model=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo | head -n 1 |
    sed 's/[[:space:]]*$//')

if [ "$cpus" = "$want_cpus" ] && [ "$model" = "$want_model" ]; then
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
    # Building pagebench may rewrite its Cargo.lock; the benchmark's
    # directory must stay as it was, so the file is put back.
    cp pagebench/Cargo.lock "$lock"
    built=0
    cargo build --release -q --manifest-path pagebench/Cargo.toml && built=1
    cp "$lock" pagebench/Cargo.lock
    [ "$built" = 1 ] || exit 1
    for w in pageload attack defended fleet; do
        if ! pagebench/target/release/benchmark --workload "$w" --seed 1 \
            --seconds "$seconds" --trace 0 >"$fresh" 2>"$log"; then
            cat "$log"
            echo "bench-check: time $w: pagebench failed its checks"
            status=1
            continue
        fi
        awk -v w="$w" -v line="$(tail -n 1 "$fresh")" '
            FILENAME == "BENCHMARK.json" && /"bound"/ {
                name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
                better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
                bound = $0; sub(/.*"bound": */, "", bound); sub(/[^0-9.].*/, "", bound)
                names[++n] = name; higher[name] = better == "higher"; limit[name] = bound + 0
                next
            }
            FILENAME != "BENCHMARK.json" {
                key = $1; gsub(/[":{]/, "", key)
                if ($0 ~ /^    "/) workload = key
                else if ($0 ~ /^        "/) metric = key
                else if (workload == w && /"median"/) { gsub(/,/, "", $2); median[metric] = $2 + 0 }
            }
            END {
                bad = 0
                for (i = 1; i <= n; i++) {
                    m = names[i]
                    if (!match(line, "\"" m "\": *[{]\"value\": *[-0-9.eE+]+") || !(m in median)) {
                        printf "bench-check: time %s: %s missing from the result or the baseline\n", w, m
                        bad = 1
                        continue
                    }
                    now = substr(line, RSTART, RLENGTH); sub(/.*: */, "", now); now += 0
                    worse = (higher[m] ? median[m] - now : now - median[m]) / median[m]
                    printf "bench-check: time %-8s %-12s %10.4g vs median %10.4g: %4.1f%% %s (bound %d%%)\n",
                           w, m, now, median[m], (worse < 0 ? -worse : worse) * 100,
                           (worse > 0 ? "worse" : "better"), limit[m] * 100
                    if (worse > limit[m]) {
                        printf "bench-check: time %s %s regressed beyond its bound\n", w, m
                        bad = 1
                    }
                }
                exit bad
            }
        ' BENCHMARK.json "$baseline" || status=1
    done
else
    echo "bench-check: this host:               $cpus x \"$model\""
    echo "bench-check: pagebench/BASELINE.json: $want_cpus x \"$want_model\""
    echo "bench-check: cannot judge time on this host; compare against the parent"
    echo "bench-check: revision on one host with pagebench/ab.sh <parent>"
fi

if [ "$status" -ne 0 ]; then
    echo "bench-check: FAIL"
    exit 1
fi
echo "bench-check: ok"
