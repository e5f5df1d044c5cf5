#!/usr/bin/env sh
# Perf regression gate: re-times the fast exhibits (fig1, table2), the
# countermeasure arena (defend), the slow-DoS triad (dos) and
# the population-scale fleet exhibit with fresh `repro --bench-json`
# runs and fails when events/sec (aggregate or per worker core) drops
# more than 20% below the
# checked-in BENCH_repro.json baseline, or when the fleet exhibit's
# bytes-per-co-resident-pair (the counting-allocator telemetry) grows
# more than 20% above it. A spread-out fleet run is smoked up front and
# must keep its working set below the baseline. Built to
# tolerate CI noise without missing real regressions: shared CI hosts
# oscillate in speed on minute timescales, and fig1 is a ~1 ms exhibit
# whose single-run rate is mostly scheduler jitter — so the gate makes up
# to three attempts and scores each exhibit by its best rate across all
# attempts so far. A reintroduced per-segment copy costs 2-3x and fails
# every attempt in any window; a transiently contended host does not.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p h2priv-bench --bin repro

fresh=$(mktemp)
seen=$(mktemp)
trap 'rm -f "$fresh" "$seen"' EXIT INT TERM

# Smoke a spread-out fleet run (the bench-fleet-1m hot path at a
# gate-friendly size) before the rate gate: it must complete, and its
# peak working set must stay strictly below the fleet baseline's
# bytes-per-pair — holding pairs that have finished and gone quiet is a
# regression in the one property streaming exists to provide. Kept out of the
# best-of pool on purpose: its low peak would mask a memory regression
# of the default fleet in the min-scored memory gate below.
./target/release/repro fleet --spread 60 --bench-json="$fresh" >/dev/null
awk '
    /"exhibit"/       { gsub(/[",]/, "", $2); name = $2 }
    /"bytes_per_pair"/ {
        gsub(/,/, "", $2)
        if (NR == FNR) { if (name == "fleet") base = $2 }
        else if (name == "fleet") streamed = $2
    }
    END {
        if (base == "" || streamed == "") {
            print "bench-check: streamed fleet produced no bytes_per_pair row"
            exit 1
        }
        printf "bench-check: spread-out fleet %12.0f bytes/pair vs baseline %12.0f\n",
               streamed, base
        if (streamed + 0 >= base + 0) {
            print "bench-check: streaming no longer bounds the working set"
            exit 1
        }
    }
' BENCH_repro.json "$fresh"

attempts=3
for attempt in $(seq 1 "$attempts"); do
    # fleet runs at the baseline's default population (1000) so its
    # events/sec is comparable against the checked-in entry.
    ./target/release/repro fig1 table2 defend dos fleet --trials 25 --bench-json="$fresh" >/dev/null
    cat "$fresh" >>"$seen"

    if awk '
        /"exhibit"/ { gsub(/[",]/, "", $2); name = $2 }
        # gsub leaves $2 a string, so every read adds 0: rates compare as
        # numbers, not lexically ("797687.2" > "1648800.5" as strings).
        /"events_per_sec"/ {
            gsub(/,/, "", $2)
            if (NR == FNR)                base[name] = $2 + 0
            else if ($2 + 0 > cur[name])  cur[name]  = $2 + 0
        }
        /"ev_s_per_core"/ {
            gsub(/,/, "", $2)
            if (NR == FNR)                     base_core[name] = $2 + 0
            else if ($2 + 0 > cur_core[name])  cur_core[name]  = $2 + 0
        }
        /"bytes_per_pair"/ {
            gsub(/,/, "", $2)
            if (NR == FNR)                                         base_mem[name] = $2 + 0
            else if (!(name in cur_mem) || $2 + 0 < cur_mem[name]) cur_mem[name]  = $2 + 0
        }
        END {
            status = 0
            checked = 0
            for (name in cur) {
                if (!(name in base)) continue
                checked++
                ratio = cur[name] / base[name]
                printf "bench-check: %-8s best %12.0f events/s vs baseline %12.0f (%+.1f%%)\n",
                       name, cur[name], base[name], (ratio - 1) * 100
                if (ratio < 0.80) {
                    printf "bench-check: %s regressed more than 20%%\n", name
                    status = 1
                }
            }
            # Per-core throughput gate: same best-of scoring, catching the
            # scale-out regressions aggregate events/sec hides — e.g. a
            # run that silently fans out over more workers to keep its
            # aggregate flat while each core does less useful work.
            for (name in cur_core) {
                if (!(name in base_core) || base_core[name] == 0) continue
                checked++
                ratio = cur_core[name] / base_core[name]
                printf "bench-check: %-8s best %12.0f ev/s/core  vs baseline %12.0f (%+.1f%%)\n",
                       name, cur_core[name], base_core[name], (ratio - 1) * 100
                if (ratio < 0.80) {
                    printf "bench-check: %s per-core throughput regressed more than 20%%\n", name
                    status = 1
                }
            }
            # Memory gate: bytes per co-resident pair, for exhibits that
            # report it (fleet). Allocation is near-deterministic, but the
            # same best-of-attempts tolerance shields allocator drift.
            for (name in cur_mem) {
                if (!(name in base_mem) || base_mem[name] == 0) continue
                checked++
                ratio = cur_mem[name] / base_mem[name]
                printf "bench-check: %-8s best %12.0f bytes/pair vs baseline %12.0f (%+.1f%%)\n",
                       name, cur_mem[name], base_mem[name], (ratio - 1) * 100
                if (ratio > 1.20) {
                    printf "bench-check: %s memory regressed more than 20%%\n", name
                    status = 1
                }
            }
            if (checked == 0) {
                print "bench-check: no comparable exhibits found"
                status = 1
            }
            exit status
        }
    ' BENCH_repro.json "$seen"; then
        echo "bench-check: ok"
        exit 0
    fi

    if [ "$attempt" -lt "$attempts" ]; then
        echo "bench-check: attempt $attempt/$attempts below threshold; retrying"
        sleep 20
    fi
done

echo "bench-check: FAIL: best of $attempts attempts still >20% worse than baseline"
echo "bench-check: (if this host is simply slower than the one that recorded"
echo "bench-check: BENCH_repro.json, regenerate it: ./target/release/repro --bench-json)"
exit 1
