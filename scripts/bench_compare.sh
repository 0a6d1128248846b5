#!/bin/sh
# bench_compare.sh: allocation- and wall-clock-regression gate.
#
# Runs the hot-path benchmarks with -benchmem (the gradient-ring one
# at -cpu 1) and compares them against the committed baseline
# (scripts/bench_baseline.txt, columns: name allocs/op ns/op). The gate
# fails when a baselined row's allocs/op regresses by more than 10%, or
# when a parallelism=1 row's ns/op regresses by more than 35%
# (wall-clock is gated only at parallelism=1, the deterministic
# configuration; parallel rows' timing is scheduling noise on small
# hosts, their baseline ns/op is reference-only). Emits a
# machine-readable BENCH_pr7.json with the measured and baseline
# numbers and the speedup factor side by side.
set -eu

cd "$(dirname "$0")/.."

BASELINE=scripts/bench_baseline.txt
OUT_JSON=${BENCH_OUT:-BENCH_pr7.json}
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkConv2DForward|BenchmarkGroupEpoch|BenchmarkSimnetSimulate' \
    -benchmem -benchtime 3x . ./internal/simnet | tee "$RAW"
# The gradient ring's per-frame cost: 8 members over loopback TCP at
# one core, the configuration of the mesh-ring benchmark workload.
go test -run '^$' -bench 'BenchmarkRingAllReduceTCP' -cpu 1 \
    -benchmem -benchtime 200x ./internal/runtime | tee -a "$RAW"

# Compare against the baseline and build the JSON report in one awk
# pass over both files.
awk -v out="$OUT_JSON" '
    NR == FNR {
        if ($0 !~ /^#/ && NF == 3) { baseAllocs[$1] = $2; baseNs[$1] = $3 }
        next
    }
    $1 ~ /^Benchmark/ && $0 ~ /allocs\/op/ {
        name = $1
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     ns[name] = $(i-1)
            if ($(i) == "B/op")      bytes[name] = $(i-1)
            if ($(i) == "allocs/op") allocs[name] = $(i-1)
        }
        order[n++] = name
    }
    END {
        printf "{\n  \"benchmarks\": [\n" > out
        fail = 0
        for (i = 0; i < n; i++) {
            name = order[i]
            ba = (name in baseAllocs) ? baseAllocs[name] : -1
            bn = (name in baseNs) ? baseNs[name] : -1
            speed = (bn > 0 && ns[name] > 0) ? bn / ns[name] : 0
            printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"baseline_allocs_per_op\": %d, \"baseline_ns_per_op\": %d, \"speedup_vs_baseline\": %.3f}%s\n", \
                name, ns[name], bytes[name], allocs[name], ba, bn, speed, (i < n-1 ? "," : "") > out
            if (ba >= 0) {
                limit = ba * 1.10
                if (allocs[name] > limit) {
                    printf "FAIL: %s allocs/op %s exceeds baseline %d by more than 10%% (limit %.1f)\n", \
                        name, allocs[name], ba, limit
                    fail = 1
                } else {
                    printf "ok: %s allocs/op %s vs baseline %d (limit %.1f)\n", \
                        name, allocs[name], ba, limit
                }
            }
            if (bn > 0 && name ~ /parallelism=1$/) {
                nlimit = bn * 1.35
                if (ns[name] + 0 > nlimit) {
                    printf "FAIL: %s ns/op %s exceeds baseline %d by more than 35%% (limit %.0f)\n", \
                        name, ns[name], bn, nlimit
                    fail = 1
                } else {
                    printf "ok: %s ns/op %s vs baseline %d (%.2fx)\n", \
                        name, ns[name], bn, speed
                }
            }
        }
        printf "  ]\n}\n" > out
        exit fail
    }
' "$BASELINE" "$RAW"

echo "wrote $OUT_JSON"
