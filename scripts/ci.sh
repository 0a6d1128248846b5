#!/bin/sh
# CI gate: vet, build, full tests, and a race-detector pass over every
# package the parallel execution engine touches, plus a dedicated
# race run of the fault-injection scenarios (crash teardown, degraded
# membership, transport deadlines) in internal/runtime and
# internal/transport.
set -eux

# Formatting gate: every Go file in the tree must be gofmt-clean.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
go test -race ./ ./internal/parallel ./internal/tensor ./internal/nn \
    ./internal/core ./internal/runtime ./internal/transport ./internal/metrics \
    ./internal/serve ./internal/server ./internal/plan
go test -race -run 'Fault|Crash|Degrade|Straggle|LinkDrop|Deadline|Close' \
    ./internal/runtime ./internal/transport
# The metrics registry is written to from every worker goroutine at
# once; run its whole suite under the race detector.
go test -race -count 2 ./internal/metrics
# Control-plane smoke gate: daemon + two tenants' jobs over HTTP with
# quota enforcement, under the race detector.
make server-smoke
# Serving smoke gate: a low-tide serving window through the facade
# (and over HTTP) must hold >= 99% SLO attainment with deterministic
# reports, under the race detector.
make serve-smoke
# Elastic-recovery chaos gate: seeded randomized fault schedules
# (crash windows, rejoins, stragglers, link drops) must converge or
# tear down cleanly under the race detector.
make chaos
# Benchmark-regression gate: hot-path benchmarks must stay within 10%
# of the committed allocs/op baseline (at parallelism 1 AND 4, and the
# 8-member TCP gradient ring at -cpu 1) and within 35% of the committed
# parallelism=1 ns/op baseline (emits BENCH_pr7.json).
./scripts/bench_compare.sh
# Elastic re-planning gate: the pipeline track recovers from a stage
# crash and a tidal shrink via planner-driven re-planning; the harness
# asserts fault-free bit-identity to the plain pipeline and
# predicted == executed epoch seconds on every adopted plan (emits
# BENCH_pr10.json).
make bench-replan
