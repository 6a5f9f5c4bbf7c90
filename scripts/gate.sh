#!/bin/sh
# The repo's one benchmark gate. Each subcommand runs one sweep, writes
# its parsed results, and fails the build when an assertion breaks:
#
#   sh scripts/gate.sh alloc   [out]            -> BENCH_pr6.json
#   sh scripts/gate.sh sched   [out]            -> BENCH_pr9.json
#   sh scripts/gate.sh file    [out]            -> BENCH_pr10.json
#   sh scripts/gate.sh explore [out7 out8 out9] -> BENCH_pr7.json, BENCH_pr8.json,
#                                                  BENCH_pr9-explore.json
#   sh scripts/gate.sh [all]                    every sweep, default outputs
#
# Every assertion is relative or an allocation budget, so nothing drifts
# with host hardware. BENCHTIME overrides a benchmark sweep's iteration
# count; EXPLORE_OPS / EXPLORE_WARMUP size the explorer grids.
set -eu

# alloc: the hot-path sweep held to the zero-allocation contract — the
# serving path (core access -> encrypt -> store, and the sharded single-op
# path) must not allocate in steady state. Budget 1 (not 0): ultra-short
# CI runs can round pool warm-up and RunParallel goroutine setup to 1
# alloc/op; anything above that is a real per-operation allocation.
# BenchmarkAccessStrawmanEncrypted stays outside the gate — the Section
# 2.2.1 strawman allocates per block by design. BenchmarkAccessRecursivePLBHit
# holds the position-map lookaside cache's hit path to the pooled-buffer
# discipline, and BenchmarkSchedFRFCFS2Shard the open-queue serving path
# (event rings, skip-mask pool, merged-window batch scratch). The
# constant-time stash must also cost under 2x the default stash on the
# same counter-encrypted geometry: its masked scans read every window
# slot, and word-wide scans keep that overhead bounded.
gate_alloc() {
  out="${1:-BENCH_pr6.json}"
  go test -run xxx \
    -bench 'BenchmarkAccessMetadataOnly|BenchmarkAccessPlaintext|BenchmarkAccessCounterEncrypted|BenchmarkAccessConstantTimeStash|BenchmarkAccessRecursivePLBHit|BenchmarkShardedThroughput$|BenchmarkShardedThroughputEncrypted|BenchmarkShardedDRAM|BenchmarkSchedFRFCFS2Shard' \
    -benchtime "${BENCHTIME:-2000x}" -benchmem . |
    go run ./cmd/oram-benchjson -out "$out" \
      -gate 'BenchmarkAccessPlaintext|BenchmarkAccessCounterEncrypted|BenchmarkAccessConstantTimeStash|BenchmarkAccessRecursivePLBHit|BenchmarkShardedThroughput|BenchmarkSchedFRFCFS2Shard' \
      -max-allocs 1 \
      -require 'BenchmarkAccessConstantTimeStash/counter:ns/op<2*BenchmarkAccessCounterEncrypted:ns/op'
  echo "wrote $out"
}

# sched: on an identical 2-shard timed load, the FR-FCFS open command
# queue must beat the in-order baseline on modeled cycles per op, row-hit
# rate AND ops per modeled second; the queued hot path is held to the
# allocation budget too.
gate_sched() {
  out="${1:-BENCH_pr9.json}"
  go test -run xxx -bench 'BenchmarkSchedInorder2Shard|BenchmarkSchedFRFCFS2Shard' \
    -benchtime "${BENCHTIME:-3000x}" -benchmem . |
    go run ./cmd/oram-benchjson -out "$out" \
      -gate 'BenchmarkSchedInorder2Shard|BenchmarkSchedFRFCFS2Shard' \
      -max-allocs 1 \
      -require 'BenchmarkSchedFRFCFS2Shard:cycles/op<BenchmarkSchedInorder2Shard:cycles/op' \
      -require 'BenchmarkSchedFRFCFS2Shard:row-hit>BenchmarkSchedInorder2Shard:row-hit' \
      -require 'BenchmarkSchedFRFCFS2Shard:ops/modeled-s>BenchmarkSchedInorder2Shard:ops/modeled-s'
  echo "wrote $out"
}

# file: the mmap'd file backend must stay within 3x of the in-memory
# counter-encrypted baseline (same geometry, so the ratio is pure storage
# overhead), write-ahead logging must cost something on top of the bare
# file, and paying the epoch barrier inline (checkpoint every 32 ops) must
# cost more still. The file serving paths are held to the allocation
# budget.
gate_file() {
  out="${1:-BENCH_pr10.json}"
  go test -run xxx -bench 'BenchmarkAccessCounterEncrypted$|BenchmarkFileBackend' \
    -benchtime "${BENCHTIME:-2000x}" -benchmem . |
    go run ./cmd/oram-benchjson -out "$out" \
      -gate 'BenchmarkFileBackendAccess|BenchmarkFileBackendWAL$' \
      -max-allocs 1 \
      -require 'BenchmarkFileBackendAccess:ns/op<3*BenchmarkAccessCounterEncrypted:ns/op' \
      -require 'BenchmarkFileBackendAccess:ns/op<BenchmarkFileBackendWAL:ns/op' \
      -require 'BenchmarkFileBackendWAL:ns/op<BenchmarkFileBackendWALEpochFlush:ns/op'
  echo "wrote $out"
}

# explore: the design-space explorer's grids must complete and validate
# against the embedded schema with a non-empty marked Pareto frontier over
# {p99 latency, cycles/op, on-chip bytes}: the smoke grid (2 shard counts
# x 2 position-map policies x 2 backends) covering >= 8 configurations,
# the position-map acceleration grid (PLB budget x Figure 5(b) overlap
# depth) >= 4, and the memory-controller grid (in-order vs FR-FCFS at two
# depths) >= 3, each under uniform and zipf workloads.
gate_explore() {
  explore_grid smoke "${1:-BENCH_pr7.json}" 8
  explore_grid pr8 "${2:-BENCH_pr8.json}" 4
  explore_grid pr9 "${3:-BENCH_pr9-explore.json}" 3
}

# explore_grid GRID OUT MIN-CONFIGS runs one explorer grid and checks it.
explore_grid() {
  go run ./cmd/oram-explore -grid "$1" -ops "${EXPLORE_OPS:-512}" \
    -warmup "${EXPLORE_WARMUP:-128}" -seed 1 -out "$2"
  go run ./cmd/oram-explore -check "$2" -min-configs "$3"
  echo "wrote $2"
}

cmd="${1:-all}"
[ $# -gt 0 ] && shift
case "$cmd" in
  alloc) gate_alloc "$@" ;;
  sched) gate_sched "$@" ;;
  file) gate_file "$@" ;;
  explore) gate_explore "$@" ;;
  all)
    # One command per sweep: set -e is ignored inside a function that runs
    # as a non-final member of an && list.
    gate_alloc
    gate_sched
    gate_file
    gate_explore
    ;;
  *)
    echo "usage: $0 [alloc|sched|file|explore|all] [outputs...]" >&2
    exit 2
    ;;
esac
