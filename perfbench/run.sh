#!/usr/bin/env bash
# Builds cmd/oram-server and the benchmark from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mem-single-ct --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/oram-server ] || [ ! -f perfbench/go.mod ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/bin/oram-server" ./cmd/oram-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
# The harness and the server it starts share one CPU, the last one this
# process may use. Go sizes GOMAXPROCS from that mask, so both run with
# one P. Spread over two CPUs of a shared virtual machine, wake-ups
# across CPUs and the Go scheduler's idle spinning moved the server's
# CPU time per op by a third between runs of the same code.
cpus=$(taskset -cp $$)
cpu=${cpus##*[:,-]}
exec taskset -c "${cpu// /}" "$out/bin/perfbench" -server "$out/bin/oram-server" -work "$out" "$@"
