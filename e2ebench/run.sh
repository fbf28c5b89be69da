#!/usr/bin/env bash
# Builds neurdb-server and the end-to-end benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload ycsb --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch data directories and trace
# files all live under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout, so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export TMPDIR=$build/tmp GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

if [ ! -f go.mod ] || [ ! -d cmd/neurdb-server ]; then
	echo "run.sh: no neurdb checkout in $root (go.mod, cmd/neurdb-server)" >&2
	exit 1
fi
# With telemetry on, the go command forks a detached child that outlives
# this script; turning it off first (a command that forks none) keeps
# every process the benchmark starts inside its run.
go telemetry off >&2

go build -o "$build/neurdb-server" ./cmd/neurdb-server >&2
(cd e2ebench && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" -server "$build/neurdb-server" -work "$build" "$@"
