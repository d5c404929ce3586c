#!/usr/bin/env bash
# Builds the PAWS benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Run from the root of the repository:
#
#   bash _pawsbench/run.sh --workload season --seed 1 --seconds 10 --trace 0
#
# Every build artifact and cache lives under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/_pawsbench" ]; then
	echo "run.sh: run from the root of the PAWS repository" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off GOPROXY=off CGO_ENABLED=0
go -C "$root/_pawsbench" build -o "$out/pawsbench" .
exec "$out/pawsbench" "$@"
