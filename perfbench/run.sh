#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper --seed 2020 --seconds 15 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, temp files, the binary, CPU profiles) stays under .bench_build/ in
# the current directory. Without the repository's go.mod the script exits
# non-zero before building and prints no result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod in $root; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
