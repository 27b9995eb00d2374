#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
#
#   bash servebench/run.sh --workload fin-point --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact (the Go build
# and module caches, the binary, temporary graph directories, span files)
# stays under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -workdir "$out" "$@"
