#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; arguments
# pass through (--workload, --seed, --seconds, --trace). Run from the
# repository root. Everything it builds or writes stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry under the user's config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Not exec: the benchmark counts the CPU time and memory of the children it
# starts, and a process keeps its predecessor's child accounting across exec.
"$out/perfbench" "$@"
