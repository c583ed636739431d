#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build and the run leave behind goes under .bench_build/, which
# .gitignore names: the Go build and module caches, the toolchain's local
# counters, temporary files, job directories, traces and reports.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
(cd "$here" && env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/h2obench" .)
cd "$root"
exec "$build/h2obench" "$@"
