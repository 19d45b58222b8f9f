#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes (cache, module cache, temp files, the binary) and
# everything a run writes (span files) stays under .bench_build in the
# checkout. In a directory without the repository's sources the build
# fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
	export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
	go build -C "$root/bench" -o "$build/bench" .
)
cd "$root"
# Run on one CPU, the last one this shell may use. The engine hands work
# between a spinning worker thread, the callers and the RAM device's
# goroutines; across two vCPUs of a shared host every hand-off is an
# inter-processor wake-up whose cost follows the host's load (identical
# runs: 16-20 Kops/s on two CPUs, 21-24 Kops/s on one), on one CPU it is
# a context switch. The program raises GOMAXPROCS to 2 itself.
cpu="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/.*[,-]//')" || cpu=""
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
	exec taskset -c "$cpu" "$build/bench" "$@"
fi
exec "$build/bench" "$@"
