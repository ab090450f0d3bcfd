#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a kvmarm checkout (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# The toolchain's caches, temporary files and per-user state (module
# cache, telemetry counters) all go under .bench_build; nothing is fetched.
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off \
		GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
