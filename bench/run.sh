#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (compiler cache, temporary files, the go
# command's own counters, the binary) goes under .bench_build/ at the root
# of the checkout, so a run reads and writes nothing outside it. The build
# fails, and this script with it, where the repository's own sources are
# missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C "$here" -o "$build/shieldbench" .
exec "$build/shieldbench" "$@"
