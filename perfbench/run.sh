#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build and temporary file stays under .bench_build/ in the
# checkout root, the directory the command is run from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user's config
# directory; point that into the build directory too.
(cd "$here" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
