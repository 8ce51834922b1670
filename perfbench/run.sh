#!/usr/bin/env bash
# Builds the benchmark driver and the plan server from source, then runs the
# driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep_tuned --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/planserver" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/planserver and perfbench/)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOFLAGS= GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/planserver" repro/cmd/planserver) >&2
exec "$build/bin/perfbench" -planserver "$build/bin/planserver" "$@"
