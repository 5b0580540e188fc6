#!/usr/bin/env bash
# Builds the benchmark and supremm-serve from the checkout it sits in,
# then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve-rows --seed 1 --seconds 8 --trace 0
#
# Run it from the root of the checkout. Everything the build writes
# (compiled binaries, the Go build cache, scratch files) stays under
# .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/supremm-serve" ]]; then
	echo "perfbench: run from the root of a supremm checkout (go.mod and cmd/supremm-serve not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user's config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

go build -o "$out/supremm-serve" ./cmd/supremm-serve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -serve-bin "$out/supremm-serve" -work "$out/tmp" "$@"
