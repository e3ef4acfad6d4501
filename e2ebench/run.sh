#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the root
# of a billcap checkout:
#
#   bash e2ebench/run.sh --workload paper-hours --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and the benchmark's state directories all
# live under .bench_build/ in the current directory, so the run reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -workdir "$out/work" "$@"
