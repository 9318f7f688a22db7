#!/bin/sh
# Builds the shmgpu benchmark from the sources of the checkout it is run
# from and runs it with the given flags, e.g.
#
#   sh bench/run.sh --workload lowbw --seed 1 --seconds 22 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# every temporary file stay under .bench_build/ in that checkout.
set -eu

if [ ! -f go.mod ] || [ ! -d internal/gpu ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a shmgpu checkout (simulator sources not found)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$out/shmbench" .)
exec "$out/shmbench" "$@"
