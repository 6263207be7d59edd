#!/bin/sh
# BENCHMARK.json's command: build blobseer-replay from the checkout's source
# and run it. Everything the build and the run write — Go's build cache and
# work directory, the binary, the providers' segment files — stays under
# .bench_build in the checkout.
set -e
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/blobseer-replay ./cmd/blobseer-replay
exec .bench_build/blobseer-replay -data-dir .bench_build/data "$@"
