#!/usr/bin/env bash
# run.sh builds the serving benchmark from the checkout's sources and runs
# it, forwarding every argument:
#
#	bash dpbench/run.sh --workload nltcs-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, the binary)
# stays under .bench_build in the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
out="${root}/.bench_build/dpbench"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off
(cd dpbench && go build -o "${out}/dpbench" .)
exec "${out}/dpbench" "$@"
