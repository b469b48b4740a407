#!/usr/bin/env sh
# Runs the repository's benchmark: the command BENCHMARK.json declares,
# from the harness in bench/ (its own module). Arguments pass through,
# e.g. scripts/bench.sh -seed 1 -out new.json, or
# scripts/bench.sh -compare old.json new.json. See bench/README.md for
# the workloads, the metrics and their noise bounds.
set -eu
cd "$(dirname "$0")/.."
exec go run -C bench stackedsim/bench "$@"
