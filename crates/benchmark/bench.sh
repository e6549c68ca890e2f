#!/usr/bin/env bash
# One benchmark run from the repository root:
#
#   bash crates/benchmark/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the chs-benchmark binary in release mode and runs it; the JSON
# result line is the last line of standard output. Traced runs
# (`--trace 1`) use the build with the `counters` feature, which compiles
# the Γ-evaluation, memo and quadrature-fallback counters into the hot
# paths; untraced runs measure the build without them.
set -euo pipefail

features=()
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        features=(--features counters)
    fi
    prev="$arg"
done

exec cargo run --release --quiet -p chs-benchmark "${features[@]}" -- "$@"
