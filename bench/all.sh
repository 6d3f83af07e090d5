#!/bin/sh
# Run every workload once and print its metrics.
# Usage: sh bench/all.sh [seed] [trace]   (trace 0: end to end, 1: per layer)
set -e
cd "$(dirname "$0")/.."
for w in exact-subsets large-polytope mesh-probe; do
    python3 bench/run.py --workload "$w" --seed "${1:-1}" --trace "${2:-0}"
done
