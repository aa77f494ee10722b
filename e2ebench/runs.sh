#!/usr/bin/env bash
# Runs every workload once per seed, each for BENCHMARK.json's
# run_seconds, and saves each run's stdout as
# <out-dir>/<workload>-<seed>.out, the layout `e2ebench compare` reads.
#
#   e2ebench/runs.sh <out-dir> <seed>...      # from the repository root
#   e2ebench/runs.sh parent 1 2 3 4 5 6 7 8 9 10
#   cargo run --release --manifest-path e2ebench/Cargo.toml -- compare parent [change]
set -euo pipefail
out=${1:?usage: e2ebench/runs.sh <out-dir> <seed>...}
shift
mkdir -p "$out"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for seed in "$@"; do
  for w in offline-check stream-durable gateway-lag; do
    cargo run --quiet --release --offline --manifest-path e2ebench/Cargo.toml -- \
      --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
      >"$out/$w-$seed.out"
    tail -n 1 "$out/$w-$seed.out"
  done
done
