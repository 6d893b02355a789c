#!/usr/bin/env bash
# Plumbing check of every workload, end-to-end and traced: builds the benchmark,
# runs each workload for two rounds (--seconds 2), and fails on the first run that
# is incorrect or prints no result line. The traced runs use another corpus shape
# (--shape 2), so a differently shaped corpus is checked for correctness too.
# Numbers from these runs mean nothing; use `lpbench --workload <w> --seed <s>` for
# numbers. Takes about three minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/lpbench"
for workload in paper_offline http_bulk http_durable_retrain http_query_recovered; do
  echo "smoke: $workload"
  "$bin" --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1 | grep -q '"correct": true'
  echo "smoke: $workload traced, second shape"
  "$bin" --workload "$workload" --seed 1 --seconds 2 --trace 1 --shape 2 | tail -n 1 | grep -q '"correct": true'
done
echo "smoke: ok"
