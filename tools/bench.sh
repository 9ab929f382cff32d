#!/usr/bin/env bash
# The one command behind every host-time number EXPERIMENTS.md quotes:
#
#   tools/bench.sh OUT
#
# writes OUT in the benchmark's own output format (a provenance line and
# a result line per run): seeds 1-3 of each of the six workloads at
# `--trace 0` (the end-to-end metrics), then one `--trace 1` run (every
# per-layer probe; the probes do not depend on the workload), and judges
# OUT against the committed BENCH.jsonl with the registry's bounds (exit
# 1 on any `worse`). `tools/bench.sh BENCH.jsonl` re-records the
# baseline. About 5 minutes on the 2-vCPU host; wall-clock only means
# something on an otherwise idle machine (benchmark/NOISE.md).
set -euo pipefail
out=$(realpath "${1:?usage: tools/bench.sh OUT}")
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench=benchmark/target/release/tshmem-benchmark
: > "$out"
for w in rma_native coll_flat32 coll_hier256 fft2d_app timed_paper server_jobs; do
    for seed in 1 2 3; do
        "$bench" --workload "$w" --seed "$seed" --trace 0 >> "$out"
    done
done
"$bench" --workload coll_hier256 --seed 1 --trace 1 >> "$out"
"$bench" compare BENCH.jsonl "$out"
