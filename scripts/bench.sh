#!/usr/bin/env bash
# Machine-readable performance snapshot: per-kernel GEMM GFLOP/s (packed
# cache-blocked vs reference ikj, conv- and incidence-shaped operands),
# per-frame streaming topology maintenance vs per-window from-scratch
# reconstruction (T=64, NTU-25), and serve-engine p50/p95/p99 latency at
# a fixed closed-loop offered load.
#
#   scripts/bench.sh            # full run, writes BENCH_9.json at the repo
#                               # root (perf sections + a "net" section of
#                               # per-tenant p50/p95/p99 over loopback TCP
#                               # from the net bench) and gates GEMM rates
#                               # against the committed BENCH_8.json baseline
#   scripts/bench.sh --smoke    # tier-1 gate: same code paths and schema in
#                               # seconds, writes target/BENCH_9.smoke.json
#                               # (no baseline gate: smoke timings are noise)
#
# The streaming-maintenance acceptance floor (>= 3x cheaper than naive
# reconstruction) is asserted inside the perf binary on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    cargo run --release -q -p dhg-bench --bin perf -- --smoke --out target/BENCH_9.smoke.json
else
    baseline_args=()
    if [[ -f BENCH_8.json ]]; then
        baseline_args=(--baseline BENCH_8.json --tolerance 0.5)
    fi
    cargo run --release -q -p dhg-bench --bin perf -- --out BENCH_9.json "${baseline_args[@]}"
    cargo run --release -q -p dhg-bench --bin net -- --requests 200 --merge BENCH_9.json
fi
