#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change.
#   1. release build of the whole workspace
#   2. the full test suite (unit + integration + property tests)
#   3. clippy with warnings denied
#   4. a smoke pass over the criterion benches (--test runs each bench
#      once without measuring, catching bit-rot in bench code; the
#      inference_latency bench also asserts the execution-mode contract)
#   5. the perf snapshot smoke (scripts/bench.sh --smoke): GEMM GFLOP/s
#      per kernel, streaming maintenance and serve latency quantiles
#   6. the static model-graph analyzer over the whole zoo (clean plans,
#      clean serving + streaming audit) plus its self-test of seeded
#      negatives
#   7. the static-analysis gate (scripts/lint.sh): dhg-lint self-test and
#      clean-repo scan (DL001-DL006 with lint.allow), and the analyzer's
#      --budget check that every model's predicted peak workspace fits
#      the serve cap
#   8. the serve-engine smoke: zero sheds at low offered load, typed
#      Rejected shedding past the queue bound, accepted work all answered
#   9. the chaos smoke: under seeded fault injection, dead workers are
#      respawned, every accepted request resolves to logits or a typed
#      error (with surviving logits bitwise-exact), and interrupted
#      training resumes bitwise from its last valid snapshot
#  10. the net smoke: loopback TCP round-trip through NetClient →
#      NetServer → Router with logits bitwise-identical to in-process
#      inference, typed errors over the wire, and a hot-swap under load
#      losing zero accepted requests
#  11. the chaos-net smoke: seeded wire-level fault storms (conn-drop,
#      frame-truncate, frame-corrupt, reply-delay, accept-reject) with
#      bitwise-or-typed replies, zero accepted-request loss, an
#      exactly-once swap through a lost reply, and canary promote +
#      poisoned rollback over the wire
#  12. rustdoc with warnings denied (broken intra-doc links fail the gate)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --workspace --release

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: bench smoke (compile + single pass, no measurement) =="
cargo bench -p dhg-bench -- --test

echo "== tier1: perf snapshot smoke (GEMM GFLOP/s + serve quantiles) =="
scripts/bench.sh --smoke

echo "== tier1: static model-graph analysis =="
cargo run --release -q -p dhg-bench --bin analyze
cargo run --release -q -p dhg-bench --bin analyze -- --self-test

echo "== tier1: static-analysis gate (dhg-lint + workspace budget) =="
scripts/lint.sh

echo "== tier1: serve-engine smoke (backpressure semantics) =="
cargo run --release -q -p dhg-bench --bin serve -- --smoke

echo "== tier1: chaos smoke (fault-injection contracts) =="
cargo run --release -q -p dhg-bench --bin chaos -- --smoke

echo "== tier1: net smoke (loopback TCP round-trip + hot-swap) =="
cargo run --release -q -p dhg-bench --bin net -- --smoke

echo "== tier1: chaos-net smoke (wire fault contracts) =="
cargo run --release -q -p dhg-bench --bin chaos-net -- --smoke

echo "== tier1: cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier1: OK =="
