#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run locally before pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# perfbench/ is a workspace of its own, so the root `cargo test` never
# compiles it; build and test it here so a library API change cannot
# break the benchmark unnoticed.
echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Static verification of the full zoo in both loop-summarization modes.
# The budget holds the widened mode, the only one the NPU and the
# autotuner's gate run, to its summarized cost: the full-zoo widened
# verify measured ~17ms locally, so 250ms leaves >10x headroom for slow
# CI runners while still catching a regression to per-iteration cost. Exits non-zero on any post-dedup error, on any
# widened/exact divergence, or when over budget.
echo "==> tandem-lint (static verification of the model zoo)"
cargo run --release -q --bin tandem_lint -- TANDEM_LINT.json --budget-ms 250

# Trace outputs land in artifacts/ (gitignored), not the repo root.
mkdir -p artifacts

# Every paper table and figure (paper value next to measured), kept as a
# CI artifact so each run records the reproduction it was tested at.
echo "==> all-figures (paper-vs-measured tables -> artifacts/FIGURES.txt)"
cargo run --release -q --bin all_figures > artifacts/FIGURES.txt

# tandem_profile exits non-zero if the attribution buckets don't sum to
# the reported latency; the traces are uploaded as CI artifacts.
echo "==> tandem-profile (cycle-attribution traces: ResNet-50, BERT)"
cargo run --release -q --bin tandem_profile -- resnet50 artifacts/resnet50.trace.json
cargo run --release -q --bin tandem_profile -- bert artifacts/bert.trace.json

# Multi-NPU serving sweep: policies × fleet sizes over the zoo; the
# SERVE.json artifact is byte-deterministic for a fixed seed.
echo "==> tandem-serve (fleet serving sweep, smoke)"
cargo run --release -q --bin tandem_serve -- --smoke SERVE.json --trace artifacts/fleet.trace.json

# Shared-HBM contention: the BERT-heavy sweep with and without a finite
# shared-bandwidth budget (tail-latency cost of the shared stack).
echo "==> tandem-serve (shared-HBM contention scenario, smoke)"
cargo run --release -q --bin tandem_serve -- --scenario contention --smoke --out SERVE_CONTENTION.json

# LLM decode serving: static vs continuous vs preemptive batching over
# GPT-2 prefill/decode-step cost tables; SERVE_LLM.json quantifies the
# continuous-over-static p99-TTFT and tokens/sec wins per fleet size.
echo "==> tandem-serve (LLM continuous-batching scenario, smoke)"
cargo run --release -q --bin tandem_serve -- --scenario llm --smoke --out SERVE_LLM.json

# Fleet-engine throughput: streaming-statistics serving at CI size.
# Fails if requests/sec drops below the smoke_floor_rps committed in
# the baseline BENCH_SERVE.json (the perf regression guard). The smoke
# output goes to artifacts/ so the committed baseline stays the floor
# source and is never rewritten with this host's numbers.
echo "==> bench-serve (fleet engine throughput, smoke + regression floor)"
cargo run --release -q --bin bench_serve -- --smoke --out artifacts/BENCH_SERVE_SMOKE.json

# Schedule/tiling autotuner: the CI-sized search per zoo model, scored by
# the cached simulator and gated by widened tandem-verify. The search is
# byte-deterministic, so the committed smoke_floor_cycles_* values in
# BENCH_TUNE.json are exact: the step fails if any model's smoke search
# lands above its floor (a schedule lever or the search got worse) or if
# the searches blow the committed wall budget. The smoke output goes to
# artifacts/ so the committed full-mode baseline stays the floor source.
echo "==> tandem-tune (schedule autotuner, smoke + regression floors)"
cargo run --release -q --bin tandem_tune -- --smoke --out artifacts/BENCH_TUNE_SMOKE.json

echo "CI OK"
