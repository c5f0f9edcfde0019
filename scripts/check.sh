#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, docs, every test, and
# the release-mode smokes. CI runs exactly this; run it before pushing.
#
# The tier-1 command (`cargo build --release && cargo test -q`) is a subset:
# the root manifest's `default-members` make it cover the umbrella crate and
# every crate under crates/, i.e. everything `cargo test --workspace` below
# runs except the vendored criterion/proptest stand-ins' own 12 tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Vendored third-party crates are exempt from the doc gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
    --exclude proptest --exclude criterion
cargo test --workspace -q
# Step-worker liveness: the training thread and its step worker wait on
# each other (bounded spin, then block), which must also finish when both
# share one core. Re-runs the inline-vs-worker tests pinned to CPU 0; a
# wait that can hang dies on the timeout instead of stalling the gate.
if command -v taskset > /dev/null && command -v timeout > /dev/null; then
    taskset -c 0 timeout 600 cargo test --release -q -p fedpkd-core --test fused_step worker
else
    echo "skip: step-worker one-core run (needs taskset and timeout)" >&2
fi
# Release-mode smoke: a 10-round run interrupted at round 5 must resume
# bit-identically from its serialized snapshot (asserts internally).
cargo run --release -q --example checkpoint_resume > /dev/null
# Kernel-tier perf smoke: times the scalar and fast kernel tiers on a tiny
# profile and exits non-zero if they are not bit-identical. The committed
# fig7-scale report is BENCH_pr5.json; this gate checks equivalence, not
# speed (CI boxes are too noisy for a speed assertion).
FEDPKD_PERF_SCALE=smoke FEDPKD_PERF_OUT=target/bench_smoke.json \
    cargo run --release -q -p fedpkd-bench --bin perf > /dev/null
# Serve smoke: the real UDS transport under chaos — the server is SIGKILLed
# at three seeded points mid-run, restarted from its streaming snapshot, and
# the completed history + ledger must be bit-identical to the in-process
# driver at the same seed (crates/serve/tests/chaos.rs asserts internally).
cargo test --release -q -p fedpkd-serve --test chaos > /dev/null
# Serve throughput/recovery smoke: a small served federation plus an
# in-process restore probe; exits non-zero unless both legs reproduce the
# driver bit-identically. The committed full-scale report is BENCH_pr8.json.
FEDPKD_PERF_SCALE=serve-smoke FEDPKD_PERF_OUT=target/bench_serve_smoke.json \
    cargo run --release -q -p fedpkd-bench --bin perf > /dev/null
# Fleet-scale smoke: a 1000-client fleet with 64-client seeded cohorts must
# replay bit-identically in both sync and bounded-staleness modes. The
# committed 10k-client report is BENCH_pr7.json.
FEDPKD_PERF_SCALE=fleet-smoke FEDPKD_PERF_OUT=target/bench_fleet_smoke.json \
    cargo run --release -q -p fedpkd-bench --bin perf > /dev/null
# Memory gate: the 1000-client smoke fleet must not out-grow the committed
# 10k-client pre-CoW peak (BENCH_pr6.json), with 20% headroom for allocator
# and kernel noise — and the copy-on-write pool must keep a model-backed
# fleet at least 4x cheaper than dense per-client state.
json_field() { grep -o "\"$2\": [0-9]*" "$1" | head -1 | awk '{print $2}'; }
smoke_rss=$(json_field target/bench_fleet_smoke.json peak_rss_bytes)
base_rss=$(json_field BENCH_pr6.json peak_rss_bytes)
if [ "$smoke_rss" -gt $((base_rss * 6 / 5)) ]; then
    echo "FAIL: fleet-smoke peak RSS $smoke_rss exceeds pre-CoW baseline $base_rss (+20%)" >&2
    exit 1
fi
owned=$(json_field target/bench_fleet_smoke.json owned_fleet_bytes)
pooled=$(json_field target/bench_fleet_smoke.json pooled_fleet_bytes)
if [ "$pooled" -gt $((owned / 4)) ]; then
    echo "FAIL: pooled fleet residency $pooled is not 4x below dense $owned" >&2
    exit 1
fi
# Batched-plan smoke: fused loss epilogues, grouped scheduling, and the
# vectorized robust kernels must stay bit-identical to the scalar tier
# across the full 8-method gate matrix (kernel tier x plan schedule x
# worker budget). The committed full-scale report with enforced speed
# floors is BENCH_pr9.json; the smoke checks equivalence, not speed.
FEDPKD_PERF_SCALE=pr9-smoke FEDPKD_PERF_OUT=target/bench_pr9_smoke.json \
    cargo run --release -q -p fedpkd-bench --bin perf > /dev/null
# Scenario-diversity smoke: the α sweep (FedPKD with adaptive margins vs
# FedDF at equal comm budget) and the data-free distillation mode. The
# adaptive-margins and generated-transfer modes must replay bit-identically
# across the determinism matrix; the committed full-scale report with the
# accuracy gates (FedPKD > FedDF at α <= 0.1, data-free within 3 points of
# the public mode) is BENCH_pr10.json.
FEDPKD_PERF_SCALE=pr10-smoke FEDPKD_PERF_OUT=target/bench_pr10_smoke.json \
    cargo run --release -q -p fedpkd-bench --bin perf > /dev/null
json_bool() { grep -o "\"$2\": [a-z]*" "$1" | head -1 | awk '{print $2}'; }
if [ "$(json_bool target/bench_pr10_smoke.json margins_mode)" != "true" ] ||
   [ "$(json_bool target/bench_pr10_smoke.json generated_mode)" != "true" ]; then
    echo "FAIL: pr10 smoke — a scenario-diversity mode diverged across the determinism matrix" >&2
    exit 1
fi
# Benchmark smoke: `benchmark/` is its own workspace, so nothing above
# compiles it — a changed `pub` signature it calls would break the repo's
# benchmark silently. Builds it and runs every workload (timed and traced,
# ~5 s after the build) through every in-run correctness gate.
bash benchmark/run.sh all --smoke > /dev/null
