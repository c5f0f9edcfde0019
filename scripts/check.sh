#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, docs, every test, and
# the release-mode smokes. CI runs exactly this; run it before pushing.
#
# The tier-1 command (`cargo build --release && cargo test -q`) is a subset:
# the root manifest's `default-members` make it cover the umbrella crate and
# every crate under crates/, i.e. everything `cargo test --workspace` below
# runs except the vendored proptest stand-in's own tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# One execution path: no mode switch may come back, and the two constant
# shims `benchmark/src/provenance.rs` prints are named nowhere else.
if grep -rnE 'ModeSwitch|\.scoped\(\)|KernelMode::Scalar|PlanMode::Sequential' crates src tests examples ||
    grep -rnE 'kernel_mode|plan_mode' crates src tests examples |
        grep -vE '^crates/tensor/src/(kernels|plan)\.rs:[0-9]+:pub fn (kernel|plan)_mode\(\) -> |^crates/tensor/src/lib\.rs:[0-9]+:pub use kernels::\{kernel_mode, KernelMode\};$'; then
    echo "error: the lines above select or read an execution mode" >&2
    exit 1
fi
# One source of extra threads, the worker budget (`DriverBuilder::workers`):
# outside tests, only the work-stealing pool and the server step start a
# thread in these crates — the pool's `budget − 1` helpers beside its
# caller, and the server step's one scope, which holds its step worker and
# a data-free round's refine beside the distillation. A thread
# started anywhere else would not count against the budget and would
# oversubscribe the cores it already handed out. Prints
# `file:line:enclosing fn: line` for every non-comment spawn site.
spawns=$(find crates/tensor/src crates/core/src crates/baselines/src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { live = 1; name = "" }
        /^#\[cfg\(test\)\]/ { live = 0 }
        !live || $1 ~ /^\/\// { next }
        match($0, /fn [A-Za-z0-9_]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
        /thread::(scope|spawn)/ { print FILENAME ":" FNR ":" name ": " $0 }' |
    grep -vE '^crates/tensor/src/parallel\.rs:[0-9]+:run_stealing: |^crates/core/src/fedpkd/distill\.rs:[0-9]+:train_server_with_workers: ' ||
    true)
if [ -n "$spawns" ]; then
    echo "$spawns"
    echo "error: the lines above start a thread outside the worker budget" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
# The vendored third-party crate is exempt from the doc gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --exclude proptest
# Every failing test binary is reported, not only the first.
cargo test --workspace -q --no-fail-fast
# One-core liveness: the training thread and its step worker wait on each
# other (bounded spin, then block; the forward waits layer by layer), every
# algorithm's client phases run on the work-stealing pool, whose caller
# works its own items and then waits on a reorder buffer the helpers fill,
# a served round folds its staged uploads on the caller and never enters
# the pool, a data-free round's refine thread turns step worker when the
# refine returns and is joined after the distillation, and the lock-step
# serve protocol waits on a buffered socket read (one that waited on the
# socket while its bytes sat in the buffer would hang). All must also
# finish when all threads share one core. Re-runs the inline-vs-worker and
# job-beside-the-worker tests (with them the check that a worker step leaves
# no `Linear` gradient allocated, `a_worker_step_allocates_no_linear_gradient`),
# the pinned trainer literals (budgets 2 and 3
# must reproduce them on one core), the dispatcher's own tests (panics on
# the caller and on a helper included), the phase kit's unit tests, the
# staged fold, the data-free budget sweep (caller, refine thread and step
# worker at budget 3) and the served-vs-in-process tests pinned to CPU 0; a
# wait that can hang dies on the timeout instead of stalling the gate. A
# filter that matches no test exits 0, so each run must also report at least
# one passed test: a renamed test cannot drop out of this gate unseen.
one_core() {
    local out
    out=$(taskset -c 0 timeout 600 cargo test --release -q "$@" 2>&1) &&
        grep -qE '^test result: ok\. [1-9][0-9]* passed' <<< "$out" || {
        printf '%s\n' "$out"
        echo "error: one-core cargo test $* failed or ran no test" >&2
        return 1
    }
}
if command -v taskset > /dev/null && command -v timeout > /dev/null; then
    one_core -p fedpkd-core --test fused_step worker
    one_core -p fedpkd-core --test pinned_trainers
    one_core -p fedpkd-tensor --lib parallel::
    one_core -p fedpkd-core --lib clients::
    one_core -p fedpkd-core --lib fleet::tests::staged_uploads
    one_core --test fleet fedpkd_data_free_refine_beside_distill
    one_core -p fedpkd-serve --test serve
else
    echo "skip: one-core runs (need taskset and timeout)" >&2
fi
# Serve smoke: the real UDS transport under chaos — the server is SIGKILLed
# at three seeded points mid-run, restarted from its streaming snapshot, and
# the completed history + ledger must be bit-identical to the in-process
# driver at the same seed (crates/serve/tests/chaos.rs asserts internally).
cargo test --release -q -p fedpkd-serve --test chaos > /dev/null
# Example smokes: every example asserts its own headline (a resumed run
# replays bit-identically, the defended run beats the attacked one, FedPKD
# beats FedAvg at α = 0.1, …), so each is run, not just compiled — a new
# example is a smoke by existing. ~25 s for the nine after the build.
cargo build --release -q --examples
for example in examples/*.rs; do
    timeout 120 "${CARGO_TARGET_DIR:-target}/release/examples/$(basename "$example" .rs)" > /dev/null
done
# Trace parse: an independent JSON parser reads every line the telemetry
# example just wrote; each must be one object whose first key is "event",
# and NaN / Infinity (which Python would accept, JSON does not) fail it.
if command -v python3 > /dev/null; then
    python3 -c '
import json, sys
def strict(name):
    raise ValueError("not JSON: " + name)
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty trace"
for n, line in enumerate(lines, 1):
    event = json.loads(line, parse_constant=strict)
    assert isinstance(event, dict) and next(iter(event)) == "event", (n, line)
print("trace parse: %d lines of %s are JSON" % (len(lines), sys.argv[1]))
' fedpkd-trace.jsonl
else
    echo "skip: trace parse (needs python3)" >&2
fi
# Accuracy gate: the α sweep at three seeds (seeded, so deterministic) exits
# non-zero if FedPKD, public or data-free, falls below FedDF at any seed
# where it must win; the gates are in its doc comment (~75 s on 2 cores).
cargo bench -q -p fedpkd-bench --bench alpha_sweep > /dev/null
# Benchmark smoke: `benchmark/` is its own workspace, so nothing above
# compiles it — a changed `pub` signature it calls would break the repo's
# benchmark silently. Builds it and runs every workload (timed and traced,
# ~5 s after the build) through every in-run correctness gate.
bash benchmark/run.sh all --smoke > /dev/null
# The size every CHANGES.md entry quotes, measured one way.
bash scripts/loc.sh
