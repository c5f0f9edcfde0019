#!/usr/bin/env bash
# The two line counts ROADMAP's size gates and every CHANGES.md entry quote:
#   total     every `.rs` line outside benchmark/, vendor/ and target/
#   non-test  source lines of the crates and the umbrella: what stands above
#             the first column-0 `#[cfg(test)]` of each file under
#             crates/*/src and src/
set -euo pipefail
cd "$(dirname "$0")/.."

total=$(find . -name '*.rs' -not -path './benchmark/*' -not -path './vendor/*' \
    -not -path './target/*' -not -path './.bench_build/*' -print0 |
    xargs -0 cat | wc -l)
non_test=$(find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting' |
    wc -l)
echo "rust lines: ${total} total, ${non_test} non-test source"
