#!/usr/bin/env bash
# Non-test lines per crate under crates/*/src.
#
# usage: tools/loc.sh
#
# A file's non-test lines are the lines before its unit-test module: the
# first `#[cfg(test)]` line that is followed by `mod tests`. A file without
# one counts in full. Prints one `<crate> <lines>` row per crate, then the
# total; integration tests, benches and examples live outside src/ and do
# not count. Runs from any working directory.
set -euo pipefail

cd "$(dirname "$0")/.."
total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { pending = 0; cut = 0 }
        cut { next }
        pending && /^mod tests/ { cut = 1; count -= 1; next }
        { pending = /^#\[cfg\(test\)\]/; count += 1 }
        END { print count + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
