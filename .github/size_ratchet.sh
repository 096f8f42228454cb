#!/usr/bin/env bash
# Size ratchet: every crate, and the storage code that spans crates, has a
# ceiling on its non-test lines — the lines of each `.rs` file before its
# first `#[cfg(test)]` — counted as doc lines (`///`, `//!`) and code
# lines (everything else). A row fails when either count exceeds its
# ceiling. Ceilings may only come down: lower one to what lands when a
# change shrinks its row, and never raise one.
#
#   bash .github/size_ratchet.sh        # print the table, exit 1 on a breach
set -euo pipefail
cd "$(dirname "$0")/.."

# row            code  doc   paths (directories are searched recursively)
table='
bench            3223  488   crates/bench/src
cli              1104  107   crates/cli/src
core             3502  1266  crates/core/src
data             1967  727   crates/data/src
device           884   383   crates/device/src
graph            933   375   crates/graph/src
nn               1397  402   crates/nn/src
partition        1140  309   crates/partition/src
runtime          185   128   crates/runtime/src
tensor           4333  1315  crates/tensor/src
testkit          133   49    crates/testkit/src
trace            767   241   crates/trace/src
feature-store    1382  552   crates/data/src/featurestore.rs crates/data/src/shards.rs
storage          2542  924   crates/data/src crates/nn/src/checkpoint.rs crates/tensor/src/crc.rs crates/tensor/src/sealed.rs
'

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && /^[ \t]*\/\/[\/!]/ { doc++; next }
        live { code++ }
        END { print code + 0, doc + 0 }'
}

status=0
printf '%-14s %6s %6s %6s %6s\n' row code ceiling doc ceiling
while read -r row code_max doc_max paths; do
    [ -n "$row" ] || continue
    # shellcheck disable=SC2086
    read -r code doc < <(count $paths)
    flag=''
    if [ "$code" -gt "$code_max" ] || [ "$doc" -gt "$doc_max" ]; then
        flag='  over ceiling'
        status=1
    fi
    printf '%-14s %6d %6d %6d %6d%s\n' "$row" "$code" "$code_max" "$doc" "$doc_max" "$flag"
done <<< "$table"
exit $status
