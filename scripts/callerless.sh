#!/usr/bin/env bash
# Lists public items whose name appears in no other tracked `.rs` file: the
# candidates for a call-graph cut. It is a report, not a gate — a name used
# only by its own crate's tests, through a trait, by a macro or by a doc
# link in another file is not caught (or not flagged), so verify each
# candidate by hand before deleting it.
#
# Usage: scripts/callerless.sh [path-prefix ...]   (default: crates)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
[ $# -eq 0 ] && set -- crates

git grep -nE '^\s*pub (const |static |(async |unsafe )*fn |struct |enum |trait |type |mod )' \
    -- "${@/%//*.rs}" |
while IFS= read -r hit; do
    file=${hit%%:*}
    rest=${hit#*:}
    line=${rest%%:*}
    name=$(sed -E 's/^\s*pub (const|static|(async |unsafe )*fn|struct|enum|trait|type|mod) +([A-Za-z_][A-Za-z0-9_]*).*/\3/' <<<"${rest#*:}")
    others=$(git grep -lw -e "$name" -- '*.rs' | grep -vxF "$file" || true)
    if [ -z "$others" ]; then
        printf '%s:%s\t%s\n' "$file" "$line" "$name"
    fi
done
