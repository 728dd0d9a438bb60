#!/usr/bin/env bash
# Runs the named tests of one cargo test target and fails when a name
# matches no test. libtest exits 0 on a filter that matches nothing, so a
# renamed or deleted test would otherwise drop out of the run unnoticed.
#
# Usage: scripts/named-tests.sh <cargo test arguments> -- <name>...
# Each name is a libtest filter (a substring of the test path), exactly as
# in `cargo test <cargo test arguments> -- <name>...`; name one target
# (`--lib` or `--test NAME`), since the names are checked against its list.
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    args+=("$1")
    shift
done
if [ $# -lt 2 ]; then
    echo "usage: $0 <cargo test arguments> -- <name>..." >&2
    exit 2
fi
shift

listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
missing=0
for name in "$@"; do
    if ! grep -qF -- "$name" <<<"$listed"; then
        echo "error: no test matches '$name' in: cargo test ${args[*]}" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1

cargo test "${args[@]}" -- "$@"
