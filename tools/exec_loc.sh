#!/usr/bin/env bash
# Size of the runtime crate, the number ROADMAP aim 2 says "we report":
# non-blank, non-comment lines above `#[cfg(test)] mod tests` for every file
# under crates/exec/src (test-module files `tests.rs` excluded), per file and
# in total. Reformatting moves it a little; comments, tests and blank lines
# do not move it at all.
#
#   tools/exec_loc.sh          # the working tree
#   tools/exec_loc.sh HEAD~1   # a commit
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev="${1:-}"
dir=crates/exec/src

if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- "$dir")
    show() { git show "$rev:$1"; }
else
    files=$(find "$dir" -name '*.rs' | sort)
    show() { cat "$1"; }
fi

total=0
for f in $files; do
    case "$f" in
        *.rs) ;;
        *) continue ;;
    esac
    [ "$(basename "$f")" = tests.rs ] && continue
    n=$(show "$f" | awk '/^#\[cfg\(test\)\]/ { done = 1 } !done && !/^[[:space:]]*($|\/\/)/ { n++ } END { print n + 0 }')
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total (%s)\n' "$total" "${rev:-working tree}"
