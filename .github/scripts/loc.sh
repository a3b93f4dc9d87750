#!/usr/bin/env bash
# Non-test lines per crate: for every `src` file of a crate under crates/,
# the lines above its first `#[cfg(test)]` (the whole file if it has
# none). Prints one `<crate> <lines>` row per crate, then `total <lines>`.
# Name crates (directory names under crates/) to count only those, e.g.
#   bash .github/scripts/loc.sh rm eslurm topology
# Run from the workspace root. Information only: it never fails on a count.
set -euo pipefail

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
  for c in crates/*/; do crates+=("$(basename "$c")"); done
fi
total=0
for c in "${crates[@]}"; do
  n=0
  while IFS= read -r f; do
    k=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    n=$((n + k))
  done < <(find "crates/$c/src" -name '*.rs' | sort)
  printf '%-12s %6d\n' "$c" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
