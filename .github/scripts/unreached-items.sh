#!/usr/bin/env bash
# Unreached public items. Prints `<crate>: <name>` for every
# `pub fn|struct|enum|trait|type|const|static` in crates/*/src, methods
# included, whose name appears in no code line (comments do not count) of
# crates/, tests/, examples/, benchmark/ or src/ other than the line that
# declares it, and exits 1 if there is any. `dead_code` cannot see these:
# they are `pub` across crate lines. A hit is checked by hand before
# deleting: a name reached only through a derive or a macro would show
# here too.
# Run from the workspace root.
set -euo pipefail

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT

# Every code line of the scanned trees.
find crates tests examples benchmark src -name '*.rs' -not -path '*/target/*' -print0 |
  xargs -0 grep -hv '^[[:space:]]*//' >"$corpus"

decl='^[[:space:]]*pub +((const|unsafe|async) +)*(fn|struct|enum|trait|type|const|static) +'

hits=$(
  grep -rhoE "$decl[A-Za-z_0-9]+" crates/*/src | sed -E 's/.*[[:space:]]//' |
    sort | uniq -c | while read -r decls name; do
      uses=$(grep -cw -- "$name" "$corpus" || true)
      [ "$uses" -gt "$decls" ] || echo "$name"
    done
)
if [ -n "$hits" ]; then
  for name in $hits; do
    grep -rlE "$decl$name\b" crates/*/src |
      sed "s|/src/.*|: $name|"
  done | sort -u
  exit 1
fi
