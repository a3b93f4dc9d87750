#!/usr/bin/env bash
# Unused dependency edges. Prints one line per edge nobody uses and exits 1
# if there is any:
#   - a crate under crates/ that never imports an entry of its own
#     [dependencies] / [dev-dependencies] (`<crate> -> <dep>`);
#   - a [workspace.dependencies] key that no member lists as a dependency
#     (`workspace -> <key>`).
# Run from the workspace root.
set -euo pipefail

# The dependency names listed in the given manifests' dependency sections.
deps() {
  awk '/^\[(dev-)?dependencies\]/{f=1;next} /^\[/{f=0}
       f && NF && !/^#/ {sub(/[. =].*/, "", $1); print $1}' "$@"
}

hits=$(
  for c in crates/*; do
    for d in $(deps "$c/Cargo.toml"); do
      grep -rqE "\b$d::|use $d\b" "$c/src" "$c/tests" 2>/dev/null || echo "$c -> $d"
    done
  done
  used=$(deps Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml | sort -u)
  for k in $(awk '/^\[workspace\.dependencies\]/{f=1;next} /^\[/{f=0}
                  f && NF && !/^#/ {sub(/[. =].*/, "", $1); print $1}' Cargo.toml); do
    grep -qx "$k" <<<"$used" || echo "workspace -> $k"
  done
)
if [ -n "$hits" ]; then
  echo "$hits"
  exit 1
fi
