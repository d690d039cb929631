#!/usr/bin/env sh
# Checks that the docs cannot drift from the binaries:
#  * every name printed by `iddqsyn --list-methods` has a `## `name``
#    section in docs/methods.md, and every such section (except the
#    `portfolio:` spec family) names a registered optimizer;
#  * every flag a tool's --help prints (the help is generated from the
#    tool's flag table) appears in the README flag table;
#  * every iddqsyn_server / iddqsyn_cluster flag is documented on the
#    tool's own page (docs/server.md, docs/cluster.md), or failing that in
#    docs/robustness.md or docs/caching.md;
#  * every file path README.md or docs/*.md names under src/, tests/,
#    tools/, bench/, examples/ or perfbench/ exists;
#  * the component inventory of docs/architecture.md has exactly one row
#    per namespace-scope class/struct defined in src/**/*.hpp.
#
#   $ tools/check_docs.sh path/to/iddqsyn path/to/iddqsyn_server \
#       path/to/iddqsyn_cluster
set -eu

[ $# -eq 3 ] || {
  echo "usage: check_docs.sh IDDQSYN IDDQSYN_SERVER IDDQSYN_CLUSTER"; exit 1; }
cli="$1"
server="$2"
cluster="$3"
root="$(dirname "$0")/.."
docs="$root/docs/methods.md"
for f in "$docs" "$root/README.md" "$root/docs/server.md" \
    "$root/docs/cluster.md" "$root/docs/robustness.md" \
    "$root/docs/caching.md" "$root/docs/architecture.md"; do
  [ -f "$f" ] || { echo "check_docs: $f not found"; exit 1; }
done

names="$("$cli" --list-methods | sed -n 's/^registered optimizers: *//p')"
[ -n "$names" ] || { echo "check_docs: --list-methods printed no names"; exit 1; }

status=0
for name in $names; do
  if ! grep -q "^## \`$name\`" "$docs"; then
    echo "check_docs: docs/methods.md is missing a section for '$name'"
    status=1
  fi
done

for doc in $(sed -n 's/^## `\([a-z:+]*\)`.*/\1/p' "$docs"); do
  case "$doc" in
    portfolio:*|portfolio:) continue ;;  # spec family, not a registry name
  esac
  if ! printf '%s\n' $names | grep -qx "$doc"; then
    echo "check_docs: docs/methods.md documents '$doc', which is not registered"
    status=1
  fi
done

# The flags a tool's --help lists, one per line (-h/--help itself aside).
help_flags() {
  "$1" --help | sed -n 's/^  \(-[-a-z]*\) .*/\1/p' | grep -v -x -e '-h,'
}

# True when file $2 mentions flag $1 as a whole word.
mentions() {
  grep -q -E -e "(^|[^a-z-])$1([^a-z-]|\$)" "$2"
}

table="$(mktemp)"
trap 'rm -f "$table"' EXIT
sed -n '/^## Command line/,/^## /p' "$root/README.md" | grep '^|' > "$table"

for exe in "$cli" "$server" "$cluster"; do
  tool="$(basename "$exe")"
  flags="$(help_flags "$exe")"
  [ -n "$flags" ] || { echo "check_docs: $tool --help listed no flags"; exit 1; }
  case "$tool" in
    iddqsyn_server) page="$root/docs/server.md" ;;
    iddqsyn_cluster) page="$root/docs/cluster.md" ;;
    *) page="" ;;
  esac
  for flag in $flags; do
    if ! mentions "$flag" "$table"; then
      echo "check_docs: $tool $flag is missing from the README flag table"
      status=1
    fi
    [ -n "$page" ] || continue
    if ! mentions "$flag" "$page" \
        && ! mentions "$flag" "$root/docs/robustness.md" \
        && ! mentions "$flag" "$root/docs/caching.md"; then
      echo "check_docs: $tool $flag is undocumented ($(basename "$page"), robustness.md, caching.md)"
      status=1
    fi
  done
done

if ! grep -q -e "--tier big" "$root/docs/architecture.md"; then
  echo "check_docs: '--tier big' is undocumented in docs/architecture.md"
  status=1
fi
if ! grep -q "IDDQ_FAULT_PLAN" "$root/docs/robustness.md"; then
  echo "check_docs: IDDQ_FAULT_PLAN grammar is missing from docs/robustness.md"
  status=1
fi

# "DOC PATH" per named file path; a path must end in an extension, so
# directory names and brace forms like job_protocol.{hpp,cpp} are skipped.
paths="$(cd "$root" && grep -oE \
    '(^|[^A-Za-z0-9_./-])(src|tests|tools|bench|examples|perfbench)/[A-Za-z0-9_/-]*\.[A-Za-z0-9]+' \
    README.md docs/*.md | sed -E 's/^([^:]*):[^a-z]?/\1 /' | sort -u)"
while read -r doc path; do
  [ -n "$path" ] || continue
  if [ ! -e "$root/$path" ]; then
    echo "check_docs: $doc names $path, which does not exist"
    status=1
  fi
done <<EOF
$paths
EOF

# Public types: a class/struct definition at column 0 of a header (nested
# types are indented; forward declarations end in ';'), against the
# "| `Type` | layer | purpose |" rows of the inventory.
types="$(find "$root/src" -name '*.hpp' -exec sed -n -E \
    '/;[[:space:]]*$/!s/^(class|struct) ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' {} + |
    sort -u)"
inventory="$(sed -n '/^## Component inventory/,/^## /p' \
    "$root/docs/architecture.md" | sed -n 's/^| `\([A-Za-z0-9_]*\)` |.*/\1/p' |
    sort)"
[ -n "$inventory" ] || {
  echo "check_docs: docs/architecture.md has no component inventory"; exit 1; }
for type in $types; do
  if ! printf '%s\n' $inventory | grep -qx "$type"; then
    echo "check_docs: $type (src/) is missing from the component inventory in docs/architecture.md"
    status=1
  fi
done
for entry in $inventory; do
  if ! printf '%s\n' $types | grep -qx "$entry"; then
    echo "check_docs: the component inventory in docs/architecture.md names $entry, which src/ does not define"
    status=1
  fi
done
dupes="$(printf '%s\n' $inventory | uniq -d)"
if [ -n "$dupes" ]; then
  echo "check_docs: the component inventory lists more than once:" $dupes
  status=1
fi

[ "$status" -eq 0 ] && echo "check_docs: docs match the CLI surface"
exit $status
