#!/usr/bin/env bash
# Docs test: every "innet_..." metric-name literal under src/ must have a
# backticked entry in docs/OBSERVABILITY.md. A literal ending in "_" is a
# prefix the code completes at run time (innet_accuracy_rel_error_decile_<d>)
# and matches any entry starting with it; other names must match whole.
#
#   metric_docs_test.sh SOURCE_ROOT
set -u

root=$1
doc="$root/docs/OBSERVABILITY.md"

names=$(grep -rhoE '"innet_[A-Za-z0-9_]+' "$root/src" | cut -c2- | sort -u)
[ -n "$names" ] || {
  echo "no innet_ metric literals found under $root/src" >&2
  exit 1
}

missing=0
for name in $names; do
  case $name in
    *_) entry="\`$name" ;;
    *) entry="\`$name\`" ;;
  esac
  if ! grep -qF -- "$entry" "$doc"; then
    echo "metric $name has no entry in docs/OBSERVABILITY.md" >&2
    missing=1
  fi
done
exit $missing
