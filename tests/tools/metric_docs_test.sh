#!/usr/bin/env bash
# Docs test: the "innet_..." metric-name literals under src/ and tools/ and
# the metric-table rows of docs/OBSERVABILITY.md (lines starting
# "| `innet_") name the same metrics. A registered metric without a row
# fails, and so does a row naming a metric that nothing registers.
#
#   metric_docs_test.sh SOURCE_ROOT
set -u

root=$1
doc="$root/docs/OBSERVABILITY.md"

registered=$(grep -rhoE '"innet_[A-Za-z0-9_]+' "$root/src" "$root/tools" |
  cut -c2- | sort -u)
[ -n "$registered" ] || {
  echo "no innet_ metric literals found under $root/src or $root/tools" >&2
  exit 1
}
# The names a row documents are the backticked ones in its first cell.
documented=$(grep -E '^\| `innet_' "$doc" | cut -d'|' -f2 |
  grep -oE '`innet_[A-Za-z0-9_]+' | cut -c2- | sort -u)

status=0
for name in $(comm -23 <(echo "$registered") <(echo "$documented")); do
  echo "metric $name has no row in docs/OBSERVABILITY.md" >&2
  status=1
done
for name in $(comm -13 <(echo "$registered") <(echo "$documented")); do
  echo "docs/OBSERVABILITY.md has a row for $name, which nothing registers" >&2
  status=1
done
exit $status
