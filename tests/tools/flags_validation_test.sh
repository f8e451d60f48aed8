#!/usr/bin/env bash
# Fixture test: innet_query must reject non-positive --trace-sample values,
# and flag combinations it would otherwise ignore or misapply, with a clear
# error BEFORE touching any input file, keep accepting valid ones, and name
# a flag it no longer reads instead of silently dropping it.
set -u

dataset_bin=$1
query_bin=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Invalid 1-in-N values must fail fast (exit nonzero, diagnostic naming the
# flag) even with bogus input paths — validation runs before file I/O.
for flag in trace-sample; do
  for value in 0 -3; do
    if "$query_bin" --graph /nonexistent.bin --trips /nonexistent.bin \
        --batch /nonexistent.txt --sample-fraction 0.3 \
        --$flag $value >"$tmp/out.txt" 2>"$tmp/err.txt"; then
      echo "--$flag $value was accepted (expected rejection)" >&2
      exit 1
    fi
    grep -q -- "--$flag must be a positive integer" "$tmp/err.txt" || {
      echo "--$flag $value: missing/unclear diagnostic:" >&2
      cat "$tmp/err.txt" >&2
      exit 1
    }
    # Rejection happened during validation, not on the missing files.
    grep -qi "nonexistent" "$tmp/err.txt" && {
      echo "--$flag $value: tool touched input files before validating" >&2
      exit 1
    }
  done
done

# Positive values keep working end to end.
"$dataset_bin" generate --junctions 120 --trips 40 --horizon 600 --seed 3 \
  --graph-out "$tmp/g.bin" --trips-out "$tmp/t.bin" >/dev/null || {
  echo "dataset generation failed" >&2
  exit 1
}
cat >"$tmp/batch.txt" <<'EOF'
0,0,15000,15000,0,600
0,0,8000,8000,0,300
EOF
# A flag the tool no longer reads (--shadow-sample, removed with online
# shadow execution) must not fail the run, and must be named on stderr.
"$query_bin" --graph "$tmp/g.bin" --trips "$tmp/t.bin" \
  --batch "$tmp/batch.txt" --sample-fraction 0.3 \
  --trace-sample 2 --trace-out "$tmp/traces.jsonl" \
  --shadow-sample 1 >/dev/null 2>"$tmp/err.txt" || {
  echo "valid --trace-sample run failed:" >&2
  cat "$tmp/err.txt" >&2
  exit 1
}
grep -q -- "unused flag --shadow-sample" "$tmp/err.txt" || {
  echo "removed --shadow-sample was not reported as unused:" >&2
  cat "$tmp/err.txt" >&2
  exit 1
}

# Durability flag combinations must also fail during validation, before any
# file I/O (bogus paths stay untouched).
check_rejected() {
  local label=$1 needle=$2
  shift 2
  if "$query_bin" "$@" >"$tmp/out.txt" 2>"$tmp/err.txt"; then
    echo "$label was accepted (expected rejection)" >&2
    exit 1
  fi
  grep -q -- "$needle" "$tmp/err.txt" || {
    echo "$label: missing/unclear diagnostic:" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  }
  grep -qi "nonexistent" "$tmp/err.txt" && {
    echo "$label: tool touched input files before validating" >&2
    exit 1
  }
}

# --ingest-epochs is batch-only.
check_rejected "--ingest-epochs without --batch" \
  "requires --batch" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --rect 0,0,100,100 --ingest-epochs 3

# --recover needs a WAL directory to recover from.
check_rejected "--recover without --wal-dir" \
  "requires --wal-dir" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --recover

# --snapshot-every without a WAL has nowhere to put snapshots.
check_rejected "--snapshot-every without --wal-dir" \
  "requires --wal-dir" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 \
  --ingest-epochs 3 --snapshot-every 2

# --recover and --ingest-epochs cannot both drive the serving store.
check_rejected "--recover with --ingest-epochs" \
  "mutually exclusive" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 \
  --wal-dir /nonexistent-wal --recover --ingest-epochs 3

# Telemetry flags: the endpoint is batch-only and its dependent knobs need
# the endpoint; all rejections must fire before any file I/O.
check_rejected "--serve-telemetry with a bad port" \
  "--serve-telemetry wants a TCP port in 0..65535" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --serve-telemetry 70000

check_rejected "--serve-telemetry without --batch" \
  "requires --batch" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --rect 0,0,100,100 --serve-telemetry 0

check_rejected "--slo-config without --serve-telemetry" \
  "requires --serve-telemetry" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 \
  --slo-config /nonexistent-slo.conf

check_rejected "--telemetry-linger without --serve-telemetry" \
  "requires --serve-telemetry" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --telemetry-linger 5

check_rejected "negative --telemetry-linger" \
  "--telemetry-linger must be >= 0" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 \
  --serve-telemetry 0 --telemetry-linger -1

check_rejected "--flight-dir without --serve-telemetry" \
  "requires --serve-telemetry" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --flight-dir "$tmp"

check_rejected "--readyz-staleness without --serve-telemetry" \
  "requires --serve-telemetry" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --readyz-staleness 10

# Cost-accounting flags (docs/OBSERVABILITY.md §9): the slow-query log and
# the trace exports are batch-only, and their dependent knobs need their
# parent flag; rejections fire before any file I/O.
check_rejected "--slowlog-out without --batch" \
  "requires --batch" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --rect 0,0,100,100 --slowlog-out "$tmp/slow.jsonl"

check_rejected "empty --slowlog-out path" \
  "--slowlog-out wants a file path" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --slowlog-out ""

check_rejected "--slowlog-threshold-ms without --slowlog-out" \
  "requires --slowlog-out" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 \
  --slowlog-threshold-ms 5

check_rejected "non-positive --slowlog-threshold-ms" \
  "--slowlog-threshold-ms must be > 0" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 \
  --slowlog-out "$tmp/slow.jsonl" --slowlog-threshold-ms 0

check_rejected "--trace-chrome without --batch" \
  "requires --batch" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --rect 0,0,100,100 --trace-chrome "$tmp/trace.json"

check_rejected "empty --trace-chrome path" \
  "--trace-chrome wants a file path" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --trace-chrome ""

# --trace-out is batch-only like --trace-chrome: a single --rect query has
# no trace ring, so the flag must fail instead of silently writing nothing.
check_rejected "--trace-out without --batch" \
  "--trace-out exports the batch-mode trace ring; it requires --batch" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --rect 0,0,100,100 --trace-out "$tmp/rect-traces.jsonl"
[ ! -e "$tmp/rect-traces.jsonl" ] || {
  echo "--trace-out with --rect wrote a file" >&2
  exit 1
}

check_rejected "empty --trace-out path" \
  "--trace-out wants a file path" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --trace-out ""

# --trace-sample without a reader of the ring would attach no tracer.
check_rejected "--trace-sample without a trace reader" \
  "--trace-sample samples the trace ring; it requires --trace-out" \
  --graph /nonexistent.bin --trips /nonexistent.bin \
  --batch /nonexistent.txt --sample-fraction 0.3 --trace-sample 4

# Valid cost-accounting flags work end to end: a ~0ms threshold makes every
# query slow, so the log must fill and the summary line must land on
# stderr; the Chrome export must produce a JSON array.
"$query_bin" --graph "$tmp/g.bin" --trips "$tmp/t.bin" \
  --batch "$tmp/batch.txt" --sample-fraction 0.3 \
  --slowlog-out "$tmp/slow.jsonl" --slowlog-threshold-ms 0.0001 \
  --trace-chrome "$tmp/chrome.json" \
  >/dev/null 2>"$tmp/err.txt" || {
  echo "valid --slowlog-out/--trace-chrome run failed:" >&2
  cat "$tmp/err.txt" >&2
  exit 1
}
grep -q "slowlog: " "$tmp/err.txt" || {
  echo "missing slowlog summary line on stderr:" >&2
  cat "$tmp/err.txt" >&2
  exit 1
}
[ -s "$tmp/slow.jsonl" ] || {
  echo "--slowlog-out produced no records at a ~0ms threshold" >&2
  exit 1
}
head -c1 "$tmp/chrome.json" | grep -q '\[' || {
  echo "--trace-chrome output is not a JSON array:" >&2
  head -c200 "$tmp/chrome.json" >&2
  exit 1
}

# A missing SLO config must fail even with the endpoint requested.
if "$query_bin" --graph "$tmp/g.bin" --trips "$tmp/t.bin" \
    --batch "$tmp/batch.txt" --sample-fraction 0.3 \
    --serve-telemetry 0 --slo-config "$tmp/does-not-exist.conf" \
    >"$tmp/out.txt" 2>"$tmp/err.txt"; then
  echo "missing --slo-config file was accepted (expected failure)" >&2
  exit 1
fi

# Valid telemetry flags serve the batch normally (ephemeral port, no
# linger) and announce the endpoint on stderr.
"$query_bin" --graph "$tmp/g.bin" --trips "$tmp/t.bin" \
  --batch "$tmp/batch.txt" --sample-fraction 0.3 \
  --serve-telemetry 0 --flight-dir "$tmp" \
  >"$tmp/telemetry.out" 2>"$tmp/telemetry.err" || {
  echo "valid --serve-telemetry run failed:" >&2
  cat "$tmp/telemetry.err" >&2
  exit 1
}
grep -q "telemetry: serving on 127.0.0.1:" "$tmp/telemetry.err" || {
  echo "missing telemetry endpoint announcement on stderr:" >&2
  cat "$tmp/telemetry.err" >&2
  exit 1
}

# Durable ingest + recovery serve identical answers over a real dataset:
# write a WAL while serving, then recover from it and diff.
"$query_bin" --graph "$tmp/g.bin" --trips "$tmp/t.bin" \
  --batch "$tmp/batch.txt" --sample-fraction 0.3 \
  --ingest-epochs 4 --wal-dir "$tmp/wal" --snapshot-every 2 \
  >"$tmp/durable.out" 2>"$tmp/durable.err" || {
  echo "durable ingest run failed:" >&2
  cat "$tmp/durable.err" >&2
  exit 1
}
"$query_bin" --graph "$tmp/g.bin" --trips "$tmp/t.bin" \
  --batch "$tmp/batch.txt" --sample-fraction 0.3 \
  --recover --wal-dir "$tmp/wal" \
  >"$tmp/recover.out" 2>"$tmp/recover.err" || {
  echo "recovery run failed:" >&2
  cat "$tmp/recover.err" >&2
  exit 1
}
grep -q "recover: " "$tmp/recover.err" || {
  echo "missing recover summary line on stderr:" >&2
  cat "$tmp/recover.err" >&2
  exit 1
}
diff "$tmp/durable.out" "$tmp/recover.out" || {
  echo "recovered answers differ from the durable serve" >&2
  exit 1
}
