#!/usr/bin/env python3
"""Checks bench reports for every key the CI gates read.

    python3 bench/check_reports.py BENCH_headline.json [BENCH_kernels.json ...]

Each report names its bench in its "bench" field. The script exits 1,
listing what is wrong, when a report lacks a note or a numeric metric that
the bench-smoke validation of that bench reads. CI runs it on the
committed reports before the benches overwrite them, so a stale committed
report fails the build, and again on every freshly written report.
"""

import json
import sys

# Keys the bench-smoke validation steps read, per bench.
REQUIRED = {
    "headline": {
        "notes": ["world"],
        "metrics": [
            "speedup_x", "node_reduction", "storage_reduction",
            "storage_reduction_asymptote", "batch_serial_qps",
            "batch_warm_qps", "batch_latency_p50_micros",
            "batch_latency_p95_micros", "kd-tree_err_median",
            "digest_records", "digest_distinct",
            "cost_accounting_overhead_fraction",
            "cost_accounting_ns_per_query",
            "warm_query_allocs", "warm_query_allocs_profiled",
            "frozen_identity_abs_diff",
        ],
    },
    "ingest": {
        "notes": ["world"],
        "metrics": [
            "monitored_events", "ingest_wall_seconds",
            "ingest_events_per_sec", "epochs_published",
            "refreeze_mean_micros", "refreeze_p50_micros",
            "refreeze_p95_micros", "refreeze_growth_x", "refreeze_drift",
            "store_generation",
            "warm_queries", "warm_query_allocs", "swaps_during_warm_reads",
            "ingest_events_per_sec_durable", "durability_overhead_fraction",
            "wal_fsync_p95_micros", "wal_bytes_total",
            "recovery_replay_events", "recovery_drift",
        ],
    },
    "kernels": {
        "notes": ["world", "simd"],
        "metrics": [
            "queries", "mean_boundary_edges", "store_events",
            "frozen_index_bytes", "identity_abs_drift",
            "static_count_virtual_ns", "static_count_fused_ns",
            "static_count_speedup_x", "transient_count_virtual_ns",
            "transient_count_fused_ns", "transient_count_speedup_x",
            "degraded_static_virtual_ns", "degraded_static_fused_ns",
            "degraded_static_speedup_x", "lookup_virtual_ns",
            "lookup_fused_ns", "lookup_speedup_x",
            "series_virtual_ns_per_step", "series_batch_ns_per_step",
            "series_speedup_x", "warm_query_allocs", "warm_degraded_allocs",
            "junction_lookup_ns",
        ],
    },
}


def problems(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as err:
        return [f"{path}: unreadable ({err})"]
    spec = REQUIRED.get(report.get("bench"))
    if spec is None:
        return [f"{path}: unknown bench {report.get('bench')!r}"]
    found = []
    notes = report.get("notes", {})
    metrics = report.get("metrics", {})
    for key in spec["notes"]:
        if key not in notes:
            found.append(f"{path}: missing note {key!r}")
    for key in spec["metrics"]:
        value = metrics.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            found.append(f"{path}: missing or non-numeric metric {key!r}")
    return found


def main(paths):
    if not paths:
        print("usage: check_reports.py REPORT.json...", file=sys.stderr)
        return 2
    found = [p for path in paths for p in problems(path)]
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
