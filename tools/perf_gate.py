#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_sim.json (schema itua-bench/1).

Compares the engine_throughput rows of a freshly generated record
against the committed baseline, matched by row name.  A row whose
events/sec dropped by more than the threshold (default 20%) fails the
gate; for every offending row the phase self-times from the embedded
itua-metrics/1 snapshot are printed side by side, so the log already
says WHERE the regression happened (explore vs solve vs effect
propagation vs heap) without a local rerun.

Usage:
    python3 tools/perf_gate.py --baseline bench_baseline.json \
        --fresh BENCH_sim.json [--threshold 0.20]

The gate fails closed: a baseline row missing from the fresh record,
or a row whose events/sec is not a positive number, fails it just like
a regression.

Exit status: 0 when every baseline row is present, numeric and within
the threshold; 1 on a regression, a missing row or a non-numeric
events/sec; 2 on unusable input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"perf gate: cannot read {path}: {e}")
    if doc.get("schema") != "itua-bench/1":
        sys.exit(f"perf gate: {path}: unexpected schema {doc.get('schema')!r}")
    rows = {}
    for row in doc.get("engine_throughput", []):
        rows[row["name"]] = row
    if not rows:
        sys.exit(f"perf gate: {path}: empty engine_throughput array")
    return rows


def phase_self_times(row):
    """name -> seconds for the profile scope's *_self_seconds metrics."""
    out = {}
    snapshot = row.get("metrics")
    if not isinstance(snapshot, dict):
        return out
    for scope in snapshot.get("scopes", []):
        if scope.get("scope") != "profile":
            continue
        for metric in scope.get("metrics", []):
            name = metric.get("name", "")
            if name.endswith("_self_seconds"):
                value = metric.get("value")
                if isinstance(value, (int, float)):
                    out[name[: -len("_self_seconds")]] = float(value)
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def print_phases(name, baseline_row, fresh_row):
    base = phase_self_times(baseline_row)
    fresh = phase_self_times(fresh_row)
    if not base and not fresh:
        print(f"  (no itua-metrics/1 phase snapshot embedded for {name})")
        return
    print(f"  phase self-times of {name} (baseline -> fresh, seconds):")
    for phase in sorted(set(base) | set(fresh)):
        b = base.get(phase)
        f = fresh.get(phase)
        fmt = lambda v: "n/a" if v is None else f"{v:.4f}"
        marker = ""
        if b is not None and f is not None and f > b and b > 0:
            marker = f"  (+{100.0 * (f - b) / b:.0f}%)"
        print(f"    {phase:24s} {fmt(b):>10s} -> {fmt(f):>10s}{marker}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum allowed fractional events/sec drop (default 0.20)",
    )
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    broken = []
    for name in sorted(baseline):
        if name not in fresh:
            print(f"perf gate [FAIL]: row {name!r} missing from fresh record "
                  "(renamed or removed benchmark?)")
            broken.append(name)
            continue
        b = baseline[name].get("events_per_sec")
        f = fresh[name].get("events_per_sec")
        if not is_number(b) or not is_number(f) or b <= 0:
            print(f"perf gate [FAIL]: row {name!r}: events/sec not a "
                  f"positive number ({b!r} -> {f!r})")
            broken.append(name)
            continue
        drop = (b - f) / b
        status = "FAIL" if drop > args.threshold else "ok"
        print(f"perf gate [{status}]: {name}: {b:.1f} -> {f:.1f} events/sec "
              f"({-100.0 * drop:+.1f}%)")
        if drop > args.threshold:
            failures.append(name)
    for name in sorted(set(fresh) - set(baseline)):
        print(f"perf gate: new row {name!r} (no baseline yet, not gated)")

    if broken:
        print(f"\nperf gate FAILED: {len(broken)} baseline row(s) missing or "
              f"non-numeric: {', '.join(broken)}")
    if failures:
        print(f"\nperf gate FAILED: {len(failures)} row(s) regressed more "
              f"than {100.0 * args.threshold:.0f}%:")
        for name in failures:
            print_phases(name, baseline[name], fresh[name])
    if broken or failures:
        sys.exit(1)
    print("perf gate OK")


if __name__ == "__main__":
    main()
