#!/usr/bin/env python3
"""Compare fresh bench JSON against the checked-in baselines under
bench/baselines/.

Every bench prints one `JSON {...}` object per run (extracted by CI into
bench-results/<bench>.json). This tool diffs those objects field by field
against the baseline of the same filename:

  - the embedded "metrics" registry snapshot is skipped (absolute counter
    values are workload-version- and machine-specific; the snapshot's
    SHAPE is validated separately by validate_metrics_json.py);
  - machine-identity fields (thread counts, SIMD level, ...) are skipped;
  - timing fields (names containing seconds/us/ns/ms/speedup/
    throughput/overhead/ratio, plus the per-bench SCHEDULING_KEYS whose
    values depend on thread interleaving) are compared with a wide
    relative tolerance (--perf-tolerance, default 0.60: CI runners and dev
    boxes differ, a regression an order past that is still caught);
  - everything else — workload shape, equality-gate booleans, mismatch
    counts, rows-saved totals — is deterministic under the benches' fixed
    seeds and must match exactly.

Deterministic drift (and a missing or reshaped bench result) exits 1.
Timing drift only warns, since it cannot be attributed to the code under
test on shared hardware; with --strict it exits 1 too (for local A/B runs
on one quiet machine).

Usage:
  bench_compare.py [--strict] [--perf-tolerance R] BASELINE_DIR FRESH_DIR
"""

import argparse
import json
import os
import sys

PERF_KEY_TOKENS = (
    "seconds", "_us", "_ns", "_ms", "speedup", "throughput", "overhead",
    "ratio", "per_sec", "qps", "latency",
)
SKIP_KEYS = {"metrics"}
SKIP_KEY_TOKENS = ("threads", "simd", "cpu", "host")
# Fields that count work but whose split depends on how the OS schedules
# the bench's threads (which request a coalescer admits, how many epochs
# an append burst publishes), so they vary between two runs of one binary.
SCHEDULING_KEYS = {
    "bench_concurrent_service.json": frozenset({
        "coalesce_admitted", "coalesce_merged", "dedup_rate",
        "epochs_published", "scaling", "sharing",
    }),
}


def is_timing_key(key, scheduling_keys):
    k = key.lower()
    return key in scheduling_keys or any(tok in k for tok in PERF_KEY_TOKENS)


def is_skipped_key(key):
    if key in SKIP_KEYS:
        return True
    k = key.lower()
    return any(tok in k for tok in SKIP_KEY_TOKENS)


def compare(baseline, fresh, path, perf_tolerance, scheduling_keys,
            findings):
    """Appends (is_timing, message) findings."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in sorted(set(baseline) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            if is_skipped_key(key):
                continue
            if key not in fresh:
                findings.append((False, f"{sub}: missing from fresh run"))
            elif key not in baseline:
                findings.append((False, f"{sub}: new field (not in baseline)"))
            else:
                timing = is_timing_key(key, scheduling_keys)
                key_tolerance = perf_tolerance if timing else None
                compare_value(baseline[key], fresh[key], sub, key_tolerance,
                              perf_tolerance, scheduling_keys, findings)
        return
    compare_value(baseline, fresh, path, None, perf_tolerance,
                  scheduling_keys, findings)


def compare_value(baseline, fresh, path, tolerance, perf_tolerance,
                  scheduling_keys, findings):
    if isinstance(baseline, dict) or isinstance(fresh, dict):
        if type(baseline) is not type(fresh):
            findings.append((False, f"{path}: type changed "
                                    f"({type(baseline).__name__} -> "
                                    f"{type(fresh).__name__})"))
            return
        compare(baseline, fresh, path, perf_tolerance, scheduling_keys,
                findings)
        return
    if isinstance(baseline, list) or isinstance(fresh, list):
        if type(baseline) is not type(fresh):
            findings.append((False, f"{path}: type changed"))
            return
        if len(baseline) != len(fresh):
            findings.append((False, f"{path}: length {len(baseline)} -> "
                                    f"{len(fresh)}"))
            return
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            compare_value(b, f, f"{path}[{i}]", tolerance, perf_tolerance,
                          scheduling_keys, findings)
        return
    numeric = (int, float)
    if isinstance(baseline, numeric) and not isinstance(baseline, bool) \
            and isinstance(fresh, numeric) and not isinstance(fresh, bool):
        if tolerance is not None:
            # Perf field: relative drift beyond the tolerance is a finding.
            scale = max(abs(baseline), abs(fresh), 1e-12)
            drift = abs(baseline - fresh) / scale
            if drift > tolerance:
                findings.append((True,
                    f"{path}: perf drift {drift:.0%} beyond "
                    f"{tolerance:.0%} (baseline {baseline}, fresh {fresh})"))
        else:
            # Deterministic field: must match (tiny float slack for
            # formatting round-trips).
            if isinstance(baseline, float) or isinstance(fresh, float):
                scale = max(abs(baseline), abs(fresh), 1e-12)
                if abs(baseline - fresh) / scale > 1e-6:
                    findings.append((False, f"{path}: {baseline} -> {fresh}"))
            elif baseline != fresh:
                findings.append((False, f"{path}: {baseline} -> {fresh}"))
        return
    if baseline != fresh:
        findings.append((tolerance is not None,
                         f"{path}: {baseline!r} -> {fresh!r}"))


def load_jsonl(path):
    objects = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                objects.append(json.loads(line))
    return objects


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on timing drift too (default: warn)")
    parser.add_argument("--perf-tolerance", type=float, default=0.60,
                        help="relative tolerance for timing fields")
    parser.add_argument("baseline_dir")
    parser.add_argument("fresh_dir")
    args = parser.parse_args(argv[1:])

    baseline_files = sorted(
        name for name in os.listdir(args.baseline_dir)
        if name.endswith(".json"))
    if not baseline_files:
        print(f"bench_compare: no baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 1

    hard = 0
    timing = 0
    compared = 0
    for name in baseline_files:
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.isfile(fresh_path):
            print(f"FAIL {name}: no fresh run to compare", file=sys.stderr)
            hard += 1
            continue
        baseline_objs = load_jsonl(os.path.join(args.baseline_dir, name))
        fresh_objs = load_jsonl(fresh_path)
        if len(baseline_objs) != len(fresh_objs):
            print(f"FAIL {name}: {len(baseline_objs)} baseline object(s) vs "
                  f"{len(fresh_objs)} fresh", file=sys.stderr)
            hard += 1
            continue
        findings = []
        for i, (b, f) in enumerate(zip(baseline_objs, fresh_objs)):
            prefix = f"[{i}]" if len(baseline_objs) > 1 else ""
            compare(b, f, prefix, args.perf_tolerance,
                    SCHEDULING_KEYS.get(name, frozenset()), findings)
        compared += 1
        for is_timing, finding in findings:
            if is_timing:
                timing += 1
                print(f"WARN {name}: {finding}", file=sys.stderr)
            else:
                hard += 1
                print(f"FAIL {name}: {finding}", file=sys.stderr)
        if not findings:
            print(f"{name}: OK")

    if hard or timing:
        print(f"bench_compare: {hard} deterministic and {timing} timing "
              f"finding(s) across {len(baseline_files)} baseline(s)",
              file=sys.stderr)
        return 1 if hard or (timing and args.strict) else 0
    print(f"bench_compare: {compared} bench(es) match baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
