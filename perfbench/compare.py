#!/usr/bin/env python3
"""Result sets of the end-to-end benchmark: collect, check spread, compare.

    python3 perfbench/compare.py collect OUT [--workloads W ...] [--seeds 1-10] [--trace]
        Runs perfbench/run.py once per (workload, seed), prints each run's
        report (every metric by name, with its unit) and appends the run's
        record to OUT/<workload>.jsonl: the seed, the final JSON line, and
        the report values by name.

    python3 perfbench/compare.py spread SET
        Per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against a third of the
        metric's bound (the steadiness target) and the bound itself.

    python3 perfbench/compare.py compare BASE NEW
        Per workload and end-to-end metric: both sides' medians and
        quartiles, the pairwise win count over seeds run on both sides,
        and a verdict under BENCHMARK.json's bounds:
          better      NEW wins >= 9/10 of the pairs and the medians differ
                      by more than BASE's quartile spread;
          worse       NEW's median is worse than BASE's by more than the
                      bound;
          unresolved  a side's spread is wider than the bound, unless every
                      NEW run beats (or loses to) every BASE run;
          same        otherwise: within the bound, no gain shown.
        Exits 1 if any verdict is "worse" or any run failed its checks.

Run from the repository root. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def parse_report(stdout):
    """The benchmark's '  name value unit' report lines, by name."""
    report = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            try:
                report[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return report


def collect(args):
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace",
                   "1" if args.trace else "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            record = {"workload": workload, "seed": seed,
                      "exit": done.returncode,
                      "report": parse_report(done.stdout)}
            try:
                record["result"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                record["result"] = None
            with open(os.path.join(args.out, workload + ".jsonl"), "a") as f:
                f.write(json.dumps(record) + "\n")
            res = record["result"]
            status = "ok" if res and res["correct"] and done.returncode == 0 \
                else "FAILED"
            print("%-14s seed %-4d %s" % (workload, seed, status))
            # The report by metric name (everything above the JSON line).
            for line in lines[:-1]:
                print(line)
            sys.stdout.flush()
    return 0


def load_set(path):
    """{workload: [record, ...]} from a result-set directory."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name)) as f:
            for line in f:
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records, metric):
    """{seed: value} of one metric over the successful runs."""
    out = {}
    for r in records:
        res = r.get("result")
        if res and metric in res.get("metrics", {}):
            out[r["seed"]] = res["metrics"][metric]["value"]
    return out


def summary(vals):
    vals = sorted(vals)
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def rel_spread(vals):
    q1, med, q3 = summary(vals)
    return (q3 - q1) / med if med else float("inf")


def failures(runs):
    bad = []
    for workload, records in runs.items():
        for r in records:
            res = r.get("result")
            if r["exit"] != 0 or not res or not res["correct"] or res["failed"]:
                bad.append("%s seed %d" % (workload, r["seed"]))
    return bad


def spread(args):
    bench = load_benchmark()
    runs = load_set(args.set)
    steady = True
    print("%-14s %-18s %4s %12s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound",
        "verdict"))
    for workload, records in sorted(runs.items()):
        for m in bench["end_to_end"]:
            vals = list(values(records, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = summary(vals)
            s = rel_spread(vals)
            if m["name"] == "setup_s":
                verdict = "n/a"
            elif s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                steady = False
            print("%-14s %-18s %4d %12.5g %12.5g %12.5g %8.4f %8.3f  %s" % (
                workload, m["name"], len(vals), q1, med, q3, s, m["bound"],
                verdict))
    bad = failures(runs)
    for b in bad:
        print("failed run: " + b)
    return 0 if steady and not bad else 1


def verdict(base, new, bound, higher_better):
    """better / worse / unresolved / same, and the pairwise win count."""
    sign = 1.0 if higher_better else -1.0
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    bq1, bmed, bq3 = summary(list(base.values()))
    _, nmed, _ = summary(list(new.values()))
    gain = sign * (nmed - bmed)
    all_better = min(sign * v for v in new.values()) > \
        max(sign * v for v in base.values())
    all_worse = max(sign * v for v in new.values()) < \
        min(sign * v for v in base.values())
    if seeds and wins >= 0.9 * len(seeds) and gain > (bq3 - bq1):
        result = "better"
    elif max(rel_spread(list(base.values())),
             rel_spread(list(new.values()))) > bound:
        result = "better" if all_better else (
            "worse" if all_worse else "unresolved")
    elif -gain > bound * abs(bmed):
        result = "worse"
    else:
        result = "same"
    return result, wins, len(seeds)


def compare(args):
    bench = load_benchmark()
    base_runs, new_runs = load_set(args.base), load_set(args.new)
    worse = False
    print("%-14s %-18s %25s %25s %9s  %s" % (
        "workload", "metric", "base q1/median/q3", "new q1/median/q3",
        "wins", "verdict"))
    for workload in sorted(set(base_runs) & set(new_runs)):
        for m in bench["end_to_end"]:
            base = values(base_runs[workload], m["name"])
            new = values(new_runs[workload], m["name"])
            if not base or not new:
                continue
            result, wins, pairs = verdict(
                base, new, m["bound"], m["better"] == "higher")
            worse = worse or result == "worse"
            fmt = lambda v: "%.4g/%.4g/%.4g" % summary(list(v.values()))
            print("%-14s %-18s %25s %25s %4d/%-4d  %s" % (
                workload, m["name"], fmt(base), fmt(new), wins, pairs,
                result))
    bad = failures(base_runs) + failures(new_runs)
    for b in bad:
        print("failed run: " + b)
    return 1 if worse or bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("spread")
    p.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    return {"collect": collect, "spread": spread, "compare": compare}[
        args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
