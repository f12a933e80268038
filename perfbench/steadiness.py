#!/usr/bin/env python3
"""Steadiness report over a set of benchmark result files.

    python3 perfbench/steadiness.py [--benchmark BENCHMARK.json] RESULT... [--against RESULT...]

Each RESULT is the standard output of one run of perfbench/run.py (the
header lines and the final JSON line). For every workload and every
end-to-end metric of BENCHMARK.json the report prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
against the metric's bound, and flags:

  OVER   spread above the bound;
  WIDE   spread above a third of the bound;

and, across runs of one (workload, seed, seconds):

  - input fingerprints that differ,
  - cost_ratio values that are not bit-identical,
  - runs that failed ops or self-checks (correct false),
  - exact per-layer counters of traced runs that do not repeat.

With --against, the RESULTs are compared with an earlier batch of runs:
for each workload and end-to-end metric, the change of the median from
the earlier batch to this one, signed so that positive is worse, is
flagged OVER when it exceeds the metric's bound.

Traced runs also report each workload's unattributed share of op time and
the tracing overhead (untraced / traced ops_per_s). For comparison, the
report also prints the spread of the unscaled wall-clock timings (the
`unscaled wall clock:` line of each run), which are not gated. Exits 1 if
anything is flagged OVER or does not repeat, else 0.
"""

import argparse
import json
import os
import re
import statistics
import sys
from collections import defaultdict


def parse(path):
    """One result file -> dict with workload, seed, seconds, trace, ..."""
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    run = {"path": path, "fingerprint": None, "exact": [], "wall": {}}
    for line in lines:
        m = re.match(r"perfbench workload=(\S+) seed=(\S+) seconds=(\S+) trace=(\d)", line)
        if m:
            run.update(workload=m[1], seed=m[2], seconds=m[3], trace=m[4] == "1")
        m = re.search(r"fingerprint ([0-9a-f]+)$", line)
        if m and line.startswith("inputs:"):
            run["fingerprint"] = m[1]
        if line.startswith("unscaled wall clock: "):
            words = line[len("unscaled wall clock: "):].split()
            run["wall"] = {k: float(v) for k, v in zip(words[::2], words[1::2])}
        if line.startswith("exact counters: "):
            run["exact"] = [n for n in line[len("exact counters: "):].split(",") if n]
    if "workload" not in run or not lines:
        raise ValueError(f"{path}: no perfbench header line")
    result = json.loads(lines[-1])
    run["correct"] = result["correct"]
    run["attempted"] = result["attempted"]
    run["failed"] = result["failed"]
    run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return run


def spread_row(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def parse_all(paths):
    """Parses every path; returns (runs, whether any had no result)."""
    runs, bad = [], False
    for p in paths:
        try:
            runs.append(parse(p))
        except (OSError, ValueError, KeyError, IndexError) as e:
            print(f"FLAG {p}: no result ({e})")
            bad = True
    return runs, bad


def untraced_by_workload(runs):
    by_workload = defaultdict(list)
    for r in runs:
        if not r["trace"]:
            by_workload[r["workload"]].append(r)
    return by_workload


def compare(bench, earlier, later):
    """Prints the change of each median from `earlier` to `later`; returns
    whether any metric got worse by more than its bound."""
    print("\n== agreement with the earlier batch (untraced runs) ==")
    print(f"{'workload':<22}{'metric':<14}{'earlier':>14}{'later':>14}{'worse by':>10}"
          f"{'bound':>7}  flag")
    bad = False
    for w in sorted(later):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name] for r in earlier.get(w, []) if name in r["metrics"]]
            b = [r["metrics"][name] for r in later[w] if name in r["metrics"]]
            if not a or not b:
                print(f"{w:<22}{name:<14}  missing in one batch")
                bad = True
                continue
            m1, m2 = statistics.median(a), statistics.median(b)
            change = (m2 - m1) / m1 if m1 else float("inf")
            worse = -change if metric["better"] == "higher" else change
            flag = ""
            if worse > bound:
                flag = "OVER"
                bad = True
            elif abs(change) > bound / 3:
                flag = "WIDE"
            print(f"{w:<22}{name:<14}{m1:>14.6g}{m2:>14.6g}{worse:>10.4f}{bound:>7.3f}  {flag}")
    return bad


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "BENCHMARK.json"))
    ap.add_argument("--against", nargs="+", default=[], metavar="RESULT",
                    help="results of an earlier batch to compare medians with")
    ap.add_argument("results", nargs="+")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    runs, bad = parse_all(args.results)

    print("== end-to-end spread (untraced runs) ==")
    print(f"{'workload':<22}{'metric':<14}{'n':>3}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  flag")
    by_workload = untraced_by_workload(runs)
    for w in sorted(by_workload):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name] for r in by_workload[w] if name in r["metrics"]]
            if not values:
                print(f"{w:<22}{name:<14}  missing")
                bad = True
                continue
            med, q1, q3, spread = spread_row(values)
            flag = ""
            if spread > bound:
                flag = "OVER"
                bad = True
            elif spread > bound / 3:
                flag = "WIDE"
            print(f"{w:<22}{name:<14}{len(values):>3}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound:>7.3f}  {flag}")

    print("\n== unscaled wall-clock spread (untraced runs; not gated) ==")
    for w in sorted(by_workload):
        for name in sorted({k for r in by_workload[w] for k in r["wall"]}):
            values = [r["wall"][name] for r in by_workload[w] if name in r["wall"]]
            med, q1, q3, spread = spread_row(values)
            print(f"{w:<22}{name:<14}{len(values):>3}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}")

    if args.against:
        earlier, unparsed = parse_all(args.against)
        bad = compare(bench, untraced_by_workload(earlier), by_workload) or unparsed or bad

    print("\n== repeatability (runs of one workload, seed and length) ==")
    groups = defaultdict(list)
    for r in runs:
        groups[(r["workload"], r["seed"], r["seconds"])].append(r)
    problems = []
    for (w, seed, secs), rs in sorted(groups.items()):
        where = f"{w} seed={seed} seconds={secs}"
        if len({r["fingerprint"] for r in rs}) > 1:
            problems.append(f"{where}: input fingerprints differ")
        plain = [r for r in rs if not r["trace"]]
        if len({repr(r["metrics"].get("cost_ratio")) for r in plain}) > 1:
            problems.append(f"{where}: cost_ratio not bit-identical: "
                            f"{[r['metrics'].get('cost_ratio') for r in plain]}")
        for r in rs:
            if not r["correct"] or r["failed"]:
                problems.append(f"{where}: {r['path']}: correct={r['correct']} "
                                f"failed={r['failed']}/{r['attempted']}")
        traced = [r for r in rs if r["trace"]]
        for name in sorted({n for r in traced for n in r["exact"]}):
            vals = [r["metrics"].get(name) for r in traced]
            if len(set(map(repr, vals))) > 1:
                problems.append(f"{where}: exact counter {name} does not repeat: {vals}")
    for p in problems:
        print("FLAG", p)
    if not problems:
        print(f"ok: {len(groups)} groups; fingerprints, cost_ratio and exact counters repeat; "
              "no failed ops")
    bad = bad or bool(problems)

    traced = [r for r in runs if r["trace"]]
    if traced:
        print("\n== traced runs ==")
        print(f"{'workload':<22}{'n':>3}{'unattributed share':>20}{'tracing overhead':>18}")
        tw = defaultdict(list)
        for r in traced:
            tw[r["workload"]].append(r)
        for w in sorted(tw):
            share = statistics.median(r["metrics"]["op.unattributed_share"] for r in tw[w])
            over = statistics.median(r["metrics"]["trace.overhead_ratio"] for r in tw[w])
            print(f"{w:<22}{len(tw[w]):>3}{share:>20.6f}{over:>18.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
