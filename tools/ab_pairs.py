"""Compare two natvb checkouts on benchmark workloads in alternating pairs.

    python tools/ab_pairs.py --parent DIR --change DIR --workload ridge_full \
        --seed 1 --pairs 10 --seconds 3

Each pair runs `perfbench/run.py --trace 0` once in each checkout, in a
fresh process with the checkout as working directory; even pairs run the
parent first, odd pairs the change, so drift in host speed falls on both
sides alike. `--workload all` compares every workload of the parent's
BENCHMARK.json in turn. For every end-to-end metric there it prints the
median and quartiles on each side, the relative change of the median,
the pairs the change won, and two verdicts:

- gain: the change wins at least 9 of every 10 pairs and its median
  beats the parent's by more than the parent's interquartile range;
- no regression, against the metric's `bound`: "ok" when the change's
  median is worse than the parent's by at most bound (relative to the
  parent's median), "worse" when by more, and "unresolved" when the
  parent's interquartile range, relative to its median, is wider than
  the bound, so the runs cannot tell, unless every run of the change
  reads better than every run of the parent.

A failed run (non-zero exit, `"correct": false`, or no result in 600 s)
is counted and leaves its pair out.

Only the standard library is used, and natvb is never imported: each
checkout's benchmark imports its own sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; every value for fewer than two."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The comparison of one metric over paired runs (parent[i], change[i]).

    `better` is "lower" or "higher". The gain holds when the change wins
    at least nine tenths of the pairs and the medians differ, in the
    better direction, by more than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent),
            "rel_change": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else float("nan"),
            "gap": gap, "parent_iqr": p_q[2] - p_q[0],
            "gain": 10 * wins >= 9 * len(parent) and gap > p_q[2] - p_q[0],
            "all_better": min(sign * p for p in parent) > max(sign * c for c in change)}


def regression(summary: dict, bound: float) -> str:
    """The no-regression verdict on one metric's summary (see summarize):
    "ok", "worse" (the median moved the wrong way by more than bound,
    relative to the parent's median), or "unresolved" (the parent's
    interquartile range, relative to its median, is wider than bound,
    and not every run of the change reads better than every parent run)."""
    median = summary["parent"][1]
    if summary["all_better"]:
        return "ok"
    if not median or summary["parent_iqr"] > bound * abs(median):
        return "unresolved"
    return "worse" if -summary["gap"] > bound * abs(median) else "ok"


def run_once(checkout: Path, workload: str, args) -> dict | None:
    """One benchmark run's metrics {name: value}, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=600)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def compare(workload: str, args, metrics: dict) -> bool:
    """Run and print the pairs of one workload; whether every run succeeded."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(sides[side], workload, args) for side in order}
        for side, values in pair.items():
            failed[side] += values is None
        if all(values is not None for values in pair.values()):
            for side, values in pair.items():
                runs[side].append(values)
        print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {workload}  seed {args.seed}  pairs {len(runs['parent'])} "
          f"of {args.pairs}  failed runs: parent {failed['parent']}, "
          f"change {failed['change']}")
    if not runs["parent"]:
        return False
    print(f"{'metric':12s} {'parent median [Q1, Q3]':>34s} {'change median [Q1, Q3]':>34s}"
          f" {'change':>8s} {'won':>6s}  gain  {'bound':>6s}  regression")
    for name, (better, bound) in metrics.items():
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], better)
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (s["parent"], s["change"])]
        print(f"{name:12s} {cells[0]:>34s} {cells[1]:>34s} {s['rel_change']:>+8.1%} "
              f"{s['wins']:>3d}/{s['pairs']:<2d}  {'yes' if s['gain'] else 'no':4s}  "
              f"{bound:>6.1%}  {regression(s, bound)}")
    return not any(failed.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    ok = [compare(workload, args, metrics) for workload in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
