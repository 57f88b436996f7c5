"""Compare two natvb checkouts on one benchmark workload in alternating pairs.

    python tools/ab_pairs.py --parent DIR --change DIR --workload ridge_full \
        --seed 1 --pairs 10 --seconds 3

Each pair runs `perfbench/run.py --trace 0` once in each checkout, in a
fresh process with the checkout as working directory; even pairs run the
parent first, odd pairs the change, so drift in host speed falls on both
sides alike. For every end-to-end metric in the parent's BENCHMARK.json
it prints the median and quartiles on each side, the relative change of
the median, the pairs the change won, and whether the gain rule holds:
the change wins at least 9 of every 10 pairs and its median beats the
parent's by more than the parent's interquartile range. A failed run
(non-zero exit, `"correct": false`, or no result in 600 s) is counted
and leaves its pair out.

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
            "gain": 10 * wins >= 9 * len(parent) and gap > p_q[2] - p_q[0]}


def run_once(checkout: Path, args) -> dict | None:
    """One benchmark run's metrics {name: value}, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(sides[side], args) for side in order}
        for side, values in pair.items():
            failed[side] += values is None
        if all(values is not None for values in pair.values()):
            for side, values in pair.items():
                runs[side].append(values)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  pairs {len(runs['parent'])} "
          f"of {args.pairs}  failed runs: parent {failed['parent']}, "
          f"change {failed['change']}")
    if not runs["parent"]:
        return 1
    print(f"{'metric':12s} {'parent median [Q1, Q3]':>34s} {'change median [Q1, Q3]':>34s}"
          f" {'change':>8s} {'won':>6s}  gain")
    for name, better in metrics.items():
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], better)
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (s["parent"], s["change"])]
        print(f"{name:12s} {cells[0]:>34s} {cells[1]:>34s} {s['rel_change']:>+8.1%} "
              f"{s['wins']:>3d}/{s['pairs']:<2d}  {'yes' if s['gain'] else 'no'}")
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
