"""Check that two natvb checkouts write the same bytes on every benchmark workload.

    python tools/same_bytes.py --parent DIR --change DIR --seeds 1,2,7

For every workload of the parent's BENCHMARK.json and every seed, each
checkout runs the workload's config, as its own perfbench/workloads.py
builds it, through its own natvb.harness.run_experiment: one fresh
process per run, with the checkout as working directory, BLAS pinned to
one thread as in the benchmark, and a new temporary output directory.
The two runs must write the same trace.csv and config.used.json (the
resolved config a replay feeds back to `run`), byte for byte, and the
same summary.json once its wall_time_s line is dropped.

It prints one line per workload and seed and exits 0 when every pair is
the same, 1 when a pair differs or a run fails (non-zero exit, or no
result in 600 s).

Only the standard library is used, and natvb is never imported here:
each checkout's run imports its own sources.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run in the checkout: its sources and its workloads, never an installed natvb
_RUN = """\
import sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import natvb
if not Path(natvb.__file__).resolve().is_relative_to(Path("src").resolve()):
    sys.exit(f"natvb imported from {natvb.__file__}, not from src")
from natvb.harness import run_experiment
from workloads import WORKLOADS
run_experiment(WORKLOADS[sys.argv[1]].config(int(sys.argv[2])), Path(sys.argv[3]))
"""
_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1"}
COMPARED = ("trace.csv", "summary.json", "config.used.json")


def without_wall_time(blob: bytes) -> bytes:
    """summary.json's bytes less the line of its wall_time_s key."""
    lines = blob.splitlines(keepends=True)
    return b"".join(line for line in lines
                    if not line.lstrip().startswith(b'"wall_time_s":'))


def run_once(checkout: Path, workload: str, seed: int, out_dir: Path) -> str | None:
    """Run one workload config in checkout; None on success, else why it failed."""
    cmd = [sys.executable, "-c", _RUN, workload, str(seed), str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=600, env={**os.environ, **_ENV})
    except subprocess.TimeoutExpired:
        return "no result in 600 s"
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {proc.returncode}: {tail[0]}"
    return None


def compare(parent: Path, change: Path, workload: str, seed: int) -> list[str]:
    """The differences between the two checkouts' outputs of one run (empty when none)."""
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        outputs = {}
        for side, checkout in (("parent", parent), ("change", change)):
            out_dir = Path(tmp) / side
            failure = run_once(checkout, workload, seed, out_dir)
            if failure is not None:
                return [f"{side} run failed ({failure})"]
            outputs[side] = {}
            for name in COMPARED:
                path = out_dir / name
                if not path.is_file():
                    return [f"{side} run wrote no {name}"]
                outputs[side][name] = path.read_bytes()
    outputs["parent"]["summary.json"] = without_wall_time(outputs["parent"]["summary.json"])
    outputs["change"]["summary.json"] = without_wall_time(outputs["change"]["summary.json"])
    return [f"{name} differs" for name in COMPARED
            if outputs["parent"][name] != outputs["change"][name]]


def parse_seeds(text: str) -> list[int]:
    seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=[1, 2, 7],
                        help="comma-separated benchmark seeds (default 1,2,7)")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    same = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            problems = compare(parent, change, workload, seed)
            same &= not problems
            print(f"{workload} seed {seed}: {'; '.join(problems) or 'same bytes'}",
                  flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
