"""Check that two natvb checkouts write the same bytes on every benchmark workload
and on a fixed list of other configs, and print the same `natvb verify` table.

    python tools/same_bytes.py --parent DIR --change DIR --seeds 1,2,7

For every workload of the parent's BENCHMARK.json and every seed, each
checkout runs the workload's config, as its own perfbench/workloads.py
builds it, through its own natvb.harness.run_experiment: one fresh
process per run, with the checkout as working directory, BLAS pinned to
one thread as in the benchmark, and a new temporary output directory.
Then each checkout runs each config of CONFIGS once, the same way: three
ridge runs that no workload makes. Diagonal exact BLR and VON take the
diagonal family's closed forms at its variance vector; full-family exact
BLR at P = 200 is the large-P run, whose bytes are comparable only
because BLAS is pinned to one thread. The parent's and the change's
runs must write the same trace.csv and config.used.json (the resolved config
a replay feeds back to `run`), byte for byte, and the same summary.json
once its wall_time_s line is dropped. For a trace that differs it names
the first line and column that differ and both cells, and, when both
are floats, how many ULPs apart they are.

Then each checkout runs `python -m natvb verify` the same way; the two
tables printed must be the same byte for byte; for each check whose row
differs it prints the check's name and both rows. The verify table is
where the checked linear algebra (the ridge oracle, the Newton step, the
Fisher solve) reaches output, which no workload's trace shows.

It prints one line per workload and seed, one per config, then one for
verify, and exits 0 when every pair is the same, 1 when a pair differs
or a run fails (non-zero exit, or no result in 600 s).

Only the standard library is used, and natvb is never imported here:
each checkout's run imports its own sources.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# run in the checkout: its sources and its workloads, never an installed natvb
_IMPORT = """\
import sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import natvb
if not Path(natvb.__file__).resolve().is_relative_to(Path("src").resolve()):
    sys.exit(f"natvb imported from {natvb.__file__}, not from src")
"""
_RUN = _IMPORT + """\
from natvb.harness import run_experiment
from workloads import WORKLOADS
run_experiment(WORKLOADS[sys.argv[1]].config(int(sys.argv[2])), Path(sys.argv[3]))
"""
# one config given as JSON
_RUN_CONFIG = _IMPORT + """\
import json
from natvb.harness import run_experiment
run_experiment(json.loads(sys.argv[1]), Path(sys.argv[2]))
"""
# `python -m natvb verify`, with the checkout's natvb
_VERIFY = _IMPORT + """\
import runpy
sys.argv[1:] = ["verify"]
runpy.run_module("natvb", run_name="__main__")
"""
_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1"}
COMPARED = ("trace.csv", "summary.json", "config.used.json")
_RIDGE = {"kind": "ridge", "n": 200, "p": 20, "data_seed": 1}
#: runs no benchmark workload makes, by name
CONFIGS = {
    "blr_diag_exact_ridge": {
        "schema_version": 1, "seed": 1, "model": _RIDGE,
        "optimizer": {"kind": "blr", "family": "diag", "learning_rate": 0.5,
                      "max_iter": 40, "estimator": "exact"}},
    "von_exact_ridge": {
        "schema_version": 1, "seed": 1, "model": _RIDGE,
        "optimizer": {"kind": "von", "learning_rate": 0.3, "steps": 40}},
    "blr_full_exact_ridge_p200": {
        "schema_version": 1, "seed": 1, "model": {**_RIDGE, "p": 200},
        "optimizer": {"kind": "blr", "family": "full", "learning_rate": 0.5,
                      "max_iter": 40, "estimator": "exact"}},
}


def without_wall_time(blob: bytes) -> bytes:
    """summary.json's bytes less the line of its wall_time_s key."""
    lines = blob.splitlines(keepends=True)
    return b"".join(line for line in lines
                    if not line.lstrip().startswith(b'"wall_time_s":'))


def ulp_distance(a: str | None, b: str | None) -> int | None:
    """How many doubles lie between two float cells, or None unless both are
    finite floats (an integer cell, such as a step, is not)."""
    ordered = []
    for cell in (a, b):
        try:
            int(cell)
            return None
        except (TypeError, ValueError):
            pass
        try:
            value = float(cell)
        except (TypeError, ValueError):
            return None
        if not math.isfinite(value):
            return None
        (bits,) = struct.unpack("<Q", struct.pack("<d", value))
        # sign and magnitude to a line where consecutive doubles are one apart
        magnitude = bits & 0x7FFF_FFFF_FFFF_FFFF
        ordered.append(-magnitude if bits >> 63 else magnitude)
    return abs(ordered[0] - ordered[1])


def first_difference(parent: bytes, change: bytes) -> str:
    """Where two traces first differ: the line and column (from 1), both
    cells, and their ULP distance when both are floats."""
    lines = (parent.decode(errors="replace").splitlines(),
             change.decode(errors="replace").splitlines())
    for number, (old, new) in enumerate(itertools.zip_longest(*lines), start=1):
        if old == new:
            continue
        cells = [[] if line is None else line.split(",") for line in (old, new)]
        for column, (a, b) in enumerate(itertools.zip_longest(*cells), start=1):
            if a != b:
                break
        shown = ["(none)" if cell is None else repr(cell) for cell in (a, b)]
        ulps = ulp_distance(a, b)
        return (f"at line {number}, column {column}: parent {shown[0]}, change {shown[1]}"
                + ("" if ulps is None else f", {ulps} ULP apart"))
    return "in line endings only"


def run_once(checkout: Path, script: str, *args: str) -> tuple[str | None, bytes]:
    """Run a script in checkout: (None, its stdout) on success, else (why it
    failed, b"")."""
    cmd = [sys.executable, "-c", script, *args]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, timeout=600,
                              env={**os.environ, **_ENV})
    except subprocess.TimeoutExpired:
        return "no result in 600 s", b""
    if proc.returncode:
        # a failed verify check prints to stdout
        text = (proc.stderr.strip() or proc.stdout.strip()).decode(errors="replace")
        tail = text.splitlines()[-1:] or [""]
        return f"exit {proc.returncode}: {tail[0]}", b""
    return None, proc.stdout


def compare(parent: Path, change: Path, script: str, *args: str) -> list[str]:
    """The differences between the two checkouts' outputs of one run of
    script, given args and then the output directory (empty when none)."""
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        outputs = {}
        for side, checkout in (("parent", parent), ("change", change)):
            out_dir = Path(tmp) / side
            failure, _ = run_once(checkout, script, *args, str(out_dir))
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
    differs = []
    for name in COMPARED:
        old, new = outputs["parent"][name], outputs["change"][name]
        if old != new:
            where = f" {first_difference(old, new)}" if name == "trace.csv" else ""
            differs.append(f"{name} differs{where}")
    return differs


def verify_rows(table: bytes) -> dict[str, str]:
    """A verify table's lines, each under its check's name (the word after
    PASS or FAIL); the k-th other line, such as the count line, under
    "other line k"."""
    rows, others = {}, 0
    for line in table.decode(errors="replace").splitlines():
        words = line.split()
        if len(words) > 1 and words[0] in ("PASS", "FAIL"):
            rows[words[1]] = line
        else:
            others += 1
            rows[f"other line {others}"] = line
    return rows


def compare_verify(parent: Path, change: Path) -> list[str]:
    """The differences between the two checkouts' verify tables (empty when
    none): each row that differs, named by its check, with both lines."""
    tables = []
    for side, checkout in (("parent", parent), ("change", change)):
        failure, table = run_once(checkout, _VERIFY)
        if failure is not None:
            return [f"{side} run failed ({failure})"]
        tables.append(table)
    if tables[0] == tables[1]:
        return []
    old, new = verify_rows(tables[0]), verify_rows(tables[1])

    def shown(rows, name):
        return repr(rows[name]) if name in rows else "(none)"

    # bytes that differ outside the lines (line endings) name no row
    return [f"{name} differs: parent {shown(old, name)}, change {shown(new, name)}"
            for name in old | new if old.get(name) != new.get(name)] or ["output differs"]


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
            problems = compare(parent, change, _RUN, workload, str(seed))
            same &= not problems
            print(f"{workload} seed {seed}: {'; '.join(problems) or 'same bytes'}",
                  flush=True)
    for name, config in CONFIGS.items():
        problems = compare(parent, change, _RUN_CONFIG, json.dumps(config))
        same &= not problems
        print(f"{name}: {'; '.join(problems) or 'same bytes'}", flush=True)
    problems = compare_verify(parent, change)
    same &= not problems
    print(f"verify: {'; '.join(problems) or 'same bytes'}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
