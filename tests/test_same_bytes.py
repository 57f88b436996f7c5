"""tools/same_bytes.py on stub checkouts whose runs write chosen bytes."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _checkout(root: Path, name: str, trace_seed=None, summary_seed=None,
              config_seed=None, fail_seed=None, verify_line="PASS  a [b]: x=1",
              verify_exit=0, ulp_seed=None) -> Path:
    """A checkout whose run_experiment writes a trace, a summary and a used
    config named by the workload (None for one of same_bytes.CONFIGS, all
    at seed 1) and seed, with a wall time that differs on every run: at
    trace_seed its trace gains a byte, at ulp_seed its trace's float cell
    moves up one ULP, at summary_seed its summary a key, at config_seed
    its used config a key, and at fail_seed it raises.
    Its `python -m natvb verify` prints verify_line and a count line, and
    exits with verify_exit."""
    path = root / name
    (path / "src" / "natvb").mkdir(parents=True)
    (path / "perfbench").mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "first"}, {"name": "second"}]}))
    (path / "src" / "natvb" / "__init__.py").write_text("")
    (path / "src" / "natvb" / "__main__.py").write_text(textwrap.dedent(f"""\
        import sys

        if sys.argv[1:] == ["verify"]:
            print({verify_line!r})
            print("1 checks, {verify_exit} failures")
            sys.exit({verify_exit})
        sys.exit(2)
        """))
    (path / "src" / "natvb" / "harness.py").write_text(textwrap.dedent(f"""\
        import json, math, time

        def run_experiment(cfg, out_dir):
            seed = cfg["seed"]
            if seed == {fail_seed!r}:
                raise ValueError("injected failure")
            out_dir.mkdir(parents=True)
            cell = math.nextafter(0.1, 1.0) if seed == {ulp_seed!r} else 0.1
            trace = f"{{cfg.get('w')}},{{seed}},{{cell!r}}\\n" + ("0" if seed == {trace_seed!r} else "")
            (out_dir / "trace.csv").write_text(trace)
            summary = {{"seed": seed, "wall_time_s": time.time()}}
            if seed == {summary_seed!r}:
                summary["objective"] = 1.0
            (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
            used = dict(cfg)
            if seed == {config_seed!r}:
                used["tol"] = 1e-9
            (out_dir / "config.used.json").write_text(json.dumps(used, sort_keys=True))
        """))
    (path / "perfbench" / "workloads.py").write_text(textwrap.dedent("""\
        class W:
            def __init__(self, name):
                self.name = name

            def config(self, seed):
                return {"w": self.name, "seed": seed}

        WORKLOADS = {name: W(name) for name in ("first", "second")}
        """))
    return path


def _main(parent, change, seeds="1,7"):
    return same_bytes.main(["--parent", str(parent), "--change", str(change),
                            "--seeds", seeds])


#: the line of each of same_bytes.CONFIGS when its runs agree
_SAME_CONFIGS = [f"{name}: same bytes" for name in same_bytes.CONFIGS]


#: the fixed config whose bytes depend on the BLAS thread count, so that
#: no digest of it is pinned
_LARGE_P = "blr_full_exact_ridge_p200"


def test_the_fixed_configs_are_the_pinned_unbenched_runs():
    from test_trace_digests import UNBENCHED
    pinned = {name: config for name, config in same_bytes.CONFIGS.items() if name != _LARGE_P}
    assert pinned == {name: config for name, (config, *_) in UNBENCHED.items()}
    # the run test_blr holds to the exact posterior at P = 200
    assert same_bytes.CONFIGS[_LARGE_P] == {
        "schema_version": 1, "seed": 1,
        "model": {"kind": "ridge", "n": 200, "p": 200, "data_seed": 1},
        "optimizer": {"kind": "blr", "family": "full", "learning_rate": 0.5,
                      "max_iter": 40, "estimator": "exact"}}


def test_same_outputs_but_the_wall_time_pass(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    assert _main(parent, change) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{w} seed {s}: same bytes" for w in ("first", "second")
                     for s in (1, 7)] + _SAME_CONFIGS + ["verify: same bytes"]


@pytest.mark.parametrize("knob, name", [("trace_seed", "trace.csv"),
                                        ("summary_seed", "summary.json"),
                                        ("config_seed", "config.used.json")])
def test_only_the_run_that_differs_is_named(tmp_path, capsys, knob, name):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", **{knob: 7})
    assert _main(parent, change) == 1
    lines = capsys.readouterr().out.splitlines()
    # a trace names its first differing cell: here the change's extra line
    differs = {"trace.csv": "trace.csv differs at line 2, column 1: parent (none), "
                            "change '0'"}.get(name, f"{name} differs")
    assert lines == ["first seed 1: same bytes", f"first seed 7: {differs}",
                     "second seed 1: same bytes", f"second seed 7: {differs}",
                     *_SAME_CONFIGS, "verify: same bytes"]
    assert _main(parent, change, seeds="1") == 0


def test_a_fixed_config_that_differs_is_named(tmp_path, capsys):
    # every fixed config runs at seed 1, whatever the workloads' seeds
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", trace_seed=1)
    assert _main(parent, change, seeds="7") == 1
    lines = capsys.readouterr().out.splitlines()
    differs = "trace.csv differs at line 2, column 1: parent (none), change '0'"
    assert lines == ["first seed 7: same bytes", "second seed 7: same bytes",
                     *[f"{name}: {differs}" for name in same_bytes.CONFIGS],
                     "verify: same bytes"]


def test_a_trace_cell_one_ulp_off_is_named_with_its_distance(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", ulp_seed=7)
    assert _main(parent, change, seeds="7") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("first seed 7: trace.csv differs at line 1, column 3: "
                        "parent '0.1', change '0.10000000000000002', 1 ULP apart")


@pytest.mark.parametrize("a, b, ulps", [
    ("0.1", "0.1", 0), ("-0.0", "0.0", 0), ("-5e-324", "5e-324", 2),
    ("1.0", "1.0000000000000002", 1), ("1", "2", None), ("1.0", "nan", None),
    ("inf", "1e308", None), ("x", "1.0", None), (None, "1.0", None),
])
def test_ulp_distance_counts_doubles_between_float_cells(a, b, ulps):
    assert same_bytes.ulp_distance(a, b) == ulps
    assert same_bytes.ulp_distance(b, a) == ulps


def test_first_difference_in_line_endings_only():
    assert same_bytes.first_difference(b"a,1\n", b"a,1\r\n") == "in line endings only"


def test_a_failed_run_fails_the_check(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", fail_seed=7)
    assert _main(parent, change) == 1
    out = capsys.readouterr().out
    assert "first seed 7: change run failed (exit 1: ValueError: injected failure)" in out
    assert "first seed 1: same bytes" in out


@pytest.mark.parametrize("verify_line, named", [
    # one row moves: its check is named with both rows
    ("PASS  a [b]: x=2", "a differs: parent 'PASS  a [b]: x=1', change 'PASS  a [b]: x=2'"),
    # the change adds a check: the parent has no such row
    ("PASS  a [b]: x=1\nFAIL  c [d]: y=3",
     "c differs: parent (none), change 'FAIL  c [d]: y=3'"),
])
def test_a_verify_table_that_differs_fails_the_check(tmp_path, capsys, verify_line, named):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", verify_line=verify_line)
    assert _main(parent, change) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"verify: {named}"
    assert all(line.endswith("same bytes") for line in lines[:-1])


def test_verify_rows_name_each_check_and_number_other_lines():
    table = b"PASS  a [b]: x=1\nFAIL  c [d]: y=2\n2 checks, 1 failures\n"
    assert same_bytes.verify_rows(table) == {
        "a": "PASS  a [b]: x=1", "c": "FAIL  c [d]: y=2",
        "other line 1": "2 checks, 1 failures"}


def test_a_failing_verify_fails_the_check(tmp_path, capsys):
    # the same table on both sides does not pass when a check failed
    parent = _checkout(tmp_path, "parent", verify_exit=1)
    change = _checkout(tmp_path, "change", verify_exit=1)
    assert _main(parent, change) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify: parent run failed (exit 1: 1 checks, 1 failures)"


def test_without_wall_time_drops_only_that_line():
    blob = b'{\n  "seed": 1,\n  "wall_time_s": 0.25,\n  "x": 2\n}\n'
    assert same_bytes.without_wall_time(blob) == b'{\n  "seed": 1,\n  "x": 2\n}\n'


def test_seeds_must_name_at_least_one():
    assert same_bytes.parse_seeds("1, 2,7") == [1, 2, 7]
    with pytest.raises(SystemExit):
        same_bytes.main(["--parent", ".", "--change", ".", "--seeds", ","])
