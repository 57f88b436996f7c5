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
              config_seed=None, fail_seed=None) -> Path:
    """A checkout whose run_experiment writes a trace, a summary and a used
    config named by the workload and seed, with a wall time that differs
    on every run: at trace_seed its trace gains a byte, at summary_seed
    its summary a key, at config_seed its used config a key, and at
    fail_seed it raises."""
    path = root / name
    (path / "src" / "natvb").mkdir(parents=True)
    (path / "perfbench").mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "first"}, {"name": "second"}]}))
    (path / "src" / "natvb" / "__init__.py").write_text("")
    (path / "src" / "natvb" / "harness.py").write_text(textwrap.dedent(f"""\
        import json, time

        def run_experiment(cfg, out_dir):
            seed = cfg["seed"]
            if seed == {fail_seed!r}:
                raise ValueError("injected failure")
            out_dir.mkdir(parents=True)
            trace = f"{{cfg['w']}},{{seed}}\\n" + ("0" if seed == {trace_seed!r} else "")
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


def test_same_outputs_but_the_wall_time_pass(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    assert _main(parent, change) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{w} seed {s}: same bytes" for w in ("first", "second") for s in (1, 7)]


@pytest.mark.parametrize("knob, name", [("trace_seed", "trace.csv"),
                                        ("summary_seed", "summary.json"),
                                        ("config_seed", "config.used.json")])
def test_only_the_run_that_differs_is_named(tmp_path, capsys, knob, name):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", **{knob: 7})
    assert _main(parent, change) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["first seed 1: same bytes", f"first seed 7: {name} differs",
                     "second seed 1: same bytes", f"second seed 7: {name} differs"]
    assert _main(parent, change, seeds="1") == 0


def test_a_failed_run_fails_the_check(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", fail_seed=7)
    assert _main(parent, change) == 1
    out = capsys.readouterr().out
    assert "first seed 7: change run failed (exit 1: ValueError: injected failure)" in out
    assert "first seed 1: same bytes" in out


def test_without_wall_time_drops_only_that_line():
    blob = b'{\n  "seed": 1,\n  "wall_time_s": 0.25,\n  "x": 2\n}\n'
    assert same_bytes.without_wall_time(blob) == b'{\n  "seed": 1,\n  "x": 2\n}\n'


def test_seeds_must_name_at_least_one():
    assert same_bytes.parse_seeds("1, 2,7") == [1, 2, 7]
    with pytest.raises(SystemExit):
        same_bytes.main(["--parent", ".", "--change", ".", "--seeds", ","])
