"""The verdicts of tools/ab_pairs.py, on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


PARENT = [9.0, 9.2, 8.8, 9.1, 8.9, 9.3, 8.7, 9.0, 9.1, 8.9]


def test_a_clear_gain_holds():
    change = [x - 1.5 for x in PARENT]
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10 and s["gain"]
    assert s["gap"] == pytest.approx(1.5)
    assert s["rel_change"] == pytest.approx(-1.5 / 9.0)


def test_higher_is_better_mirrors_lower():
    s = ab_pairs.summarize([1 / x for x in PARENT], [1 / (x - 1.5) for x in PARENT], "higher")
    assert s["wins"] == 10 and s["gain"]
    assert not ab_pairs.summarize(PARENT, [x - 1.5 for x in PARENT], "higher")["gain"]


def test_eight_wins_of_ten_is_not_a_gain():
    change = [x - 1.5 for x in PARENT[:8]] + [x + 0.1 for x in PARENT[8:]]
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["gain"]


def test_nine_wins_of_ten_is_a_gain():
    change = [x - 1.5 for x in PARENT[:9]] + [PARENT[9]]  # a tie is not a win
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 9 and s["gain"]


def test_a_gap_inside_the_parents_iqr_is_not_a_gain():
    change = [x - 0.05 for x in PARENT]
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10
    assert s["gap"] < s["parent_iqr"] and not s["gain"]


def test_quartiles_and_bad_input():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [1.0], "faster")


# -- the no-regression verdict ---------------------------------------------------

def test_a_change_within_the_bound_is_no_regression():
    s = ab_pairs.summarize(PARENT, [x * 1.2 for x in PARENT], "lower")
    assert ab_pairs.regression(s, 0.25) == "ok"
    assert ab_pairs.regression(ab_pairs.summarize(PARENT, [x - 1.5 for x in PARENT], "lower"),
                               0.25) == "ok"


def test_a_change_past_the_bound_is_worse_in_either_direction():
    assert ab_pairs.regression(
        ab_pairs.summarize(PARENT, [x * 1.3 for x in PARENT], "lower"), 0.25) == "worse"
    assert ab_pairs.regression(
        ab_pairs.summarize(PARENT, [x * 0.7 for x in PARENT], "higher"), 0.25) == "worse"
    assert ab_pairs.regression(
        ab_pairs.summarize(PARENT, [x * 1.3 for x in PARENT], "higher"), 0.25) == "ok"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR 0.25 of a median near 9: 2.8 %, wider than a 2 % bound
    s = ab_pairs.summarize(PARENT, PARENT, "lower")
    assert s["parent_iqr"] / s["parent"][1] > 0.02
    assert ab_pairs.regression(s, 0.02) == "unresolved"
    assert ab_pairs.regression(s, 0.1) == "ok"
    # unless every run of the change reads better than every parent run
    better = ab_pairs.summarize(PARENT, [x - 0.7 for x in PARENT], "lower")
    assert better["all_better"] and ab_pairs.regression(better, 0.02) == "ok"
    overlapping = ab_pairs.summarize(PARENT, [x - 0.5 for x in PARENT], "lower")
    assert not overlapping["all_better"]
    assert ab_pairs.regression(overlapping, 0.02) == "unresolved"


# -- --workload all ----------------------------------------------------------------

def test_workload_all_compares_every_benchmark_workload(tmp_path, monkeypatch, capsys):
    spec = {"workloads": [{"name": "first"}, {"name": "second"}],
            "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                           {"name": "steps_per_s", "better": "higher", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, args):
        calls.append((checkout.name, workload))
        run_s = 1.0 if checkout.name == "parent" else 2.0  # the change is twice as slow
        return {"run_s": run_s + 0.01 * len(calls), "steps_per_s": 100.0 / run_s}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps(spec))
    assert ab_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "all", "--pairs", "2"]) == 0
    assert [w for _, w in calls] == ["first"] * 4 + ["second"] * 4
    # even pairs run the parent first, odd pairs the change
    assert [c for c, _ in calls[:4]] == ["parent", "change", "change", "parent"]
    out = capsys.readouterr().out
    assert "workload first" in out and "workload second" in out
    rows = [line.split() for line in out.splitlines() if line.startswith(("run_s", "steps"))]
    assert len(rows) == 4 and all(row[-1] == "worse" and row[-3] == "no" for row in rows)
