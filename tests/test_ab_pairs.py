"""The gain rule of tools/ab_pairs.py, on synthetic paired runs."""

import importlib.util
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
