"""The gain rule of tools/bench_trajectory.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)
pair_summary = bench_trajectory.pair_summary

# ten pairs of a latency (lower is better); parent quartiles 21.875, 23.125
PARENT = [22.0, 23.0, 21.5, 22.5, 24.0, 22.0, 23.5, 21.0, 22.5, 23.0]


def test_ten_of_ten_pairs_and_a_gain_past_the_iqr():
    change = [p - 3.0 for p in PARENT]
    got = pair_summary(PARENT, change, "lower")
    assert got["parent"] == PARENT and got["change"] == change
    assert got["medians"] == {"parent": 22.5, "change": 19.5}
    assert got["parent_quartiles"] == pytest.approx([21.875, 23.125])
    assert (got["won"], got["pairs"]) == (10, 10)
    assert got["gain"] == pytest.approx(3.0)
    assert got["gain_rule_holds"]


def test_nine_pairs_won_suffice_and_a_tie_counts_for_neither():
    change = [p - 3.0 for p in PARENT]
    change[0] = PARENT[0]                       # a tie
    got = pair_summary(PARENT, change, "lower")
    assert got["won"] == 9 and got["gain_rule_holds"]
    change[1] = PARENT[1] + 0.1                 # a loss
    got = pair_summary(PARENT, change, "lower")
    assert got["won"] == 8 and not got["gain_rule_holds"]


def test_a_gain_inside_the_iqr_does_not_hold():
    got = pair_summary(PARENT, [p - 1.0 for p in PARENT], "lower")
    assert got["won"] == 10
    assert got["gain"] == pytest.approx(1.0)    # IQR 1.25
    assert not got["gain_rule_holds"]


def test_higher_is_better_flips_the_sign():
    change = [p + 3.0 for p in PARENT]
    up = pair_summary(PARENT, change, "higher")
    assert up["won"] == 10 and up["gain"] == pytest.approx(3.0)
    assert up["gain_rule_holds"]
    down = pair_summary(PARENT, change, "lower")
    assert down["won"] == 0 and down["gain"] == pytest.approx(-3.0)
    assert not down["gain_rule_holds"]


def test_fewer_than_ten_pairs_never_hold():
    parent = PARENT[:3]
    got = pair_summary(parent, [p - 5.0 for p in parent], "lower")
    assert got["won"] == 3 and got["gain"] > 4.0
    assert got["gain"] > got["parent_quartiles"][1] - got["parent_quartiles"][0]
    assert not got["gain_rule_holds"]
