"""The verdict rules of ``tools/ab_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [5.6, 5.4, 5.9, 5.5, 5.7, 5.8, 5.5, 5.6, 6.0, 5.7]


def test_quartiles():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_ignore_ties_and_follow_the_direction():
    assert ab_pairs.change_wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "lower") == 1
    assert ab_pairs.change_wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "higher") == 1
    assert ab_pairs.change_wins([1.0, 1.0], [2.0, 3.0], "higher") == 2


def test_claim_met_when_nine_of_ten_pairs_win_beyond_the_parent_iqr():
    change = [4.0] * 9 + [6.5]
    assert ab_pairs.change_wins(PARENT, change, "lower") == 9
    assert ab_pairs.claim_met(PARENT, change, "lower")


def test_claim_not_met_on_eight_wins():
    change = [4.0] * 8 + [6.5, 6.5]
    assert not ab_pairs.claim_met(PARENT, change, "lower")


def test_claim_not_met_inside_the_parent_iqr():
    # Every pair won, by less than the parent's own quartile spread.
    q1, _, q3 = ab_pairs.quartiles(PARENT)
    change = [value - 0.01 for value in PARENT]
    assert ab_pairs.change_wins(PARENT, change, "lower") == len(PARENT)
    assert q3 - q1 > 0.01
    assert not ab_pairs.claim_met(PARENT, change, "lower")


def test_claim_direction_for_higher_is_better():
    assert ab_pairs.claim_met([100.0] * 10, [120.0] * 10, "higher")
    assert not ab_pairs.claim_met([100.0] * 10, [80.0] * 10, "higher")


@pytest.mark.parametrize(
    "parent,change,better,expected",
    [
        ([10.0] * 5, [13.0] * 5, "lower", "regression"),
        ([10.0] * 5, [12.0] * 5, "lower", "within bound"),
        ([10.0] * 5, [7.0] * 5, "higher", "regression"),
        ([10.0] * 5, [30.0] * 5, "higher", "within bound"),
        # Runs spread wider than the bound cannot tell 4% apart from noise.
        ([10.0, 6.0, 14.0, 8.0, 12.0], [10.4, 6.4, 14.4, 8.4, 12.4], "lower", "unresolved"),
        # Unless every change run beats every parent run.
        ([10.0, 9.0, 14.0, 8.0, 12.0], [1.0, 2.0, 3.0, 4.0, 7.0], "lower", "within bound"),
        ([0.0] * 5, [0.0] * 5, "lower", "within bound"),
        ([0.0] * 5, [1.0] * 5, "lower", "regression"),
    ],
)
def test_bound_verdict(parent, change, better, expected):
    assert ab_pairs.bound_verdict(parent, change, better, 0.25) == expected


def test_report_judges_every_metric():
    spec = {
        "end_to_end": [
            {"name": "run_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
        ]
    }

    def run(run_s, rss):
        metrics = {"run_s": {"value": run_s}, "peak_rss_mb": {"value": rss}}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    runs = {
        "parent": [run(value, 200.0) for value in PARENT],
        "change": [run(4.0, 300.0) for _ in PARENT],
    }
    lines, passed = ab_pairs.report(runs, spec, "run_s")
    assert not passed
    assert any(line.startswith("run_s") and line.endswith("claim met") for line in lines)
    assert any(line.startswith("peak_rss_mb") and line.endswith("regression") for line in lines)
    assert "parent: 0/30 operations failed, correct=True" in lines
