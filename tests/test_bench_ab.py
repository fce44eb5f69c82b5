"""``tools/bench_ab.py``'s verdict rule, on hand-built pairs of results: the
seed list, the change's wins (ties count for neither side), whether a gain
is shown and whether the change stays inside the metric's bound."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def metric(better, bound=0.25):
    return {"name": "m", "unit": "1", "better": better, "bound": bound}


def pairs(base, change):
    """Pairs whose runs report ``m`` as the given base and change values."""
    def run(value):
        return {"result": {"metrics": {"m": {"value": value}}}}
    return [{"base": run(b), "change": run(c)} for b, c in zip(base, change)]


def verdict(base, change, better="higher", bound=0.25):
    return bench_ab.summarize(pairs(base, change), [metric(better, bound)])["m"]


BASE = [100.0 + i for i in range(10)]   # median 104.5, quartiles 102.25, 106.75


@pytest.mark.parametrize("text, seeds", [
    ("9201-9203", [9201, 9202, 9203]),
    ("9201,9205", [9201, 9205]),
    ("7", [7]),
    ("1-2,5,8-9", [1, 2, 5, 8, 9]),
])
def test_parse_seeds_reads_ranges_and_lists(text, seeds):
    assert bench_ab.parse_seeds(text) == seeds


def test_base_quartiles_are_inclusive():
    m = verdict(BASE, BASE)
    assert (m["base"]["q1"], m["base"]["median"], m["base"]["q3"]) == (
        102.25, 104.5, 106.75)
    assert m["pairs"] == 10


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_ties_count_for_neither_side(better):
    base, change = [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]
    assert verdict(base, change, better)["wins"] == 1
    assert verdict(change, base, better)["wins"] == 1
    assert verdict(base, base, better)["wins"] == 0


@pytest.mark.parametrize("change, wins, shown", [
    ([b + 5.0 for b in BASE], 10, True),                  # gap 5 > IQR 4.5
    ([b + 4.5 for b in BASE], 10, False),                 # gap = IQR
    ([b + 4.0 for b in BASE], 10, False),                 # gap 4 < IQR 4.5
    ([99.0] + [b + 5.0 for b in BASE[1:]], 9, True),      # nine tenths
    ([99.0, 98.0] + [b + 5.0 for b in BASE[2:]], 8, False),
])
def test_gain_shown_needs_nine_tenths_and_a_gap_beyond_the_iqr(
        change, wins, shown):
    higher = verdict(BASE, change)
    assert (higher["wins"], higher["gain_shown"]) == (wins, shown)
    # the same runs of a lower-is-better metric, mirrored
    lower = verdict([-b for b in BASE], [-c for c in change], "lower")
    assert (lower["wins"], lower["gain_shown"]) == (wins, shown)


@pytest.mark.parametrize("better, change, within", [
    ("higher", 76.0, True),
    ("higher", 75.0, True),          # exactly at the bound
    ("higher", 74.0, False),
    ("higher", 200.0, True),
    ("lower", 124.0, True),
    ("lower", 125.0, True),
    ("lower", 126.0, False),
    ("lower", 50.0, True),
])
def test_within_bound_in_both_directions(better, change, within):
    m = verdict([100.0] * 3, [change] * 3, better)
    assert m["within_bound"] is within
    assert m["change_frac"] == pytest.approx(
        (change - 100.0) / 100.0 * (1 if better == "higher" else -1))


def test_one_pair_has_equal_quartiles():
    assert bench_ab.quartiles([5.0]) == {
        "median": 5.0, "q1": 5.0, "q3": 5.0, "values": [5.0]}
    m = verdict([5.0], [6.0])
    assert (m["wins"], m["pairs"], m["gain_shown"], m["within_bound"]) == (
        1, 1, True, True)
    assert not verdict([5.0], [5.0])["gain_shown"]
