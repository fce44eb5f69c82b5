"""Arithmetic of the speed probe's calibrated timeline.

    python -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calib  # noqa: E402


def speedometer(*probes):
    """A speedometer whose probes are given as (start, end, python seconds)."""
    speed = calib.Speedometer()
    speed.probes = [(a, b, {"python": p}) for a, b, p in probes]
    return speed


def test_probe_time_is_left_out_and_stretches_are_scaled():
    nominal = calib.NOMINAL_S["python"]
    speed = speedometer((0.0, 1.0, nominal), (3.0, 4.0, 3 * nominal),
                        (6.0, 7.0, 3 * nominal))
    assert speed.raw_seconds(0.0, 7.0) == pytest.approx(4.0)
    # 1..3 runs at the mean of a nominal and a three-times-slower probe
    assert speed.seconds(1.0, 3.0) == pytest.approx(2.0 / 2.0)
    # 4..6 runs three times slower than nominal
    assert speed.seconds(4.0, 6.0) == pytest.approx(2.0 / 3.0)
    assert speed.seconds(2.0, 5.0) == pytest.approx(0.5 + 1.0 / 3.0)
    assert speed.factor(4.0, 6.0) == pytest.approx(1.0 / 3.0)


def test_time_outside_the_probes_uses_the_nearest_probe():
    nominal = calib.NOMINAL_S["python"]
    speed = speedometer((1.0, 2.0, 2 * nominal), (3.0, 4.0, nominal))
    assert speed.seconds(0.0, 1.0) == pytest.approx(0.5)
    assert speed.seconds(4.0, 6.0) == pytest.approx(2.0)


def test_probe_points_are_restored():
    speed = calib.Speedometer()
    before = [owner.__dict__[attr] if isinstance(owner, type)
              else getattr(owner, attr) for owner, attr in calib.PROBE_POINTS]
    with speed.installed():
        pass
    after = [owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr) for owner, attr in calib.PROBE_POINTS]
    assert before == after
