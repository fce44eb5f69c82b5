"""Finite-difference harness behavior."""

import numpy as np
import pytest

from cloudmtl import engine as E
from cloudmtl.engine import ParamStore, finite_diff_check
from cloudmtl.errors import DeterminismError, NumericError


def _quadratic_store():
    ps = ParamStore()
    ps.add("w", np.array([[0.5, -1.0], [2.0, 0.25]]))
    return ps


def test_passes_on_smooth_loss():
    ps = _quadratic_store()

    def loss(params):
        w = params["w"]
        return E.reduce_sum(E.mul(w, w))

    rep = finite_diff_check(loss, ps)
    assert rep.passed
    assert rep.max_rel_err < 1e-6
    assert rep.checked > 0


def test_catches_wrong_gradient():
    """An op with a deliberately broken vjp must be flagged."""
    ps = _quadratic_store()

    def loss(params):
        w = params["w"]
        out = E.reduce_sum(E.mul(w, w))
        # corrupt the cotangent path: pretend d(sum w^2)/dw = w (missing 2x)
        bad = E.Tensor(out.value, parents=(w,),
                       vjp=lambda g: (g * w.value,))
        return bad

    rep = finite_diff_check(loss, ps)
    assert not rep.passed
    assert rep.max_rel_err > 1e-2


def test_nondeterministic_loss_rejected():
    ps = _quadratic_store()
    state = {"calls": 0}

    def loss(params):
        state["calls"] += 1
        w = params["w"]
        return E.add(E.reduce_sum(E.mul(w, w)), float(state["calls"]))

    with pytest.raises(DeterminismError):
        finite_diff_check(loss, ps)


def test_kink_entries_are_skipped_not_failed():
    """relu at 0 makes central differences disagree with the analytic
    gradient; the one-sided disagreement must excuse the entry."""
    ps = ParamStore()
    ps.add("w", np.array([0.0, 1.0, -2.0]))

    def loss(params):
        return E.reduce_sum(E.relu(params["w"]))

    rep = finite_diff_check(loss, ps)
    assert rep.passed
    assert len(rep.skipped) >= 1


def test_report_summary_mentions_worst_parameter():
    """Only entry 1 of ``theta`` gets a wrong gradient, so the summary names
    that entry; no other word of the summary contains "theta"."""
    ps = ParamStore()
    ps.add("theta", np.array([0.5, -1.0, 2.0]))
    bump = np.array([0.0, 1.0, 0.0])

    def loss(params):
        t = params["theta"]
        out = E.reduce_sum(E.mul(t, t))
        return E.Tensor(out.value, parents=(t,),
                        vjp=lambda g: (g * (2.0 * t.value + bump),))

    rep = finite_diff_check(loss, ps)
    assert (rep.worst_param, rep.worst_index) == ("theta", 1)
    text = rep.summary()
    assert text.startswith("FAIL: max rel err ")
    assert " at theta[1] over 3 entries" in text
    assert "theta" not in finite_diff_check(lambda p: E.reduce_sum(
        E.mul(p["theta"], 0.0)), ps).summary()


def test_zero_analytic_gradient_with_fd_noise_passes():
    """Cancellation can make the true gradient 0 while central differences
    return pure roundoff; the resolution guard must not fail such entries."""
    ps = ParamStore()
    ps.add("b", np.array([0.5]))

    def loss(params):
        b = params["b"]
        # (b + 2047.5) - (b + 0.25) has zero derivative, but rounding b + 2047.5
        # leaves its central difference at about 1e-8, above REL_FLOOR
        return E.reduce_sum(E.sub(E.add(b, 2047.5), E.add(b, 0.25)))

    rep = finite_diff_check(loss, ps)
    assert rep.below_resolution == 1
    assert rep.checked == 1 and not rep.skipped
    assert rep.passed
    assert "(0 kink-skipped, 1 below FD resolution)" in rep.summary()


def test_non_scalar_loss_is_refused():
    ps = _quadratic_store()
    with pytest.raises(NumericError) as err:
        finite_diff_check(lambda p: p["w"], ps)
    assert str(err.value) == (
        "finite_diff_check requires a scalar loss, got shape (2, 2)")


def test_non_finite_loss_is_refused():
    with pytest.raises(NumericError) as err:
        finite_diff_check(lambda p: E.constant(np.inf), _quadratic_store())
    assert str(err.value) == "loss is non-finite at the evaluation point: inf"


def test_non_contiguous_parameter_is_checked_on_a_contiguous_copy():
    ps = ParamStore()
    ps.add("w", np.asfortranarray(np.arange(1.0, 5.0).reshape(2, 2)))
    assert not ps["w"].value.flags["C_CONTIGUOUS"]
    rep = finite_diff_check(lambda p: E.reduce_sum(E.mul(p["w"], p["w"])), ps)
    assert rep.passed and rep.checked == 4
    assert ps["w"].value.flags["C_CONTIGUOUS"]
    assert np.array_equal(ps["w"].value, np.arange(1.0, 5.0).reshape(2, 2))
