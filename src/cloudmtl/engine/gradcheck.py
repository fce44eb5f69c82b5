"""Finite-difference validation of reverse-mode gradients.

The analytic gradient of a scalar loss ``f(params)`` (one backward pass) is
compared with central differences ``(f(p + h e_k) - f(p - h e_k)) / (2 h)``
on a seeded sample of entries, by ``|a - n| / max(|a|, |n|, REL_FLOOR)``. A
loss that differs between two evaluations raises :class:`DeterminismError`.
Entries on a kink (one-sided differences disagreeing beyond ``KINK_TOL``)
are skipped, and a disagreement within the quotient's roundoff resolution
``~eps * |f| / STEP`` counts as below resolution, not as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import DeterminismError, NumericError
from .params import ParamStore
from .tensor import Tensor, backward

STEP = 1e-5
TOL = 1e-4
MAX_ENTRIES_PER_PARAM = 5
REL_FLOOR = 1e-8
KINK_TOL = 1e-3
SEED = 0


@dataclass
class GradCheckReport:
    max_rel_err: float
    checked: int
    skipped: list[tuple[str, int]] = field(default_factory=list)
    below_resolution: int = 0
    passed: bool = False
    worst_param: str | None = None
    worst_index: int = -1

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        worst = ("" if self.worst_param is None
                 else f" at {self.worst_param}[{self.worst_index}]")
        return (f"{state}: max rel err {self.max_rel_err:.3e}{worst} over "
                f"{self.checked} entries ({len(self.skipped)} kink-skipped, "
                f"{self.below_resolution} below FD resolution)")


def finite_diff_check(loss_fn: Callable[[ParamStore], Tensor],
                      params: ParamStore) -> GradCheckReport:
    """Compare analytic and numeric gradients of the pure scalar function
    ``loss_fn`` over up to ``MAX_ENTRIES_PER_PARAM`` seeded entries of each
    parameter, perturbed in place; a non-scalar or non-finite loss raises
    :class:`NumericError`."""
    base_t = loss_fn(params)
    if base_t.value.ndim != 0:
        raise NumericError(
            f"finite_diff_check requires a scalar loss, got shape {base_t.value.shape}")
    base = float(base_t.value)
    again = float(loss_fn(params).value)
    if not (base == again):
        raise DeterminismError(
            f"loss_fn is not deterministic: {base!r} != {again!r}")
    if not np.isfinite(base):
        raise NumericError(f"loss is non-finite at the evaluation point: {base!r}")

    params.zero_grads()
    backward(loss_fn(params))
    analytic = {name: t.grad.copy() for name, t in params.items()}

    rng = np.random.default_rng(SEED)
    # Smallest derivative magnitude the central quotient can resolve.
    fd_resolution = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(base)) / STEP
    report = GradCheckReport(max_rel_err=0.0, checked=0)
    for name, t in params.items():
        size = t.value.size
        if size <= MAX_ENTRIES_PER_PARAM:
            idxs = np.arange(size)
        else:
            idxs = rng.choice(size, size=MAX_ENTRIES_PER_PARAM, replace=False)
        if not t.value.flags["C_CONTIGUOUS"]:
            t.value = np.ascontiguousarray(t.value)
        flat = t.value.reshape(-1)  # view: in-place perturbation below
        for k in sorted(int(i) for i in idxs):
            orig = flat[k]
            flat[k] = orig + STEP
            f_plus = float(loss_fn(params).value)
            flat[k] = orig - STEP
            f_minus = float(loss_fn(params).value)
            flat[k] = orig

            fwd = (f_plus - base) / STEP
            bwd = (base - f_minus) / STEP
            if abs(fwd - bwd) > KINK_TOL * max(1.0, abs(fwd), abs(bwd)):
                report.skipped.append((name, k))
                continue
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            a = float(analytic[name].reshape(-1)[k])
            report.checked += 1
            rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
            if rel > TOL and abs(a - numeric) <= fd_resolution:
                # disagreement smaller than what central differences can
                # measure at this step size: unresolvable, not wrong
                report.below_resolution += 1
                continue
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst_param = name
                report.worst_index = k
    report.passed = report.max_rel_err <= TOL
    return report
