"""Finite-difference validation of reverse-mode gradients.

For a scalar loss ``f(params)`` the checker compares the analytic gradient
(one backward pass) against central differences

    (f(p + h e_k) - f(p - h e_k)) / (2 h)

entry by entry on a deterministic sample of parameter entries. Relative
error uses ``|analytic - numeric| / max(|analytic|, |numeric|, floor)``.

Two guards keep the comparison honest:

* the loss is evaluated twice up front; any bitwise difference raises
  :class:`DeterminismError` (a stochastic loss cannot be checked);
* entries sitting on a kink (relu corner, clamp boundary, abs at zero) are
  detected by comparing the one-sided differences; where they disagree
  beyond ``kink_tol`` the entry is recorded as skipped instead of failed,
  since the two-sided quotient does not estimate a derivative there;
* the quotient carries roundoff noise of order ``eps * |f| / step`` from the
  cancellation in ``f_plus - f_minus``, so when analytic and numeric agree
  to within a small multiple of that resolution the entry passes outright;
  a derivative smaller than the noise floor (e.g. an exact analytic zero
  from sign cancellation) cannot be resolved by finite differences at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import DeterminismError, NumericError
from .params import ParamStore
from .tensor import Tensor, backward


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
        return (f"{state}: max rel err {self.max_rel_err:.3e} over "
                f"{self.checked} entries ({len(self.skipped)} kink-skipped, "
                f"{self.below_resolution} below FD resolution)")


def finite_diff_check(loss_fn: Callable[[ParamStore], Tensor],
                      params: ParamStore,
                      step: float = 1e-5,
                      tol: float = 1e-4,
                      max_entries_per_param: int = 5,
                      rel_floor: float = 1e-8,
                      kink_tol: float = 1e-3,
                      seed: int = 0) -> GradCheckReport:
    """Compare analytic and numeric gradients of ``loss_fn`` over ``params``.

    ``loss_fn`` must be a pure scalar function of the store (it is invoked
    many times with individually perturbed entries). Up to
    ``max_entries_per_param`` entries per parameter are sampled with a seeded
    generator, so the same call checks the same entries every time.
    """
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

    rng = np.random.default_rng(seed)
    # Smallest derivative magnitude the central quotient can resolve.
    fd_resolution = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(base)) / step
    report = GradCheckReport(max_rel_err=0.0, checked=0)
    for name, t in params.items():
        size = t.value.size
        if size <= max_entries_per_param:
            idxs = np.arange(size)
        else:
            idxs = rng.choice(size, size=max_entries_per_param, replace=False)
        if not t.value.flags["C_CONTIGUOUS"]:
            t.value = np.ascontiguousarray(t.value)
        flat = t.value.reshape(-1)  # view: in-place perturbation below
        for k in sorted(int(i) for i in idxs):
            orig = flat[k]
            flat[k] = orig + step
            f_plus = float(loss_fn(params).value)
            flat[k] = orig - step
            f_minus = float(loss_fn(params).value)
            flat[k] = orig

            fwd = (f_plus - base) / step
            bwd = (base - f_minus) / step
            if abs(fwd - bwd) > kink_tol * max(1.0, abs(fwd), abs(bwd)):
                report.skipped.append((name, k))
                continue
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[k])
            report.checked += 1
            rel = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
            if rel > tol and abs(a - numeric) <= fd_resolution:
                # disagreement smaller than what central differences can
                # measure at this step size: unresolvable, not wrong
                report.below_resolution += 1
                continue
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst_param = name
                report.worst_index = k
    report.passed = report.max_rel_err <= tol
    return report
