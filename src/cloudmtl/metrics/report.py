"""Full evaluation of a model's predictions against a labeled dataset.

The report bundles:

* binary cloud-mask accuracy;
* AUPRC for each of the four overlapping classes (cloudy, clear, liquid,
  ice) and their micro-averaged weighted pooling;
* MSE and R^2 of the COT regression over truly-cloudy pixels (overall and
  per true phase);
* per-phase good-retrieval fractions (FMG) with eligible-pixel counts.

Metrics that are undefined for the given data (a class with no positive
pixels, a constant-truth subset, no eligible thick pixels) are reported as
``None`` rather than a fabricated number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields

from ..errors import MetricUndefinedError
from ..data.dataset import PixelDataset, LABEL_ICE, LABEL_LIQUID
from ..models.inference import Predictions
from .classification import acc_binary, auprc_class, auprc_weighted
from .regression import mse, r2
from .fmg import fmg


@dataclass
class EvalReport:
    n_pixels: int
    n_cloudy: int
    acc_bi: float
    auprc_cloudy: float | None
    auprc_clear: float | None
    auprc_liquid: float | None
    auprc_ice: float | None
    auprc_weighted: float | None
    mse_all: float | None
    mse_liquid: float | None
    mse_ice: float | None
    r2_all: float | None
    r2_liquid: float | None
    r2_ice: float | None
    fmg_liquid: float | None
    fmg_ice: float | None
    fmg_eligible_liquid: int
    fmg_eligible_ice: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


#: the report's metric fields: all but the two pixel counts
METRIC_COLUMNS = tuple(f.name for f in fields(EvalReport)
                       if f.name not in ("n_pixels", "n_cloudy"))


def _maybe(fn, *args):
    try:
        return fn(*args)
    except MetricUndefinedError:
        return None


def evaluate_predictions(pred: Predictions, ds: PixelDataset) -> EvalReport:
    """Score hard decisions + scores against the dataset's labels."""
    true_cloudy = ds.cloudy_mask()
    acc = acc_binary(true_cloudy, pred.cloudy)

    problems = {
        "cloudy": (pred.score_cloud, true_cloudy),
        "clear": (pred.score_clear, ~true_cloudy),
        "liquid": (pred.score_liquid, ds.label == LABEL_LIQUID),
        "ice": (pred.score_ice, ds.label == LABEL_ICE),
    }
    au = {name: _maybe(auprc_class, s, l) for name, (s, l) in problems.items()}
    au_w = _maybe(auprc_weighted, list(problems.values()))

    y = ds.cot_log10[true_cloudy]
    y_hat = pred.cot_raw[true_cloudy]
    ice_sel = (ds.label[true_cloudy] == LABEL_ICE)
    mse_all = _maybe(mse, y, y_hat)
    r2_all = _maybe(r2, y, y_hat)
    mse_liq = _maybe(mse, y[~ice_sel], y_hat[~ice_sel])
    mse_ice_v = _maybe(mse, y[ice_sel], y_hat[ice_sel])
    r2_liq = _maybe(r2, y[~ice_sel], y_hat[~ice_sel])
    r2_ice_v = _maybe(r2, y[ice_sel], y_hat[ice_sel])
    fm = fmg(y, y_hat, ice_sel)

    return EvalReport(
        n_pixels=len(ds), n_cloudy=int(true_cloudy.sum()), acc_bi=acc,
        auprc_cloudy=au["cloudy"], auprc_clear=au["clear"],
        auprc_liquid=au["liquid"], auprc_ice=au["ice"], auprc_weighted=au_w,
        mse_all=mse_all, mse_liquid=mse_liq, mse_ice=mse_ice_v,
        r2_all=r2_all, r2_liquid=r2_liq, r2_ice=r2_ice_v,
        fmg_liquid=fm.fmg_liquid, fmg_ice=fm.fmg_ice,
        fmg_eligible_liquid=fm.eligible_liquid,
        fmg_eligible_ice=fm.eligible_ice,
    )
