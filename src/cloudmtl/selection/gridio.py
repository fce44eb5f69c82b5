"""CSV formats for statistics grids, and a plain-text results table.

Two interchangeable on-disk layouts, distinguished by header:

* fold-values:  ``model,dataset,metric,direction,fold_1,...,fold_K``
  (statistics are computed on read; display quantum 0);
* summary:      ``model,dataset,metric,direction,mu,se``
  (the mean's display quantum is inferred from its decimal string, so a
  table printed to 3 decimals is compared at half its last digit).

``direction`` is ``higher`` or ``lower`` (is the metric better when larger
or smaller).
"""

from __future__ import annotations

import math

from ..atomic import atomic_write
from ..data.csvio import read_csv_file
from ..errors import DataError
from .stats import FoldStats, fold_stats
from .scores import SelectionScores

_LEAD = ["model", "dataset", "metric", "direction"]


def display_quantum(text: str) -> float:
    """Half the unit of the last printed digit of a decimal string."""
    t = text.strip().lower()
    if not t:
        raise DataError("empty numeric field")
    exp = 0
    if "e" in t:
        t, exp_text = t.split("e", 1)
        try:
            exp = int(exp_text)
        except ValueError:
            raise DataError(f"malformed exponent in {text!r}") from None
    decimals = len(t.split(".", 1)[1]) if "." in t else 0
    return 0.5 * 10.0 ** (exp - decimals)


def _parse_direction(text: str, line: int) -> bool:
    if text == "lower":
        return True
    if text == "higher":
        return False
    raise DataError(
        f"line {line}: direction must be 'higher' or 'lower', got {text!r}")


def read_stats_grid(path: str) -> list[FoldStats]:
    """Read either grid layout into fold statistics."""
    return read_csv_file(path, _parse_grid)


def _parse_grid(reader, path: str) -> list[FoldStats]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if header[:4] != _LEAD:
        raise DataError(
            f"{path}: header must start with {','.join(_LEAD)}, got {header[:4]}")
    tail = header[4:]
    if tail == ["mu", "se"]:
        layout = "summary"
    elif tail and all(c.startswith("fold_") for c in tail):
        layout = "folds"
    else:
        raise DataError(
            f"{path}: header tail must be mu,se or fold_1..fold_K, got {tail}")
    out: list[FoldStats] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        model, dataset, metric = row[0], row[1], row[2]
        lower = _parse_direction(row[3], line_no)
        if layout == "summary":
            try:
                mu, se = float(row[4]), float(row[5])
            except ValueError:
                raise DataError(
                    f"line {line_no}: mu/se not numeric: {row[4]!r}, {row[5]!r}"
                ) from None
            if not (math.isfinite(mu) and math.isfinite(se)):
                raise DataError(f"line {line_no}: non-finite statistics")
            fs = FoldStats(model=model, dataset=dataset, metric=metric,
                           lower_better=lower, mu=mu, se=se,
                           mu_quantum=display_quantum(row[4]))
            fs.validate()
            out.append(fs)
        else:
            try:
                values = [float(v) for v in row[4:]]
            except ValueError:
                raise DataError(f"line {line_no}: fold value not numeric") from None
            out.append(fold_stats(model, dataset, metric, lower, values))
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def write_fold_values_csv(path: str, rows: list[tuple[str, str, str, bool, list[float]]]
                          ) -> None:
    """Write the fold-values layout; every row must have the same K."""
    if not rows:
        raise DataError("no rows to write")
    k = len(rows[0][4])
    if any(len(r[4]) != k for r in rows):
        raise DataError("fold counts differ across rows")
    header = _LEAD + [f"fold_{i + 1}" for i in range(k)]
    with atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for model, dataset, metric, lower, values in rows:
            cells = [model, dataset, metric, "lower" if lower else "higher"]
            cells.extend(repr(float(v)) for v in values)
            f.write(",".join(cells) + "\n")


def _format_mu(mu: float, quantum: float) -> str:
    """Render the mean at its declared display resolution.

    A mean carrying a display quantum (it came from a rounded table) is
    printed with exactly that many decimals, trailing zeros included, so the
    quantum survives a write/read round trip; full-precision means use repr.
    """
    if quantum <= 0.0:
        return repr(float(mu))
    decimals = round(-math.log10(2.0 * quantum))
    if decimals < 0 or abs(0.5 * 10.0 ** -decimals - quantum) > 1e-12 * quantum:
        return repr(float(mu))
    return f"{mu:.{decimals}f}"


def write_summary_csv(path: str, grid: list[FoldStats]) -> None:
    with atomic_write(path) as f:
        f.write(",".join(_LEAD + ["mu", "se"]) + "\n")
        for s in grid:
            f.write(",".join([
                s.model, s.dataset, s.metric,
                "lower" if s.lower_better else "higher",
                _format_mu(s.mu, s.mu_quantum), repr(float(s.se))]) + "\n")


def render_table(scores: SelectionScores, grid: list[FoldStats]) -> str:
    """Aligned text table: one block per metric plus the two total lines."""
    stats = {(s.model, s.dataset, s.metric): s for s in grid}
    lines: list[str] = []
    for metric in scores.metrics:
        lower = next(s.lower_better for s in grid if s.metric == metric)
        lines.append(f"metric: {metric} ({'lower' if lower else 'higher'} is better)")
        lines.append(f"  {'dataset':<10} {'model':<14} {'mu':>12} {'se':>12} "
                     f"{'gap_pct':>10} {'sel':>4}")
        for dataset in scores.datasets:
            for model in scores.models:
                s = stats[(model, dataset, metric)]
                gap = scores.p_ab_cell[(model, dataset, metric)]
                psi = scores.psi_cell[(model, dataset, metric)]
                lines.append(
                    f"  {dataset:<10} {model:<14} {s.mu:>12.6f} {s.se:>12.3e} "
                    f"{gap:>10.4f} {psi:>4d}")
        lines.append("")
    lines.append("totals")
    lines.append(f"  {'model':<14} {'gap_pct_total':>14} {'sel_total':>10}")
    for model in scores.models:
        lines.append(f"  {model:<14} {scores.p_ab_total[model]:>14.4f} "
                     f"{scores.p_1se_total[model]:>10.4g}")
    return "\n".join(lines) + "\n"
