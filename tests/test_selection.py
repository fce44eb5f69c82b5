"""Fold statistics, the 1SE rule, and comparison scores on the frozen grid."""

import math

import numpy as np
import pytest

from cloudmtl.errors import ConfigError, DataError
from cloudmtl.selection import (
    FoldStats, compute_selection, display_quantum, fold_stats,
    one_se_rule, read_stats_grid, render_table,
    write_fold_values_csv, write_summary_csv,
)

from reference_grid import (
    ACC_GAP_TOLERANCE_PP, EXPECTED_P1SE, EXPECTED_WINNERS, MODELS,
    PUBLISHED_ACC_GAPS, reference_grid,
)

ORDER = ("MT-CR", "MT-HCR", "MT-HCCR", "MT-HCCAR")


def fs(model, mu, se, metric="ACC_bi", dataset="D", lower=False, quantum=0.0):
    return FoldStats(model, dataset, metric, lower, mu, se,
                     mu_quantum=quantum)


# ------------------------------------------------------------ fold statistics

def test_fold_stats_hand_case():
    s = fold_stats("MT-CR", "D", "ACC_bi", False, [0.98, 1.00])
    assert s.mu == pytest.approx(0.99, abs=1e-15)
    assert s.se == pytest.approx(0.01, abs=1e-15)   # sample sd / sqrt(k)
    assert s.k == 2
    assert s.mu_quantum == 0.0


def test_fold_stats_three_values():
    s = fold_stats("m", "d", "MSE", True, [1.0, 2.0, 3.0])
    assert s.mu == 2.0
    assert s.se == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)


def test_fold_stats_validation():
    with pytest.raises(ConfigError):
        fold_stats("m", "d", "MSE", True, [1.0])     # one fold: no SE
    with pytest.raises(ConfigError):
        fs("m", 0.5, -0.1)                            # negative SE


# ------------------------------------------------------------ 1SE rule

def test_best_model_tie_goes_to_simplest():
    group = [fs("MT-HCCAR", 0.98, 0.001), fs("MT-CR", 0.98, 0.002)]
    assert one_se_rule(group, ORDER)[0].model == "MT-CR"


def test_one_se_picks_simpler_model_inside_region():
    group = [fs("MT-CR", 0.969, 0.0008), fs("MT-HCR", 0.984, 0.0007),
             fs("MT-HCCAR", 0.985, 0.0011)]
    # best 0.985 +- 0.0011 includes 0.984 but not 0.969
    assert one_se_rule(group, ORDER)[1].model == "MT-HCR"


def test_one_se_lower_better():
    group = [fs("MT-CR", 0.055, 0.003, metric="MSE", lower=True),
             fs("MT-HCR", 0.034, 0.0006, metric="MSE", lower=True),
             fs("MT-HCCAR", 0.027, 0.0005, metric="MSE", lower=True)]
    assert one_se_rule(group, ORDER)[1].model == "MT-HCCAR"


def test_one_se_quantum_widens_candidate_interval():
    group = [fs("MT-CR", 0.9845, 0.0), fs("MT-HCCAR", 0.9851, 0.0003)]
    assert one_se_rule(group, ORDER)[1].model == "MT-HCCAR"   # 0.9845 < 0.9848
    widened = [fs("MT-CR", 0.9845, 0.0, quantum=5e-4),
               fs("MT-HCCAR", 0.9851, 0.0003)]
    assert one_se_rule(widened, ORDER)[1].model == "MT-CR"   # within own quantum


def test_grid_with_a_repeated_row_is_refused():
    grid = [fs("MT-CR", 0.9, 0.01), fs("MT-CR", 0.8, 0.01)]
    with pytest.raises(ConfigError) as err:
        compute_selection(grid, ORDER)
    assert str(err.value) == "duplicate statistics for model 'MT-CR'"


# ------------------------------------------------------------ reference grid

def test_reference_grid_cell_winners():
    grid = reference_grid()
    scores = compute_selection(grid, ORDER)
    for (dataset, metric), winner in EXPECTED_WINNERS.items():
        group = [s for s in grid if s.dataset == dataset and s.metric == metric]
        assert one_se_rule(group, ORDER)[1].model == winner, (dataset, metric)
        for model in MODELS:
            expected = 1 if model == winner else 0
            assert scores.psi_cell[(model, dataset, metric)] == expected


def test_reference_grid_selection_totals():
    totals = compute_selection(reference_grid(), ORDER).p_1se_total
    assert totals == EXPECTED_P1SE


def test_reference_grid_acc_gap_block():
    """Accuracy-block relative gaps recomputed from the rounded means land
    within the published tolerance, and the per-cell values match the direct
    formula."""
    grid = [s for s in reference_grid() if s.metric == "ACC_bi"]
    scores = compute_selection(grid, ORDER)
    totals = scores.p_ab_total
    # spot check one cell against plain arithmetic
    assert scores.p_ab_cell[("MT-CR", "OCI", "ACC_bi")] == pytest.approx(
        100.0 * (0.969 - 0.985) / 0.985, rel=1e-12)
    assert totals["MT-HCCAR"] == 0.0
    deviation = np.mean([abs(totals[m] - PUBLISHED_ACC_GAPS[m]) for m in MODELS])
    assert deviation <= ACC_GAP_TOLERANCE_PP


def test_reference_grid_full_gap_signs():
    """Every non-best gap is negative in both directions of metric."""
    scores = compute_selection(reference_grid(), ORDER)
    for (model, dataset, metric), gap in scores.p_ab_cell.items():
        assert gap <= 0.0
        assert not (gap == 0.0 and math.copysign(1.0, gap) < 0)  # no -0.0


def test_metric_weights_scale_selection_totals():
    grid = reference_grid()
    weighted = compute_selection(grid, ORDER,
                                 weights={"ACC_bi": 2.0}).p_1se_total
    assert weighted["MT-HCR"] == EXPECTED_P1SE["MT-HCR"] + 3.0  # 3 ACC cells
    with pytest.raises(ConfigError):
        compute_selection(grid, ORDER, weights={"BLEU": 1.0})


def test_incomplete_grid_lists_missing_cells():
    grid = reference_grid()
    removed = grid.pop(0)   # MT-CR / OCI / ACC_bi
    with pytest.raises(ConfigError, match="MT-CR.*OCI.*ACC_bi"):
        compute_selection(grid, ORDER)
    del removed


def test_grid_requires_known_complexity():
    grid = reference_grid()
    with pytest.raises(ConfigError, match="complexity"):
        compute_selection(grid, ("MT-CR", "MT-HCR"))


# ------------------------------------------------------------ grid IO

def test_display_quantum_inference():
    assert display_quantum("0.985") == 5e-4
    assert display_quantum("0.06") == 5e-3
    assert display_quantum("3") == 0.5
    assert display_quantum("1.5e-3") == pytest.approx(5e-5)
    with pytest.raises(DataError):
        display_quantum("")


def test_summary_round_trip(tmp_path):
    grid = reference_grid()
    path = str(tmp_path / "grid.csv")
    write_summary_csv(path, grid)
    back = read_stats_grid(path)
    assert len(back) == len(grid)
    for a, b in zip(grid, back):
        assert (a.model, a.dataset, a.metric, a.lower_better) == \
            (b.model, b.dataset, b.metric, b.lower_better)
        assert a.mu == b.mu and a.se == b.se
        # the declared display resolution survives the round trip, even for
        # means like 0.030 whose repr would drop the trailing zero
        assert b.mu_quantum == a.mu_quantum


def test_fold_values_round_trip(tmp_path):
    rows = [("MT-CR", "ABI", "MSE", True, [0.05, 0.06, 0.07]),
            ("MT-HCR", "ABI", "MSE", True, [0.03, 0.04, 0.05])]
    path = str(tmp_path / "folds.csv")
    write_fold_values_csv(path, rows)
    back = read_stats_grid(path)
    assert back[0].mu == pytest.approx(0.06, rel=1e-15)
    assert back[0].k == 3
    assert back[0].mu_quantum == 0.0
    assert back[1].lower_better is True


def test_fold_values_ragged_rejected(tmp_path):
    rows = [("a", "d", "m", False, [0.1, 0.2]),
            ("b", "d", "m", False, [0.1])]
    with pytest.raises(DataError):
        write_fold_values_csv(str(tmp_path / "x.csv"), rows)


def test_read_grid_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("model,dataset,metric,direction,mu,se\n"
                 "m,d,ACC,upward,0.9,0.01\n")
    with pytest.raises(DataError, match="line 2"):
        read_stats_grid(str(p))
    p.write_text("who,what,when\n")
    with pytest.raises(DataError, match="header"):
        read_stats_grid(str(p))


@pytest.mark.parametrize("text", [
    "model,dataset,metric,direction,mu,se\nm,d,ACC,upward,0.9,0.01\n",
    "model,dataset,metric,direction,mu,se\nm,d,ACC,higher,0.9\n",
    "model,dataset,metric,direction,mu,se\nm,d,ACC,higher,high,0.01\n",
    "model,dataset,metric,direction,mu,se\nm,d,ACC,higher,nan,0.01\n",
    "model,dataset,metric,direction,fold_1,fold_2\nm,d,ACC,higher,0.9,x\n",
    "model,dataset,metric,direction,mu,se\nMT-CR,D,MSE,lower,0.5,-0.1\n",
    "model,dataset,metric,direction,fold_1\nMT-CR,D,MSE,lower,0.5\n",
    "model,dataset,metric,direction,mu,se\nMT-CR,D,MSE,lower,1e400,0.1\n",
    "model,dataset,metric,direction,mu,se\nMT-CR,D,MSE,lower,0e400,0.1\n",
], ids=["direction", "field_count", "mu_text", "non_finite", "fold_text",
        "negative_se", "one_fold", "huge_exponent", "huge_quantum"])
def test_read_grid_row_errors_name_the_file(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(DataError) as info:
        read_stats_grid(str(p))
    assert str(info.value).startswith(f"{p}: line 2: ")


def test_render_table_contains_all_cells():
    grid = reference_grid()
    scores = compute_selection(grid, ORDER)
    text = render_table(scores, grid)
    for metric in ("ACC_bi", "AUPRC_w", "MSE", "R2"):
        assert f"metric: {metric}" in text
    assert "totals" in text
    assert text.count("MT-HCCAR") == 13  # 12 cells + totals line


def test_malformed_exponent_is_refused():
    with pytest.raises(DataError) as err:
        display_quantum("1e")
    assert str(err.value) == "malformed exponent in '1e'"


def test_no_fold_rows_are_refused(tmp_path):
    path = tmp_path / "folds.csv"
    with pytest.raises(DataError) as err:
        write_fold_values_csv(str(path), [])
    assert str(err.value) == "no rows to write"
    assert not path.exists()


def test_summary_without_a_decimal_quantum_writes_repr(tmp_path):
    """A mean whose quantum is 0, or is not half a unit of a decimal place,
    is written by ``repr``; one of 0.0005 gets three decimals."""
    grid = [FoldStats("A", "D", "ACC", False, 0.25, 0.01, mu_quantum=q)
            for q in (0.0, 0.3, 5.0, 0.0005)]
    path = tmp_path / "grid.csv"
    write_summary_csv(str(path), grid)
    rows = path.read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["0.25", "0.25", "0.25", "0.250"]


def test_empty_grid_is_refused():
    with pytest.raises(ConfigError) as err:
        compute_selection([], ORDER)
    assert str(err.value) == "selection grid is empty"


def test_complexity_order_with_a_repeat_is_refused():
    order = ("MT-CR", "MT-HCR", "MT-CR", "MT-HCCAR")
    with pytest.raises(ConfigError) as err:
        compute_selection(reference_grid(), order)
    assert str(err.value) == f"complexity order contains duplicates: {order}"
