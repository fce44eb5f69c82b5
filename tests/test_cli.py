"""Command-line workflows: artifacts, determinism, exit codes."""

import json
import os

import numpy as np
import pytest

from cloudmtl import workflow
from cloudmtl.cli import main
from cloudmtl.data import SensorConfig, SplitPlan, generate_dataset, get_sensor, save_csv
from cloudmtl.engine import TrainConfig
from cloudmtl.models import ArchitectureSpec
from cloudmtl.selection import write_summary_csv

from reference_grid import EXPECTED_P1SE, reference_grid

FAST = ["--encoder-widths", "8,4", "--head-hidden", "4",
        "--lr", "0.001", "--epochs", "2", "--batch-size", "128", "--seed", "0"]


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "abi.csv")
    rc = main(["gen-data", "--sensor", "ABI", "--n", "400",
               "--seed", "5", "--out", path])
    assert rc == 0
    return path


# ------------------------------------------------------------------ gen-data

def test_gen_data_writes_csv_and_sidecar(data_csv, capsys):
    assert os.path.exists(data_csv)
    sidecar = json.loads(open(data_csv + ".config.json").read())
    assert sidecar["sensor"] == "ABI"
    assert sidecar["n"] == 400
    assert sidecar["bands"] == 6
    assert sidecar["feature_dim"] == 16


def test_gen_data_byte_identical(tmp_path, data_csv):
    again = str(tmp_path / "again.csv")
    assert main(["gen-data", "--sensor", "ABI", "--n", "400",
                 "--seed", "5", "--out", again]) == 0
    assert read_bytes(again) == read_bytes(data_csv)
    assert read_bytes(again + ".config.json") == \
        read_bytes(data_csv + ".config.json")


def test_gen_data_unknown_sensor_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--sensor", "XYZ", "--n", "10",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "XYZ" in err and "error:" in err


def test_missing_required_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--sensor", "ABI"])   # no --n/--out
    assert exc.value.code == 2


# ------------------------------------------------------------------ train

def test_train_writes_artifacts_and_reloads(tmp_path, data_csv, capsys):
    outdir = str(tmp_path / "run")
    rc = main(["train", "--data", data_csv, "--variant", "MT-HCCAR",
               "--outdir", outdir, "--dump-scatter", *FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "test: acc_bi=" in out
    for name in ("config.json", "checkpoint.json", "history.csv",
                 "eval.json", "scatter.csv"):
        assert os.path.exists(os.path.join(outdir, name)), name

    cfg = json.loads(open(os.path.join(outdir, "config.json")).read())
    assert cfg["sensor"] == "ABI"
    assert cfg["architecture"]["variant"] == "MT-HCCAR"
    assert cfg["train"]["epochs"] == 2

    # checkpoint reload reproduces the recorded evaluation exactly
    model, standardizer, _ = workflow.load_trained(
        os.path.join(outdir, "checkpoint.json"))
    from cloudmtl.data import load_csv
    ds = load_csv(data_csv)
    plan = SplitPlan()
    from cloudmtl.data import split_indices
    _, _, test_idx = split_indices(len(ds), plan)
    _, report = workflow.evaluate_model(model, standardizer,
                                        ds.subset(test_idx))
    recorded = json.loads(open(os.path.join(outdir, "eval.json")).read())
    assert report.to_dict() == recorded


def test_train_byte_identical_across_runs(tmp_path, data_csv, capsys):
    dirs = [str(tmp_path / f"run{i}") for i in (1, 2)]
    for d in dirs:
        assert main(["train", "--data", data_csv, "--variant", "MT-HCR",
                     "--outdir", d, *FAST]) == 0
    capsys.readouterr()
    for name in ("config.json", "checkpoint.json", "history.csv", "eval.json"):
        a = read_bytes(os.path.join(dirs[0], name))
        b = read_bytes(os.path.join(dirs[1], name))
        assert a == b, name


def test_train_sensor_cross_check_fails(tmp_path, data_csv, capsys):
    rc = main(["train", "--data", data_csv, "--sensor", "VIIRS",
               "--outdir", str(tmp_path / "x"), *FAST])
    assert rc == 2


def test_train_records_file_sensor_for_unregistered_band_centers(
        tmp_path, capsys):
    # six bands, as ABI has, but at centers no registered sensor uses
    sensor = SensorConfig("CUSTOM", (470.0, 640.0, 860.0, 1370.0, 1600.0, 2200.0))
    data = str(tmp_path / "custom.csv")
    save_csv(generate_dataset(sensor, 200, seed=31), data)
    outdir = str(tmp_path / "run")
    assert main(["train", "--data", data, "--variant", "MT-CR",
                 "--outdir", outdir, *FAST]) == 0
    cfg = json.loads(open(os.path.join(outdir, "config.json")).read())
    assert cfg["sensor"] == "FILE"


def test_train_non_utf8_data_exits_2(tmp_path, capsys):
    data = tmp_path / "bin.csv"
    data.write_bytes(b"\xff\xfe")
    rc = main(["train", "--data", str(data), "--outdir", str(tmp_path / "x"),
               *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data) in err
    assert not os.path.exists(tmp_path / "x")


def _edited_copy(src, dst, line_no, col, text):
    """Copy CSV ``src`` to ``dst`` with cell ``col`` of 1-based ``line_no``
    replaced by ``text``."""
    with open(src, encoding="utf-8") as f:
        lines = f.read().split("\n")
    cells = lines[line_no - 1].split(",")
    cells[col] = text
    lines[line_no - 1] = ",".join(cells)
    dst.write_text("\n".join(lines), encoding="utf-8")
    return str(dst)


def assert_input_error(capsys, argv, path, line=None):
    """``argv`` exits 2 with one error line naming ``path`` (and ``line``)."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert path in err
    if line is not None:
        assert f"line {line}:" in err


# A field over the csv module's 131,072-character limit
HUGE_CELL = "0." + "0" * 140_000 + "5"


def test_train_oversized_field_exits_2(tmp_path, data_csv, capsys):
    data = _edited_copy(data_csv, tmp_path / "huge.csv", 4, 9, HUGE_CELL)
    assert_input_error(capsys, ["train", "--data", data, "--outdir",
                                str(tmp_path / "x"), *FAST], data, line=4)


def test_train_pixel_id_beyond_int64_exits_2(tmp_path, data_csv, capsys):
    data = _edited_copy(data_csv, tmp_path / "big_id.csv", 3, 0,
                        "99999999999999999999")
    assert_input_error(capsys, ["train", "--data", data, "--outdir",
                                str(tmp_path / "x"), *FAST], data, line=3)


def test_train_non_utf8_config_exits_2(tmp_path, data_csv, capsys):
    config = tmp_path / "cfg.json"
    config.write_bytes(b'{"train": {"lr": "\xff"}}')
    assert_input_error(capsys, ["train", "--data", data_csv, "--outdir",
                                str(tmp_path / "x"), "--config", str(config),
                                *FAST], str(config))


def test_train_invalid_lr_exits_2(tmp_path, data_csv, capsys):
    rc = main(["train", "--data", data_csv, "--outdir", str(tmp_path / "x"),
               "--lr", "-1", "--epochs", "1"])
    assert rc == 2


def test_train_config_file_and_flag_override(tmp_path, data_csv, capsys):
    cfg_path = str(tmp_path / "exp.json")
    with open(cfg_path, "w") as f:
        json.dump({"architecture": {"encoder_widths": [8, 4],
                                    "head_hidden": [4]},
                   "train": {"lr": 0.001, "epochs": 5, "batch_size": 128,
                             "seed": 0}}, f)
    outdir = str(tmp_path / "run")
    rc = main(["train", "--data", data_csv, "--variant", "MT-CR",
               "--outdir", outdir, "--config", cfg_path, "--epochs", "1"])
    assert rc == 0
    cfg = json.loads(open(os.path.join(outdir, "config.json")).read())
    assert cfg["train"]["epochs"] == 1          # flag wins
    assert cfg["train"]["lr"] == 0.001          # file fills the rest
    assert cfg["architecture"]["encoder_widths"] == [8, 4]


def test_seq_training_writes_stage_histories(tmp_path, data_csv, capsys):
    outdir = str(tmp_path / "seq")
    assert main(["train", "--data", data_csv, "--variant", "SEQ",
                 "--outdir", outdir, *FAST]) == 0
    for net in ("mask_net", "phase_net", "cot_net"):
        assert os.path.exists(os.path.join(outdir, f"history_{net}.csv"))


# ------------------------------------------------------------------ ablate

def test_ablate_table_and_manifest(tmp_path, data_csv, capsys):
    outdir = str(tmp_path / "ablation")
    rc = main(["ablate", "--data", data_csv,
               "--variants", "MT-CR,MT-HCR,MT-HCCR,MT-HCCAR",
               "--outdir", outdir, *FAST])
    assert rc == 0
    table = open(os.path.join(outdir, "ablation.csv")).read().splitlines()
    assert table[0].startswith("variant,param_count,acc_bi")
    assert len(table) == 5
    manifest = json.loads(open(os.path.join(outdir, "manifest.json")).read())
    counts = [manifest[v]["param_count"]
              for v in ("MT-CR", "MT-HCR", "MT-HCCR", "MT-HCCAR")]
    assert counts == sorted(counts) and len(set(counts)) == 4
    for v in ("MT-CR", "MT-HCCAR"):
        assert os.path.exists(os.path.join(outdir, v, "eval.json"))


def test_ablate_duplicate_variant_exits_2(tmp_path, data_csv, capsys):
    rc = main(["ablate", "--data", data_csv, "--variants", "MT-CR,MT-CR",
               "--outdir", str(tmp_path / "x"), *FAST])
    assert rc == 2


# ------------------------------------------------------------------ kfold + select

def test_kfold_then_select_pipeline(tmp_path, data_csv, capsys):
    kdir = str(tmp_path / "kfold")
    rc = main(["kfold", "--data", data_csv, "--variants", "MT-CR,MT-HCR",
               "--k", "3", "--outdir", kdir, *FAST])
    assert rc == 0
    grid_path = os.path.join(kdir, "fold_values.csv")
    assert os.path.exists(grid_path)
    header = open(grid_path).readline().strip()
    assert header == "model,dataset,metric,direction,fold_1,fold_2,fold_3"
    for v in ("MT-CR", "MT-HCR"):
        for i in range(3):
            assert os.path.exists(os.path.join(kdir, f"eval_{v}_fold{i}.json"))

    sdir = str(tmp_path / "sel")
    rc = main(["select", "--grid", grid_path, "--out", sdir,
               "--complexity", "MT-CR,MT-HCR"])
    assert rc == 0
    capsys.readouterr()
    scores = json.loads(open(os.path.join(sdir, "scores.json")).read())
    assert set(scores["p_1se_total"]) == {"MT-CR", "MT-HCR"}
    assert sum(scores["p_1se_total"].values()) == 4.0   # 4 metric cells
    assert os.path.exists(os.path.join(sdir, "table.txt"))


def test_select_on_reference_grid(tmp_path, capsys):
    grid_path = str(tmp_path / "grid.csv")
    write_summary_csv(grid_path, reference_grid())
    sdir = str(tmp_path / "out")
    rc = main(["select", "--grid", grid_path, "--out", sdir,
               "--complexity", "MT-CR,MT-HCR,MT-HCCR,MT-HCCAR"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "totals" in out
    scores = json.loads(open(os.path.join(sdir, "scores.json")).read())
    assert scores["p_1se_total"] == EXPECTED_P1SE


def test_select_deterministic(tmp_path, capsys):
    grid_path = str(tmp_path / "grid.csv")
    write_summary_csv(grid_path, reference_grid())
    outs = [str(tmp_path / f"o{i}") for i in (1, 2)]
    for o in outs:
        assert main(["select", "--grid", grid_path, "--out", o,
                     "--complexity", "MT-CR,MT-HCR,MT-HCCR,MT-HCCAR"]) == 0
    capsys.readouterr()
    for name in ("scores.json", "table.txt"):
        assert read_bytes(os.path.join(outs[0], name)) == \
            read_bytes(os.path.join(outs[1], name))


def test_select_bad_weights_exit_2(tmp_path, capsys):
    grid_path = str(tmp_path / "grid.csv")
    write_summary_csv(grid_path, reference_grid())
    rc = main(["select", "--grid", grid_path, "--out", str(tmp_path / "o"),
               "--weights", "ACC_bi"])
    assert rc == 2
    rc = main(["select", "--grid", grid_path, "--out", str(tmp_path / "o"),
               "--weights", "ACC_bi=fast"])
    assert rc == 2


def test_select_non_utf8_grid_exits_2(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    write_summary_csv(str(grid_path), reference_grid())
    grid_path.write_bytes(grid_path.read_bytes().replace(b"MT-CR", b"MT-\xffCR", 1))
    assert_input_error(capsys, ["select", "--grid", str(grid_path),
                                "--out", str(tmp_path / "o")], str(grid_path))


def test_select_oversized_grid_field_exits_2(tmp_path, capsys):
    grid_path = str(tmp_path / "grid.csv")
    write_summary_csv(grid_path, reference_grid())
    edited = _edited_copy(grid_path, tmp_path / "huge.csv", 3, 5, HUGE_CELL)
    assert_input_error(capsys, ["select", "--grid", edited,
                                "--out", str(tmp_path / "o")], edited, line=3)


def test_select_missing_grid_exits_2(tmp_path, capsys):
    rc = main(["select", "--grid", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


# ------------------------------------------------------------------ workflow

def test_kfold_rows_have_identical_partition():
    """Both variants must be scored on the same folds: their per-fold
    reports pair up over the identical pixel subsets."""
    ds = generate_dataset(get_sensor("ABI"), 200, seed=30)
    specs = [ArchitectureSpec(variant=v, input_dim=ds.feature_dim,
                              encoder_widths=(8, 4), head_hidden=(4,))
             for v in ("MT-CR", "MT-HCR")]
    cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=64, seed=0)
    res = workflow.run_kfold(ds, specs, cfg, 4)
    assert len(res.reports) == 8
    for i in range(4):
        assert res.reports[("MT-CR", i)].n_pixels == \
            res.reports[("MT-HCR", i)].n_pixels
    assert sum(res.reports[("MT-CR", i)].n_pixels for i in range(4)) == 200
    metrics = {r[2] for r in res.fold_rows}
    assert metrics == {"ACC_bi", "AUPRC_w", "MSE", "R2"}
    assert all(len(r[4]) == 4 for r in res.fold_rows)
