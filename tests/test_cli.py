"""Command-line workflows: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cloudmtl
from cloudmtl import cli, workflow
from cloudmtl.cli import main
from cloudmtl.data import SensorConfig, SplitPlan, generate_dataset, get_sensor, save_csv
from cloudmtl.engine import TrainConfig
from cloudmtl.errors import ConfigError
from cloudmtl.models import ArchitectureSpec, network
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


def test_gen_data_creates_the_parent_of_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "new" / "dir" / "d.csv"
    assert main(["gen-data", "--sensor", "ABI", "--n", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    assert out.is_file() and Path(f"{out}.config.json").is_file()
    monkeypatch.chdir(tmp_path)                    # a bare file name
    assert main(["gen-data", "--sensor", "ABI", "--n", "20", "--seed", "1",
                 "--out", "d.csv"]) == 0
    assert read_bytes(tmp_path / "d.csv") == read_bytes(out)


def test_missing_required_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--sensor", "ABI"])   # no --n/--out
    assert exc.value.code == 2


# ------------------------------------------------------------------ BLAS threads

def test_commands_run_at_one_blas_thread_and_restore_the_callers(
        tmp_path, monkeypatch, capsys):
    get, put = network._openblas()
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        seen = []

        def spy(real):
            def counted(*args, **kwargs):
                seen.append(get())
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(cli, "generate_dataset", spy(cli.generate_dataset))
        monkeypatch.setattr(cli, "load_csv", spy(cli.load_csv))
        assert main(["gen-data", "--sensor", "ABI", "--n", "50",
                     "--out", str(tmp_path / "abi.csv")]) == 0
        assert (seen, get()) == ([1], 2)
        assert main(["train", "--data", str(tmp_path / "missing.csv"),
                     "--outdir", str(tmp_path / "run")]) == 2
        assert (seen, get()) == ([1, 1], 2)
    finally:
        put(before)


def test_artifacts_do_not_depend_on_the_shells_blas_threads(tmp_path):
    # the OCI decoder's 243-wide products round by the BLAS thread count
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(cloudmtl.__file__).parents[1]), env.get("PYTHONPATH")]))
    commands = (["gen-data", "--sensor", "OCI", "--n", "1000", "--seed", "5",
                 "--out", "data.csv"],
                ["train", "--data", "data.csv", "--epochs", "1", "--seed", "0",
                 "--outdir", "run"])
    trees = {}
    for threads in (None, "1", "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        blas = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
        for argv in commands:
            subprocess.run([sys.executable, "-m", "cloudmtl.cli", *argv],
                           cwd=cwd, env={**env, **blas}, check=True,
                           capture_output=True, timeout=600)
        trees[threads] = {
            str(f.relative_to(cwd)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(cwd.rglob("*")) if f.is_file()}
    assert "run/checkpoint.json" in trees[None]
    assert trees["1"] == trees[None]
    assert trees["2"] == trees[None]


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
    return err


def _header_edited(src, dst, edit):
    """Copy pixel CSV ``src`` to ``dst`` with one band column or all of them
    renamed, or with no data rows; a quoted header name takes the reader off
    its fast path."""
    with open(src, encoding="utf-8") as f:
        header, *rows = f.read().split("\n")
    cells = header.split(",")
    bands = [i for i, c in enumerate(cells) if c.startswith("refl_")]
    if edit == "one-band":
        cells[bands[0]] = "refl_abc"
    elif edit == "all-bands":
        for i in bands:
            cells[i] = "band_" + cells[i][len("refl_"):]
    else:
        rows = [""]
        if edit == "quoted-header-only":
            cells[0] = f'"{cells[0]}"'
    dst.write_text("\n".join([",".join(cells), *rows]), encoding="utf-8")
    return str(dst)


#: header edits the pixel-CSV reader refuses: (edit, what the error says)
BAD_PIXEL_HEADERS = [
    ("one-band", "malformed band column 'refl_abc'"),
    ("all-bands", "reflectance columns missing or misnamed"),
    ("header-only", "no data rows"),
    ("quoted-header-only", "no data rows"),
]


@pytest.mark.parametrize("edit,says", BAD_PIXEL_HEADERS,
                         ids=[e for e, _ in BAD_PIXEL_HEADERS])
def test_train_bad_pixel_header_exits_2(tmp_path, data_csv, capsys, edit,
                                        says):
    data = _header_edited(data_csv, tmp_path / "bad.csv", edit)
    out = tmp_path / "x"
    assert main(["train", "--data", data, "--outdir", str(out), *FAST]) == 2
    assert capsys.readouterr().err == f"error: {data}: {says}\n"
    assert not out.exists()


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


def test_train_config_directory_exits_2(tmp_path, data_csv, capsys):
    config = tmp_path / "cfg_dir"
    config.mkdir()
    assert_input_error(capsys, ["train", "--data", data_csv, "--outdir",
                                str(tmp_path / "x"), "--config", str(config),
                                *FAST], str(config))
    assert not os.path.exists(tmp_path / "x")


#: --config files the reader refuses: (the file's text, None for no file;
#: what the error says)
UNREADABLE_CONFIGS = [
    (None, "cannot read "),
    ('{"train": ', ": invalid JSON ("),
    ("[1, 2]", ": top level must be a JSON object"),
]


@pytest.mark.parametrize("text,says", UNREADABLE_CONFIGS,
                         ids=["missing", "not-json", "not-an-object"])
def test_train_unreadable_config_exits_2(tmp_path, data_csv, capsys, text,
                                         says):
    config = tmp_path / "cfg.json"
    if text is not None:
        config.write_text(text)
    err = assert_input_error(capsys, ["train", "--data", data_csv, "--outdir",
                                      str(tmp_path / "x"), "--config",
                                      str(config), *FAST], str(config))
    assert says in err
    assert not os.path.exists(tmp_path / "x")


#: run commands refused before any training: (argv, all of stderr)
REFUSED_RUNS = [
    (["ablate", "--variants", ","], "error: empty variant list: ','\n"),
    (["train", "--train-frac", "0"],
     "error: split plan leaves the training set empty\n"),
]


@pytest.mark.parametrize("argv,stderr", REFUSED_RUNS,
                         ids=["empty-variant-list", "empty-training-set"])
def test_run_refused_before_training_exits_2(tmp_path, data_csv, capsys, argv,
                                             stderr):
    command, *flags = argv
    out = tmp_path / "x"
    assert main([command, "--data", data_csv, "--outdir", str(out), *FAST,
                 *flags]) == 2
    assert capsys.readouterr().err == stderr
    assert not out.exists()


def test_train_zero_epochs_writes_a_header_only_history(tmp_path, data_csv,
                                                        capsys):
    outdir = tmp_path / "run"
    assert main(["train", "--data", data_csv, "--variant", "MT-CR",
                 "--outdir", str(outdir), *FAST, "--epochs", "0"]) == 0
    out = capsys.readouterr().out
    assert "trained" not in out and "test: acc_bi=" in out
    assert (outdir / "history.csv").read_text().splitlines() == [
        "epoch,l_cmask,l_cphase,l_reg,l_caux,l_rec,l_lasso,total,val_total"]


@pytest.fixture(scope="module")
def clear_csv(tmp_path_factory):
    """Pixels that are all clear, on which no cloudy-pixel metric is
    defined."""
    path = str(tmp_path_factory.mktemp("clear") / "clear.csv")
    assert main(["gen-data", "--sensor", "ABI", "--n", "200", "--seed", "3",
                 "--priors", "1", "0", "0", "--out", path]) == 0
    return path


def test_kfold_stops_on_a_metric_undefined_on_a_fold(tmp_path, clear_csv,
                                                      capsys):
    assert main(["kfold", "--data", clear_csv, "--outdir", str(tmp_path / "kf"),
                 "--k", "2", "--variants", "MT-CR", *FAST,
                 "--epochs", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: fold 0 of MT-CR: metric mse_all is undefined on this fold\n")


def test_seq_on_clear_pixels_stops_at_the_phase_stage(tmp_path, clear_csv,
                                                      capsys):
    out = tmp_path / "seq"
    assert main(["train", "--data", clear_csv, "--variant", "SEQ",
                 "--outdir", str(out), *FAST, "--epochs", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: sequential stage phase_net has no training pixels\n")
    assert not out.exists()


def test_train_on_clear_pixels_writes_null_metrics(tmp_path, clear_csv,
                                                   capsys):
    outdir = tmp_path / "run"
    assert main(["train", "--data", clear_csv, "--variant", "MT-CR",
                 "--outdir", str(outdir), *FAST]) == 0
    assert "mse=n/a r2=n/a" in capsys.readouterr().out
    report = json.loads((outdir / "eval.json").read_text())
    assert report["n_cloudy"] == 0
    assert {k for k, v in report.items() if v is None} == {
        "auprc_cloudy", "auprc_liquid", "auprc_ice", "fmg_liquid", "fmg_ice",
        "mse_all", "mse_liquid", "mse_ice", "r2_all", "r2_liquid", "r2_ice"}


def test_train_invalid_lr_exits_2(tmp_path, data_csv, capsys):
    rc = main(["train", "--data", data_csv, "--outdir", str(tmp_path / "x"),
               "--lr", "-1", "--epochs", "1"])
    assert rc == 2


#: --config documents whose values have the wrong JSON type, and how the
#: error names the field (the temporary path already holds "train")
WRONG_TYPE_CONFIGS = [
    ({"architecture": 5}, "architecture must"),
    ({"architecture": {"encoder_widths": "abc"}}, "encoder_widths must"),
    ({"architecture": {"encoder_widths": [[1]]}}, "encoder_widths entry must"),
    ({"architecture": {"threshold": "0.5"}}, "threshold must"),
    ({"train": {"lr": "x"}}, "lr must"),
    ({"train": {"batch_size": "64"}}, "batch_size must"),
    ({"train": None}, "train must"),
    ({"split": {"train": "a"}}, "train fraction must"),
    ({"split": [1]}, "split must"),
]


@pytest.mark.parametrize("doc,field", WRONG_TYPE_CONFIGS,
                         ids=[json.dumps(d) for d, _ in WRONG_TYPE_CONFIGS])
def test_train_config_of_wrong_type_exits_2(tmp_path, data_csv, capsys, doc,
                                            field):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--data", data_csv, "--outdir", str(tmp_path / "x"),
                 "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(config) in err and field in err, err
    assert not os.path.exists(tmp_path / "x")


#: non-finite numbers on the command line or in a --config document (a dict
#: stands for one), and the field the error names
NON_FINITE_CASES = [
    (["gen-data", "--priors", "nan", "nan", "nan"], "priors"),
    (["gen-data", "--noise-sd", "nan"], "noise_sd"),
    (["train", "--lasso-lambda", "nan"], "lasso_lambda"),
    (["train", "--lasso-lambda", "inf"], "lasso_lambda"),
    (["train", "--clip-norm", "nan"], "clip_norm"),
    (["train", {"train": {"eps": float("nan")}}], "eps"),
    (["train", {"architecture": {"bins": [-1.5, float("nan"), 1.0, 2.5]}}],
     "bins entry"),
    (["select", "--weights", "ACC_bi=nan"], "'ACC_bi'"),
    (["select", "--weights", "ACC_bi=inf"], "'ACC_bi'"),
]


@pytest.mark.parametrize("argv,field", NON_FINITE_CASES,
                         ids=[" ".join(map(str, a)) for a, _ in NON_FINITE_CASES])
def test_non_finite_number_exits_2_naming_the_field(tmp_path, data_csv, capsys,
                                                    argv, field):
    command, *flags = argv
    out = str(tmp_path / "out")
    if command == "gen-data":
        base = ["gen-data", "--sensor", "ABI", "--n", "50", "--out", out]
    elif command == "train":
        base = ["train", "--data", data_csv, "--outdir", out, *FAST]
    else:
        grid = str(tmp_path / "grid.csv")
        write_summary_csv(grid, reference_grid())
        base = ["select", "--grid", grid, "--out", out]
    named = [field]
    if isinstance(flags[0], dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(flags[0]))  # NaN, as Python's json writes it
        flags = ["--config", str(config)]
        named.append(str(config))
    assert main(base + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in named), err
    assert not os.path.exists(out) and not os.path.exists(out + ".config.json")


#: negative seeds, integers too large for a float64 field and weights whose
#: totals overflow (a dict stands for a --config document): (id, argv, the
#: field the error names)
OUT_OF_RANGE_CASES = [
    ("train --seed -1", ["train", "--seed", "-1"], "seed"),
    ("ablate --seed -1", ["ablate", "--seed", "-1"], "seed"),
    ("kfold --seed -1", ["kfold", "--seed", "-1"], "seed"),
    ("train --split-seed -1", ["train", "--split-seed", "-1"], "split seed"),
    ("config train.seed -3", ["train", {"train": {"seed": -3}}], "seed"),
    ("gen-data --seed -1", ["gen-data", "--seed", "-1"], "seed"),
    ("config architecture.lasso_lambda 10**400",
     ["train", {"architecture": {"lasso_lambda": 10**400}}], "lasso_lambda"),
    ("config train.lr 10**400", ["train", {"train": {"lr": 10**400}}], "lr"),
    ("train --encoder-widths 10**20,4",
     ["train", "--encoder-widths", "100000000000000000000,4"], "encoder.0.w"),
    ("train --head-hidden 10**20",
     ["train", "--head-hidden", "100000000000000000000"], "mask_head.0.w"),
    ("train MLP --mlp-hidden 10**20",
     ["train", "--variant", "MLP-BASELINE", "--mlp-hidden",
      "100000000000000000000"], "hidden.w"),
    ("train --epochs 10**400", ["train", "--epochs", "1" + "0" * 400],
     "epochs"),
    ("select --weights 1e308 twice",
     ["select", "--weights", "ACC_bi=1e308,MSE=1e308"], "weights"),
]


@pytest.mark.parametrize("argv,field", [c[1:] for c in OUT_OF_RANGE_CASES],
                         ids=[c[0] for c in OUT_OF_RANGE_CASES])
def test_out_of_range_input_exits_2_naming_the_field(tmp_path, data_csv,
                                                     capsys, argv, field):
    command, *flags = argv
    out = str(tmp_path / "out")
    grid = str(tmp_path / "grid.csv")
    write_summary_csv(grid, reference_grid())
    base = {"gen-data": ["--sensor", "ABI", "--n", "50", "--out", out],
            "train": ["--data", data_csv, "--outdir", out],
            "ablate": ["--data", data_csv, "--outdir", out],
            "kfold": ["--data", data_csv, "--k", "2", "--outdir", out],
            "select": ["--grid", grid, "--out", out]}[command]
    named = [field]
    if isinstance(flags[0], dict):   # no FAST: its flags would win
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(flags[0]))
        flags = ["--config", str(config)]
        named.append(str(config))
    elif command in ("train", "ablate", "kfold"):
        base += FAST
    assert main([command, *base, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in named), err
    assert not os.path.exists(out) and not os.path.exists(out + ".config.json")


def test_kfold_config_checks_its_split_section(tmp_path, data_csv, capsys):
    """kfold uses no field of the split plan, but a malformed ``split``
    section fails it before any outdir exists, as it fails train."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"split": {"train": 7, "bogus": 1}}))
    for command, extra in (("train", []), ("kfold", ["--k", "2"])):
        out = str(tmp_path / command)
        assert main([command, "--data", data_csv, "--outdir", out, *extra,
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown split fields: ['bogus']" in err, err
        assert str(config) in err and not os.path.exists(out)


def test_malformed_width_flag_is_a_usage_error(tmp_path, data_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", data_csv, "--outdir", str(tmp_path / "x"),
              "--encoder-widths", "8,x"])
    assert exc.value.code == 2
    assert "--encoder-widths: expects comma-separated integers" in \
        capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


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


def test_ablate_empty_test_split_exits_2_before_training(tmp_path, data_csv,
                                                         capsys):
    out = tmp_path / "x"
    rc = main(["ablate", "--data", data_csv, "--variants", "MT-CR,SEQ",
               "--test-frac", "0", "--outdir", str(out), *FAST])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("error: ")
    assert "test split" in err[0] and not os.path.exists(out)


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


GRID_HEAD = "model,dataset,metric,direction"

#: grids and --complexity orders that select refuses: (grid text, extra
#: flags, all of stderr with {path} for the grid file)
BAD_SELECTIONS = {
    "mixed-directions": (
        f"{GRID_HEAD},mu,se\nMT-CR,D,MSE,lower,0.5,0.01\n"
        "MT-HCR,D,MSE,higher,0.4,0.01\n", [],
        "error: {path}: metric 'MSE' has inconsistent direction flags\n"),
    "zero-best-mean": (
        f"{GRID_HEAD},mu,se\nMT-CR,D,ACC,higher,0,0.01\n"
        "MT-HCR,D,ACC,higher,0,0.01\n", [],
        "error: {path}: relative gap undefined: best mean is 0 in cell "
        "(D, ACC)\n"),
    "duplicate-row": (
        f"{GRID_HEAD},mu,se\nMT-CR,D,ACC,higher,0.5,0.01\n"
        "MT-CR,D,ACC,higher,0.4,0.01\n", [],
        "error: {path}: duplicate statistics for model 'MT-CR'\n"),
    "incomplete": (
        f"{GRID_HEAD},mu,se\nMT-CR,D,ACC,higher,0.5,0.01\n"
        "MT-HCR,D,MSE,lower,0.4,0.01\n", [],
        "error: {path}: incomplete grid; missing (model, dataset, metric) "
        "cells: [('MT-HCR', 'D', 'ACC'), ('MT-CR', 'D', 'MSE')]\n"),
    # refused before the grid, which is not a grid at all, is read
    "duplicate-complexity": (
        "not a grid\n", ["--complexity", "MT-CR,MT-CR,MT-HCR"],
        "error: --complexity names a model twice: "
        "['MT-CR', 'MT-CR', 'MT-HCR']\n"),
    "unknown-tail": (
        f"{GRID_HEAD},mean,se\nMT-CR,D,ACC,higher,0.5,0.01\n", [],
        "error: {path}: header tail must be mu,se or fold_1..fold_K, "
        "got ['mean', 'se']\n"),
    "one-fold": (
        f"{GRID_HEAD},fold_1\nMT-CR,D,ACC,higher,0.5\n", [],
        "error: {path}: line 2: need at least 2 fold values for "
        "(MT-CR, D, ACC), got shape (1,)\n"),
    "nan-fold": (
        f"{GRID_HEAD},fold_1,fold_2\nMT-CR,D,ACC,higher,0.5,nan\n", [],
        "error: {path}: line 2: non-finite fold value for (MT-CR, D, ACC)\n"),
}


@pytest.mark.parametrize("case", BAD_SELECTIONS)
def test_select_refused_grid_exits_2(tmp_path, capsys, case):
    text, flags, stderr = BAD_SELECTIONS[case]
    grid_path, out = tmp_path / "grid.csv", tmp_path / "o"
    grid_path.write_text(text, encoding="utf-8")
    assert main(["select", "--grid", str(grid_path), "--out", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err == stderr.format(path=grid_path)
    assert not out.exists()


def test_select_missing_grid_exits_2(tmp_path, capsys):
    rc = main(["select", "--grid", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


# ------------------------------------------------------------------ workflow

@pytest.mark.parametrize("run", ["ablation", "kfold"])
@pytest.mark.parametrize("variants", [
    [], [("MT-CR", 16), ("MT-CR", 16)], [("MT-CR", 16), ("MT-HCR", 17)]],
    ids=["empty", "duplicate", "wrong-width"])
def test_variant_list_checked_before_any_training(tmp_path, run, variants):
    # ABI data has 16 features; nothing is trained or written on a bad list
    ds = generate_dataset(get_sensor("ABI"), 200, seed=30)
    specs = [ArchitectureSpec(variant=v, input_dim=d, encoder_widths=(8, 4),
                              head_hidden=(4,)) for v, d in variants]
    cfg, out = TrainConfig(lr=1e-3, epochs=1, batch_size=64, seed=0), tmp_path / "x"
    with pytest.raises(ConfigError):
        if run == "ablation":
            workflow.run_ablation(ds, specs, cfg, SplitPlan(), outdir=str(out))
        else:
            workflow.run_kfold(ds, specs, cfg, 4, outdir=str(out))
    assert not (out / "MT-CR").exists() and not out.exists()


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
