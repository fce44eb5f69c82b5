"""Parameter store registration, init determinism, and checkpoint files."""

import json
import os

import numpy as np
import pytest

import cloudmtl.engine as E
from cloudmtl import workflow
from cloudmtl.cli import main
from cloudmtl.engine import (
    ParamStore, dumps_deterministic, glorot_uniform, load_checkpoint,
    save_checkpoint,
)
from cloudmtl.engine import params as params_module
from cloudmtl.errors import ConfigError, DataError, NumericError, StateError
from cloudmtl.models import VARIANTS, ArchitectureSpec, build_model
from cloudmtl.models.losses import lasso_penalty


def test_duplicate_name_rejected():
    ps = ParamStore()
    ps.add("w", np.zeros(2))
    with pytest.raises(StateError):
        ps.add("w", np.zeros(2))


def test_unknown_name_rejected():
    ps = ParamStore()
    with pytest.raises(StateError):
        ps["missing"]


def test_add_dense_registers_weight_and_bias():
    rng = np.random.default_rng(0)
    ps = ParamStore()
    ps.add_dense("layer", rng, 4, 3)
    w, b = ps["layer.w"], ps["layer.b"]
    assert w.value.shape == (4, 3)
    assert b.value.shape == (3,)
    assert np.array_equal(b.value, np.zeros(3))
    assert ps.param_count() == 4 * 3 + 3


def test_bias_excluded_from_weight_tensors():
    rng = np.random.default_rng(0)
    ps = ParamStore()
    ps.add_dense("layer", rng, 4, 3)
    names = {t.name for t in ps.weight_tensors()}
    assert "layer.w" in names
    assert "layer.b" not in names


def test_add_weight_checks_the_store_size_before_drawing(monkeypatch):
    monkeypatch.setattr(params_module, "MAX_PARAMS", 20)
    rng = np.random.default_rng(0)
    ps = ParamStore()
    ps.add_weight("a", rng, 4, 5)                  # exactly at the bound
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="^b \\(1 x 1\\) .*MAX_PARAMS = 20"):
        ps.add_weight("b", rng, 1, 1)
    assert ps.names() == ["a"] and rng.bit_generator.state == state


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_roles_follow_shape(tmp_path, variant):
    """In every variant the 1-D parameters are exactly the dense biases: the
    checkpoint flags them, and the lasso reads the 2-D parameters alone."""
    spec = ArchitectureSpec(variant=variant, input_dim=6, encoder_widths=(5, 4),
                            head_hidden=(3,))
    ps = build_model(spec, seed=0).params
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, ps)
    entries = json.loads(open(path).read())["parameters"]
    assert [e["bias"] for e in entries] == [e["ndim"] == 1 for e in entries]
    assert ({e["name"] for e in entries if e["bias"]}
            == {n for n in ps.names() if n.endswith(".b")})
    weights = [t for t in ps.tensors() if t.value.ndim == 2]
    assert list(map(id, ps.weight_tensors())) == list(map(id, weights))
    ps.zero_grads()
    E.backward(lasso_penalty(ps, 1.0))
    for name, t in ps.items():
        expected = np.sign(t.value) if t.value.ndim == 2 else np.zeros_like(t.value)
        assert np.array_equal(t.grad, expected), name


def test_glorot_bounds_and_determinism():
    a = glorot_uniform(np.random.default_rng(7), 64, 32)
    b = glorot_uniform(np.random.default_rng(7), 64, 32)
    assert np.array_equal(a, b)
    limit = np.sqrt(6.0 / (64 + 32))
    assert np.all(np.abs(a) <= limit)
    assert a.shape == (64, 32)


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    ps = ParamStore()
    ps.add_dense("enc", rng, 5, 4)
    ps.add("scale", rng.normal(size=(3,)))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, ps, architecture={"variant": "X"},
                    config={"lr": 1e-5}, extras={"note": "t"})
    doc = load_checkpoint(path)
    assert doc["architecture"] == {"variant": "X"}
    assert doc["config"] == {"lr": 1e-5}
    assert doc["extras"] == {"note": "t"}
    for name in ("enc.w", "enc.b", "scale"):
        assert np.array_equal(doc["values"][name], ps[name].value), name


def test_checkpoint_file_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    ps = ParamStore()
    ps.add_dense("enc", rng, 3, 2)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(p1, ps, architecture={}, config={}, extras={})
    save_checkpoint(p2, ps, architecture={}, config={}, extras={})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_glorot_refuses_a_zero_fan():
    with pytest.raises(ConfigError) as err:
        glorot_uniform(np.random.default_rng(0), 0, 3)
    assert str(err.value) == "fan_in/fan_out must be positive, got 0, 3"


def test_checkpoint_refuses_what_it_cannot_write(tmp_path):
    with pytest.raises(DataError) as err:
        dumps_deterministic({"a": [object()]})
    assert str(err.value) == "cannot serialize object of type object"
    ps = ParamStore()
    ps.add("cube", np.zeros((2, 2, 2)))
    path = tmp_path / "ckpt.json"
    with pytest.raises(DataError) as err:
        save_checkpoint(str(path), ps)
    assert str(err.value) == ("checkpoint supports 1-D and 2-D parameters, "
                              "'cube' has shape (2, 2, 2)")
    assert not path.exists()


def test_checkpoint_rejects_non_finite(tmp_path):
    ps = ParamStore()
    ps.add("w", np.array([1.0, np.inf]))
    with pytest.raises(NumericError):
        save_checkpoint(str(tmp_path / "bad.json"), ps,
                        architecture={}, config={}, extras={})


def test_load_values_validates_names_and_shapes():
    rng = np.random.default_rng(3)
    ps = ParamStore()
    ps.add_dense("enc", rng, 3, 2)
    good = ps.clone_values()
    with pytest.raises(StateError):
        ps.load_values({k: v for k, v in good.items() if k != "enc.b"})
    bad = dict(good)
    bad["enc.w"] = np.zeros((2, 3))
    with pytest.raises(StateError):
        ps.load_values(bad)
    ps.load_values(good)  # unchanged set loads fine


def test_alias_shares_tensors():
    rng = np.random.default_rng(4)
    sub = ParamStore()
    sub.add_dense("layer", rng, 3, 2)
    merged = ParamStore()
    merged.add("own", np.ones((1, 2)))
    merged.alias("net", sub)
    assert merged.names() == ["own", "net.layer.w", "net.layer.b"]
    assert merged["net.layer.w"] is sub["layer.w"]
    assert merged["net.layer.b"] is sub["layer.b"]
    # the merged store's weights are its 2-D tensors: the bias is skipped
    assert [t.name for t in merged.weight_tensors()] == ["own", "layer.w"]


def test_alias_rejects_a_duplicate_full_name():
    sub = ParamStore()
    sub.add("a", np.zeros(1))
    sub.add("w", np.zeros(1))
    merged = ParamStore()
    merged.add("net.w", np.zeros(1))
    with pytest.raises(StateError, match="net.w"):
        merged.alias("net", sub)
    assert merged.names() == ["net.w"]  # nothing half-registered


# ------------------------------------------------------- malformed checkpoints

def _set_value(i, value):
    def edit(doc):
        doc["parameters"][0]["values"][i] = value
    return edit


def _set_entry(key, value):
    def edit(doc):
        doc["parameters"][0][key] = value
    return edit


def _convert_entry(key, convert):
    def edit(doc):
        entry = doc["parameters"][0]
        entry[key] = convert(entry[key])
    return edit


def _ragged(doc):
    entry = doc["parameters"][0]
    entry["values"] = [entry["values"][:3], entry["values"][3:4]]


def _set(section, key, value):
    def edit(doc):
        if key is None:
            doc[section] = value
        else:
            doc[section][key] = value
    return edit


def _short_mean(doc):
    doc["extras"]["standardizer"]["mean"] = [0.0]


#: (case, edit of the checkpoint document, names the parameter)
MALFORMED = [
    ("values not a list", _set_entry("values", "abc"), True),
    ("ragged values", _ragged, True),
    ("rows not a number", _set_entry("rows", "x"), True),
    # shape fields must be JSON integers, not truncated floats or bools
    ("rows 1e400", _set_entry("rows", "BIG"), True),
    ("rows a numeric string", _convert_entry("rows", str), True),
    ("rows a whole float", _convert_entry("rows", float), True),
    ("rows true", _set_entry("rows", True), True),
    ("cols 1.5", _set_entry("cols", 1.5), True),
    ("ndim 2.0", _set_entry("ndim", 2.0), True),
    ("zero cols of 2**70 rows",
     lambda doc: doc["parameters"][0].update(rows=2**70, cols=0, values=[]),
     True),
    ("seed not a number", _set("config", "seed", "a"), False),
    ("entry not an object", lambda doc: doc["parameters"].__setitem__(0, 5),
     False),
    ("architecture null", _set("architecture", None, None), False),
    ("null value", _set_value(1, None), True),
    ("value 1e400", _set_value(2, "BIG"), True),
    ("ndim 1 for a matrix", _set_entry("ndim", 1), True),
    ("ndim 3", _set_entry("ndim", 3), True),
    ("standardizer mean too short", _short_mean, False),
    ("seed negative", _set("config", "seed", -2), False),
    ("architecture lacks variant",
     lambda doc: doc["architecture"].pop("variant"), False),
    ("architecture lacks input_dim",
     lambda doc: doc["architecture"].pop("input_dim"), False),
]


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    """The JSON document of a checkpoint that ``cloudmtl train`` wrote."""
    tmp = tmp_path_factory.mktemp("ckpt")
    data, outdir = str(tmp / "abi.csv"), str(tmp / "run")
    assert main(["gen-data", "--sensor", "ABI", "--n", "200", "--seed", "4",
                 "--out", data]) == 0
    assert main(["train", "--data", data, "--variant", "MT-HCCAR",
                 "--outdir", outdir, "--encoder-widths", "8,4",
                 "--head-hidden", "4", "--epochs", "1", "--seed", "1"]) == 0
    path = os.path.join(outdir, "checkpoint.json")
    workflow.load_trained(path)          # the unedited file loads
    with open(path) as f:
        return json.load(f)


def _load_error(path) -> str:
    """The message of the DataError that ``load_trained(path)`` raises; it
    names ``path``."""
    with pytest.raises(DataError) as err:
        workflow.load_trained(str(path))
    assert str(path) in str(err.value)
    return str(err.value)


@pytest.mark.parametrize("case,edit,names_param", MALFORMED,
                         ids=[c[0] for c in MALFORMED])
def test_load_trained_rejects_malformed_checkpoint(tmp_path, checkpoint_doc,
                                                   case, edit, names_param):
    doc = json.loads(json.dumps(checkpoint_doc))
    param = doc["parameters"][0]["name"]
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
    message = _load_error(path)
    if names_param:
        assert repr(param) in message


def _standardizer(edit):
    return lambda doc: edit(doc["extras"]["standardizer"])


#: (case, edit of the checkpoint document, what the error says)
MALFORMED_DOCUMENT = [
    ("format_version 2", _set("format_version", None, 2),
     "unsupported or missing format_version 2"),
    ("parameters not a list", _set("parameters", None, {}),
     "parameters must be a list"),
    ("entry without cols", lambda doc: doc["parameters"][0].pop("cols"),
     "parameter entry missing 'cols'"),
    ("name not a string", _set_entry("name", 7),
     "parameter 7: name must be a string"),
    ("extras not an object", _set("extras", None, [1]),
     "checkpoint extras must be an object"),
    ("no standardizer", lambda doc: doc["extras"].pop("standardizer"),
     "checkpoint lacks standardizer statistics"),
    ("standardizer without scale", _standardizer(lambda d: d.pop("scale")),
     "standardizer must hold mean and scale"),
    ("mean not numbers", _standardizer(lambda d: d.update(mean=["a"] * 16)),
     "standardizer: could not convert string to float: 'a'"),
    ("zero scale", _standardizer(lambda d: d["scale"].__setitem__(3, 0.0)),
     "standardizer scale must be positive"),
    ("infinite scale",
     _standardizer(lambda d: d["scale"].__setitem__(3, "BIG")),
     "standardizer mean and scale must be equal-length finite lists, got "
     "shapes (16,), (16,)"),
    ("mean a matrix", _standardizer(lambda d: d.update(mean=[d["mean"]])),
     "standardizer mean and scale must be equal-length finite lists, got "
     "shapes (1, 16), (16,)"),
    ("standardizer too wide", _standardizer(lambda d: d.update(
        mean=d["mean"] * 2, scale=d["scale"] * 2)),
     "standardizer holds 32 features, the architecture 16"),
    ("parameter twice",
     lambda doc: doc["parameters"].append({**doc["parameters"][0], "values": [
         9.0] * len(doc["parameters"][0]["values"])}),
     "parameter 'encoder.0.w' appears twice"),
]


@pytest.mark.parametrize("case,edit,says", MALFORMED_DOCUMENT,
                         ids=[c[0] for c in MALFORMED_DOCUMENT])
def test_load_trained_says_what_is_wrong(tmp_path, checkpoint_doc, case, edit,
                                         says):
    doc = json.loads(json.dumps(checkpoint_doc))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
    assert says in _load_error(path)


def test_load_trained_rejects_a_missing_or_non_json_file(tmp_path):
    path = tmp_path / "checkpoint.json"
    assert _load_error(path) == f"cannot read {path}: No such file or directory"
    path.write_text('{"format_version": 1,')
    assert _load_error(path) == (
        f"{path}: invalid JSON (Expecting property name enclosed in double "
        "quotes: line 1 column 22 (char 21))")


def test_load_trained_rejects_non_utf8_checkpoint(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format_version": 1, "parameters": ["\xff"]}')
    assert _load_error(path) == f"{path}: not UTF-8 text (invalid start byte)"


#: files that hold no JSON object: (case, how to make one at a path, the
#: whole message, with {path} for it)
NOT_AN_OBJECT = [
    ("directory", lambda p: p.mkdir(), "cannot read {path}: Is a directory"),
    ("a list", lambda p: p.write_text("[1, 2]"),
     "{path}: top level must be a JSON object"),
    ("an integer too long", lambda p: p.write_text("1" * 5000),
     "{path}: invalid JSON (Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use "
     "sys.set_int_max_str_digits() to increase the limit)"),
    ("nested too deep", lambda p: p.write_text("[" * 100_000),
     "{path}: invalid JSON (maximum recursion depth exceeded while decoding "
     "a JSON array from a unicode string)"),
]


@pytest.mark.parametrize("case,make,says", NOT_AN_OBJECT,
                         ids=[c[0] for c in NOT_AN_OBJECT])
def test_load_trained_rejects_a_file_without_a_json_object(tmp_path, case,
                                                           make, says):
    path = tmp_path / "checkpoint.json"
    make(path)
    assert _load_error(path) == says.format(path=path)
