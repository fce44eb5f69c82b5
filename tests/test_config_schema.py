"""The three config dataclasses read their own documents: ``from_dict``
either builds an instance that round-trips or raises ConfigError. They and
``FoldStats`` are frozen and checked when built, however they are built."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmtl.data import SplitPlan
from cloudmtl.engine import TrainConfig
from cloudmtl.engine.optim import MAX_EPOCHS
from cloudmtl.errors import ConfigError
from cloudmtl.models import VARIANTS, ArchitectureSpec
from cloudmtl.selection import FoldStats

#: (reader, its writer, a valid document)
READERS = [
    (ArchitectureSpec, ArchitectureSpec.to_dict,
     {"variant": "MT-HCCAR", "input_dim": 16, "encoder_widths": [8, 4],
      "head_hidden": [4], "gating_mode": "hard", "lasso_lambda": 0.01,
      "reg_norm": "mean", "threshold": 0.4, "bins": [-1.5, 0.0, 1.0, 2.5],
      "mlp_hidden": 3}),
    (TrainConfig, TrainConfig.to_dict,
     {"lr": 0.01, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6, "clip_norm": 1.0,
      "batch_size": 32, "epochs": 2, "seed": 4}),
    (SplitPlan, dataclasses.asdict,
     {"train": 0.5, "val": 0.25, "test": 0.25, "seed": 9}),
]

FIELD_NAMES = sorted({f.name for cls, _, _ in READERS
                      for f in dataclasses.fields(cls)})

SCALARS = (st.none() | st.booleans()
           | st.integers(min_value=-3, max_value=300)
           | st.integers(min_value=10**399, max_value=10**400).flatmap(
               lambda n: st.sampled_from([n, -n]))
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(VARIANTS + ("soft", "hard", "sum", "mean"))
           | st.text(max_size=6))
VALUES = SCALARS | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=10)


@st.composite
def documents(draw, cls, valid):
    """Any JSON value; a valid document with one field set to a list of
    scalars; or a valid document with some fields dropped and others set to
    any value, under ``cls``'s own field names only or mixed with others."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(VALUES)
    own = [f.name for f in dataclasses.fields(cls)]
    if kind < 5:
        return {**valid, draw(st.sampled_from(own)):
                draw(st.lists(SCALARS, min_size=1, max_size=4))}
    doc = {k: v for k, v in valid.items() if draw(st.booleans())}
    keys = st.sampled_from(own)
    if draw(st.booleans()):
        keys = keys | st.sampled_from(FIELD_NAMES) | st.text(max_size=6)
    doc.update(draw(st.dictionaries(keys, VALUES, max_size=4)))
    return doc


@pytest.mark.parametrize("cls,to_dict,valid", READERS,
                         ids=[r[0].__name__ for r in READERS])
def test_valid_document_round_trips(cls, to_dict, valid):
    x = cls.from_dict(valid)
    assert to_dict(x) == valid and cls.from_dict(to_dict(x)) == x


@pytest.mark.parametrize("cls,to_dict,valid", READERS,
                         ids=[r[0].__name__ for r in READERS])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_builds_a_round_tripping_instance_or_raises_config_error(
        cls, to_dict, valid, data):
    doc = data.draw(documents(cls, valid))
    try:
        x = cls.from_dict(doc)
    except ConfigError:
        return
    assert cls.from_dict(to_dict(x)) == x


@pytest.mark.parametrize("cls,missing", [(ArchitectureSpec, "variant"),
                                         (ArchitectureSpec, "input_dim")])
def test_missing_required_field_is_named(cls, missing):
    doc = {"variant": "MT-CR", "input_dim": 16}
    del doc[missing]
    with pytest.raises(ConfigError, match=f"missing architecture fields: "
                                          f"\\['{missing}'\\]"):
        cls.from_dict(doc)


def test_unknown_fields_are_named_by_section():
    for cls, what in ((ArchitectureSpec, "architecture"),
                      (TrainConfig, "train"), (SplitPlan, "split")):
        with pytest.raises(ConfigError,
                           match=f"unknown {what} fields: \\['zeta'\\]"):
            cls.from_dict({"zeta": 1})


def test_float_field_rejects_an_integer_beyond_float64():
    with pytest.raises(ConfigError, match="lasso_lambda must be a finite"):
        ArchitectureSpec.from_dict({"variant": "MT-CR", "input_dim": 16,
                                    "lasso_lambda": 10**400})
    with pytest.raises(ConfigError, match="lr must be a finite"):
        TrainConfig.from_dict({"lr": 10**400})


def test_epochs_are_bounded():
    assert TrainConfig.from_dict({"epochs": MAX_EPOCHS}).epochs == MAX_EPOCHS
    for epochs in (MAX_EPOCHS + 1, 10**400, -1):
        with pytest.raises(ConfigError, match="^epochs must be in .*MAX_EPOCHS"):
            TrainConfig.from_dict({"epochs": epochs})


def test_negative_seeds_are_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig.from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="split seed must be >= 0"):
        SplitPlan.from_dict({"seed": -1})


#: settings built past the reader, and the field each one's error names
BUILT_OUT_OF_RANGE = [
    ("replace lr", lambda: dataclasses.replace(TrainConfig(), lr=-1.0), "lr"),
    ("replace train", lambda: dataclasses.replace(SplitPlan(), train=2.0),
     "train fraction"),
    ("lr str", lambda: TrainConfig(lr="x"), "lr"),
    ("negative se", lambda: FoldStats("MT-CR", "D", "MSE", True, 0.5, -0.1),
     "se"),
]


@pytest.mark.parametrize("build,field", [c[1:] for c in BUILT_OUT_OF_RANGE],
                         ids=[c[0] for c in BUILT_OUT_OF_RANGE])
def test_settings_are_checked_when_built(build, field):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        build()


def test_train_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().lr = 1.0
