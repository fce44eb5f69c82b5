"""Architecture configuration and the variant registry.

Six variants share one configuration schema:

=============  =====================================================
SEQ            three independent networks (mask -> phase -> COT),
               trained sequentially on the upstream net's predictions
MT-CR          shared encoder-decoder, flat 4-way classification head
               + regression head
MT-HCR         hierarchical mask/phase heads gate the phase branch
MT-HCCR        MT-HCR plus the auxiliary thickness-bin head
MT-HCCAR       MT-HCCR plus cross-attention between the regression
               and auxiliary hidden representations
MLP-BASELINE   one hidden layer of 10 units, 5 outputs
=============  =====================================================

Variants take their structure from ``VariantFlags`` (not free knobs) and SEQ
its stages from ``SEQ_STAGES``; no other module compares their names.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

from ..errors import check_fields, from_doc, require

VARIANT_SEQ = "SEQ"
VARIANT_CR = "MT-CR"
VARIANT_HCR = "MT-HCR"
VARIANT_HCCR = "MT-HCCR"
VARIANT_HCCAR = "MT-HCCAR"
VARIANT_MLP = "MLP-BASELINE"


class VariantFlags(NamedTuple):
    """The heads, attention and trunk kind a variant switches on."""

    hierarchical: bool = False
    aux_enabled: bool = False
    attention_enabled: bool = False
    conditional_phase: bool = False  # phase probabilities given cloudy
    sequential: bool = False
    single_hidden: bool = False


_VARIANT_FLAGS = {
    VARIANT_SEQ: VariantFlags(conditional_phase=True, sequential=True),
    VARIANT_CR: VariantFlags(),
    VARIANT_HCR: VariantFlags(hierarchical=True, conditional_phase=True),
    VARIANT_HCCR: VariantFlags(hierarchical=True, conditional_phase=True,
                               aux_enabled=True),
    VARIANT_HCCAR: VariantFlags(hierarchical=True, conditional_phase=True,
                                aux_enabled=True, attention_enabled=True),
    VARIANT_MLP: VariantFlags(single_hidden=True),
}

VARIANTS = tuple(_VARIANT_FLAGS)

# Nested-complexity chain used for model selection defaults.
COMPLEXITY_ORDER = (VARIANT_CR, VARIANT_HCR, VARIANT_HCCR, VARIANT_HCCAR)

DEFAULT_BINS = (-1.5, 0.0, 1.0, 2.5)

#: SEQ's subnets in build and training order -> (LossBreakdown field of its
#: loss term, LossTargets labels of its probability columns; None for the
#: log10-thickness net). A net's output width is its label count, else 1;
#: the first net is the mask net, whose cloudy pixels the later nets train on.
SEQ_STAGES = {
    "mask_net": ("l_cmask", ("l_cloud", "l_clear")),
    "phase_net": ("l_cphase", ("l_liquid", "l_ice")),
    "cot_net": ("l_reg", None),
}


@dataclass(frozen=True)
class ArchitectureSpec:
    """Everything needed to build a model deterministically: frozen, and
    checked when built (:class:`ConfigError`). ``encoder_widths`` ends at the
    latent width; ``head_hidden``'s last entry is the attention width."""

    variant: str
    input_dim: int
    encoder_widths: tuple[int, ...] = (128, 64, 32)
    head_hidden: tuple[int, ...] = (16,)
    gating_mode: str = "soft"            # soft | hard (training-time gate)
    lasso_lambda: float = 1e-5
    reg_norm: str = "sum"                # sum | mean over truly-cloudy pixels
    threshold: float = 0.5
    bins: tuple[float, ...] = DEFAULT_BINS
    mlp_hidden: int = 10                 # MLP-BASELINE only

    def __post_init__(self):
        check_fields(self)
        widths, hidden, bins = self.encoder_widths, self.head_hidden, self.bins
        require(
            ("variant", self.variant in _VARIANT_FLAGS, f"one of {VARIANTS}",
             self.variant),
            ("input_dim", self.input_dim >= 1, ">= 1", self.input_dim),
            ("encoder_widths", widths and min(widths) >= 1 and all(
                a > b for a, b in zip(widths, widths[1:])),
             "positive and strictly decreasing", widths),
            ("head_hidden", hidden and min(hidden) >= 1, "positive", hidden),
            ("gating_mode", self.gating_mode in ("soft", "hard"),
             "soft or hard", self.gating_mode),
            ("reg_norm", self.reg_norm in ("sum", "mean"), "sum or mean",
             self.reg_norm),
            ("lasso_lambda", self.lasso_lambda >= 0, ">= 0", self.lasso_lambda),
            ("threshold", 0.0 < self.threshold < 1.0, "in (0, 1)",
             self.threshold),
            ("bins", len(bins) == 4 and all(a < b for a, b in zip(bins, bins[1:])),
             "4 strictly increasing edges", bins),
            ("mlp_hidden", self.mlp_hidden >= 1, ">= 1", self.mlp_hidden))

    @property
    def flags(self) -> VariantFlags:
        return _VARIANT_FLAGS[self.variant]

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ArchitectureSpec":
        return from_doc(cls, d, "architecture")
