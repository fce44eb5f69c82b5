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

Variants take their structure from ``_VARIANT_FLAGS`` (not free knobs) and
SEQ its stages from ``SEQ_STAGES``; no other module compares their names.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from ..errors import check_fields, from_doc, require

VARIANT_SEQ = "SEQ"
VARIANT_CR = "MT-CR"
VARIANT_HCR = "MT-HCR"
VARIANT_HCCR = "MT-HCCR"
VARIANT_HCCAR = "MT-HCCAR"
VARIANT_MLP = "MLP-BASELINE"

# name -> (hierarchical, aux head, attention, encoder-decoder,
#          phase outputs conditional on cloudy, three sequential subnets,
#          one hidden layer)
_VARIANT_FLAGS: dict[str, tuple[bool, ...]] = {
    VARIANT_SEQ: (False, False, False, False, True, True, False),
    VARIANT_CR: (False, False, False, True, False, False, False),
    VARIANT_HCR: (True, False, False, True, True, False, False),
    VARIANT_HCCR: (True, True, False, True, True, False, False),
    VARIANT_HCCAR: (True, True, True, True, True, False, False),
    VARIANT_MLP: (False, False, False, False, False, False, True),
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

    # capability flags
    @property
    def hierarchical(self) -> bool:
        return _VARIANT_FLAGS[self.variant][0]

    @property
    def aux_enabled(self) -> bool:
        return _VARIANT_FLAGS[self.variant][1]

    @property
    def attention_enabled(self) -> bool:
        return _VARIANT_FLAGS[self.variant][2]

    @property
    def has_decoder(self) -> bool:
        return _VARIANT_FLAGS[self.variant][3]

    @property
    def conditional_phase(self) -> bool:
        """Phase outputs are probabilities given cloudy (hierarchical
        variants and SEQ), not joint ones."""
        return _VARIANT_FLAGS[self.variant][4]

    @property
    def sequential(self) -> bool:
        return _VARIANT_FLAGS[self.variant][5]

    @property
    def single_hidden(self) -> bool:
        return _VARIANT_FLAGS[self.variant][6]

    @property
    def latent_dim(self) -> int:
        return self.encoder_widths[-1]

    @property
    def attention_dim(self) -> int:
        return self.head_hidden[-1]

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ArchitectureSpec":
        return from_doc(cls, d, "architecture")
