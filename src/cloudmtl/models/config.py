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

Each variant's structure comes from its row of ``_VARIANT_FLAGS``, so no
other module compares variant names; the flags are not free knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from ..errors import ConfigError, check_fields, from_doc

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
        if self.variant not in _VARIANT_FLAGS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.encoder_widths or any(w < 1 for w in self.encoder_widths):
            raise ConfigError(f"encoder_widths must be positive, got {self.encoder_widths}")
        if any(a <= b for a, b in zip(self.encoder_widths, self.encoder_widths[1:])):
            raise ConfigError(
                f"encoder_widths must be strictly decreasing, got {self.encoder_widths}")
        if not self.head_hidden or any(w < 1 for w in self.head_hidden):
            raise ConfigError(f"head_hidden must be positive, got {self.head_hidden}")
        if self.gating_mode not in ("soft", "hard"):
            raise ConfigError(f"gating_mode must be soft or hard, got {self.gating_mode!r}")
        if self.reg_norm not in ("sum", "mean"):
            raise ConfigError(f"reg_norm must be sum or mean, got {self.reg_norm!r}")
        if self.lasso_lambda < 0:
            raise ConfigError(f"lasso_lambda must be >= 0, got {self.lasso_lambda}")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if len(self.bins) != 4 or any(a >= b for a, b in zip(self.bins, self.bins[1:])):
            raise ConfigError(
                f"bins must be 4 strictly increasing edges, got {self.bins}")
        if self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")

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
