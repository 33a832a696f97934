"""Hyperparameters of the satisfaction predictor. Checkpoints save every field
of ``PredictorConfig``; the cross-turn attention always divides its logits by
sqrt(``embed_dim``)."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

__all__ = ["PredictorConfig", "DEPLOYED_CONFIG", "DESK_CONFIG", "TINY_CONFIG"]


@dataclass(frozen=True)
class PredictorConfig:
    """Architecture settings.

    ``num_turns`` is the context window T (current turn plus up to T-1
    previous turns); ``ffn_dim`` defaults to ``4 * embed_dim``.
    """

    vocab_size: int = 400
    max_text_len: int = 16
    embed_dim: int = 240
    num_turns: int = 5
    text_blocks: int = 8
    struct_blocks: int = 4
    num_heads: int = 4
    ffn_dim: Optional[int] = None

    def __post_init__(self):
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.embed_dim)
        for name in ("vocab_size", "max_text_len", "embed_dim", "num_turns",
                     "text_blocks", "struct_blocks", "num_heads", "ffn_dim"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must leave room beyond the reserved ids")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorConfig":
        return cls(**d)


# Reference settings reported for the deployed model.
DEPLOYED_CONFIG = PredictorConfig(
    embed_dim=240,
    num_turns=5,
    text_blocks=8,
    struct_blocks=4,
)

# Desk-scale settings for CPU experiments on the synthetic corpus.
DESK_CONFIG = PredictorConfig(
    vocab_size=400,
    max_text_len=16,
    embed_dim=40,
    num_turns=5,
    text_blocks=2,
    struct_blocks=1,
    num_heads=2,
    ffn_dim=80,
)

# Gradient-check settings: small enough for exhaustive finite differences.
TINY_CONFIG = PredictorConfig(
    vocab_size=50,
    max_text_len=6,
    embed_dim=8,
    num_turns=2,
    text_blocks=1,
    struct_blocks=1,
    num_heads=2,
    ffn_dim=16,
)
