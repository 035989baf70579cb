"""Settings of augmentation and of the contrastive loss.

They live apart from the layers that use them, so that `una`'s argument
parser can show their defaults without loading those layers;
`una.augment` and `una.contrastive` re-export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODE_TFIDF = "tfidf"
MODE_RANDOM = "random"
_MODES = (MODE_TFIDF, MODE_RANDOM)


@dataclass(frozen=True)
class AugmentationConfig:
    """Knobs of the augmentation run.

    beta: replacement-probability magnitude in (0, 1]; the per-sentence
        mean of the unclamped probabilities equals beta.
    radius: how many rank positions below and above a term's max-score
        rank the candidate replacements may come from.
    alpha: negatives are generated for every alpha-th batch (1-based).
    seed: master seed for all per-sentence random streams.
    selection_mode / replacement_mode: "tfidf" for the score-guided
        behavior, "random" for the ablation baselines.
    """

    beta: float = 0.5
    radius: int = 4000
    alpha: int = 5
    seed: int = 0
    selection_mode: str = MODE_TFIDF
    replacement_mode: str = MODE_TFIDF

    def __post_init__(self):
        for name in ("radius", "alpha", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.beta, (int, float, np.integer, np.floating)) or isinstance(self.beta, bool):
            raise ValueError(f"beta must be a real number, got {self.beta!r}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        for mode in (self.selection_mode, self.replacement_mode):
            if mode not in _MODES:
                raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _check_tau(tau: float) -> None:
    if not isinstance(tau, (int, float, np.integer, np.floating)) or isinstance(tau, bool):
        raise ValueError(f"tau must be a real number, got {tau!r}")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")


@dataclass(frozen=True)
class ContrastiveConfig:
    tau: float = 0.05
    batch_size: int = 64

    def __post_init__(self):
        _check_tau(self.tau)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
