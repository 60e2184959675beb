"""Standard Gumbel noise and the Gumbel-max categorical sampling primitive."""
from __future__ import annotations

import numpy as np

from .errors import DegenerateDistributionError
from .rng import SeededRng

# uniforms are clamped away from {0, 1} before the double log
_U_LO = 1e-12
_U_HI = 1.0 - 1e-12


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """Inverse-transform g = -ln(-ln u) with clamped u."""
    u = np.clip(np.asarray(u, dtype=np.float64), _U_LO, _U_HI)
    return -np.log(-np.log(u))


def sample_standard_gumbel(rng: SeededRng, count: int) -> np.ndarray:
    """`count` Gumbel(0,1) samples: the stream's next `count` uniforms
    through `gumbel_from_uniform`."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return gumbel_from_uniform(rng.uniforms(count))


def gumbel_max_sample(probabilities, rng: SeededRng):
    """Sample an index from a categorical distribution via the Gumbel-max trick.

    Returns argmax_i(log p_i + g_i); zero-probability entries map to -inf and
    are never selected. A [m, C] matrix samples each row, drawing all m*C
    uniforms in one call (row-major, the order of m one-row calls), and
    returns an int array [m].
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim not in (1, 2) or np.any(p < 0):
        raise ValueError("probabilities must be a non-negative vector or matrix of rows")
    total = p.sum(axis=-1)
    if np.any(total <= 0):
        raise DegenerateDistributionError("all-zero probability vector")
    if np.any(np.abs(total - 1.0) > 1e-9):
        raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
    g = sample_standard_gumbel(rng, p.size).reshape(p.shape)
    with np.errstate(divide="ignore"):
        scores = np.where(p > 0, np.log(np.maximum(p, 1e-300)) + g, -np.inf)
    picks = np.argmax(scores, axis=-1)
    return int(picks) if p.ndim == 1 else picks
