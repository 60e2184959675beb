"""Keep-probability scoring and straight-through token selection.

The selectors come in four flavors: two learnable stochastic ones (top-K over
Gumbel-perturbed scores, and a per-token ratio-controlled gate), plus the two
baselines they are measured against (noise-free top-K and a fixed uniform
grid); all but the grid read the keep probabilities s [B, n]. All of them
emit a SelectionMask whose `soft` tensor carries the gradient path;
`apply_ste` wires value-from-hard / derivative-from-soft and packs the kept
tokens into the rows the task model reads.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ContractError, ShapeError
from .gumbel import sample_standard_gumbel
from .rng import SeededRng
from .stages import Packed, Stage, projection, rowwise, run_stages

STRATEGY_KINDS = ("gumbel_topk", "ratio_controlled", "deterministic_topk", "uniform_fixed")

# keeps natural_log off exact zeros without perturbing representable scores
_TINY = 1e-300

# column selector <(1,0), softmax(f(v))> that reads the keep entry
_KEEP_COLUMN = np.array([[1.0], [0.0]])


@dataclass
class StrategyConfig:
    """Which selector to run and its knobs (K or p, temperature, loss weight)."""

    kind: str
    k: int | None = None
    target_ratio: float | None = None
    tau: float = 0.1
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ContractError(f"unknown strategy kind {self.kind!r}")
        if self.tau <= 0:
            raise ContractError("tau must be positive")
        if self.lam < 0:
            raise ContractError("lambda must be non-negative")
        if self.kind == "ratio_controlled":
            if self.target_ratio is None or self.k is not None:
                raise ContractError("ratio_controlled is driven by target_ratio alone")
            if not 0 < self.target_ratio <= 1:
                raise ContractError("target_ratio must lie in (0, 1]")
        else:
            if self.k is None or self.target_ratio is not None:
                raise ContractError(f"{self.kind} is driven by K alone")
            if self.k < 1:
                raise ContractError("K must be positive")

    @classmethod
    def for_fraction(cls, kind: str, fraction: float, n: int, tau: float,
                     lam: float) -> "StrategyConfig":
        """The strategy that keeps `fraction` of n tokens: ratio_controlled
        targets that ratio, the others keep K = k_for_fraction(fraction, n)."""
        if not 0 < fraction <= 1:
            raise ContractError(f"keep fraction must lie in (0, 1], got {fraction:g}")
        if kind == "ratio_controlled":
            return cls(kind, target_ratio=fraction, tau=tau, lam=lam)
        return cls(kind, k=k_for_fraction(fraction, n), tau=tau, lam=lam)


def k_for_fraction(fraction: float, n: int) -> int:
    """Keep-fraction to token budget: K = max(1, round(fraction * n)), at most n."""
    return max(1, min(n, round(fraction * n)))


class KeepProbPredictor:
    """Two-layer scorer f: R^d -> R^2 whose softmax yields keep probabilities."""

    def __init__(self, d: int):
        self.d = d
        hidden = 2 * d
        self.w1 = Parameter("scorer.w1", np.zeros((d, hidden)))
        self.b1 = Parameter("scorer.b1", np.zeros(hidden))
        self.w2 = Parameter("scorer.w2", np.zeros((hidden, 2)))
        self.b2 = Parameter("scorer.b2", np.zeros(2))

    def init(self, rng: SeededRng, stddev: float) -> "KeepProbPredictor":
        self.w1.value = rng.split(0).normals(self.w1.value.size, 0.0, stddev).reshape(self.w1.shape)
        self.w2.value = rng.split(1).normals(self.w2.value.size, 0.0, stddev).reshape(self.w2.shape)
        self.b1.value[:] = 0.0
        self.b2.value[:] = 0.0
        return self

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def stages(self) -> list[Stage]:
        """Tokens [B, n, d] to keep probabilities s [B, n] (see `stages`):
        the tokens as packed rows, n per example, the two layers with gelu
        between them, giving [B*n, 2] logits, then the keep entry of each
        row's softmax."""
        return [Stage("scorer.rows", (), self.rows),
                projection("scorer.hidden", self.w1, self.b1),
                rowwise("scorer.gelu", ad.gelu),
                projection("scorer.logits", self.w2, self.b2),
                Stage("scorer.keep", (), lambda tape, logits: _keep_entry(
                    logits.rows, 1.0, (len(logits.lengths), logits.lengths[0])))]

    def rows(self, tape: ad.Tape, tokens: Tensor) -> Packed:
        """Tokens [B, n, d] as B packed sequences of n rows."""
        if tokens.data.ndim != 3 or tokens.shape[-1] != self.d:
            raise ShapeError(f"predictor expects tokens [B, n, {self.d}], got {tokens.shape}")
        batch, n, d = tokens.shape
        return Packed(ad.reshape(tokens, (batch * n, d)), (n,) * batch)


@dataclass
class SelectionMask:
    """Hard 0/1 selection with the relaxed weights that carry gradients,
    both [B, n]."""

    hard: np.ndarray  # float 0/1
    soft: Tensor

    @property
    def n(self) -> int:
        return self.hard.shape[-1]

    @property
    def kept_count(self):
        """Kept tokens per example, [B]."""
        return np.count_nonzero(self.hard, axis=-1)

    @property
    def keep_ratio(self):
        return self.kept_count / self.n

    def kept_in(self, b: int) -> np.ndarray:
        """Example b's kept positions, strictly increasing."""
        return np.flatnonzero(self.hard[b])


def _mask_from_keep(keep: np.ndarray, soft: Tensor) -> SelectionMask:
    """SelectionMask from a boolean keep array [B, n]."""
    return SelectionMask(keep.astype(np.float64), soft)


def _keep_entry(logits: Tensor, tau: float, shape: tuple) -> Tensor:
    """Entry 0 of each row's softmax at temperature tau, rows [R, 2]
    reshaped to `shape`."""
    probs = ad.softmax_with_temperature(logits, tau)
    return ad.reshape(ad.matmul(probs, ad.constant(_KEEP_COLUMN)), shape)


def compute_keep_probabilities(tape: ad.Tape, tokens: Tensor,
                               predictor: KeepProbPredictor) -> Tensor:
    """Keep probabilities s [B, n] of tokens [B, n, d]: softmax the 2-dim
    predictor output, keep entry 0; every stage of the predictor."""
    return run_stages(tape, predictor.stages(), tokens)


def _width(s: Tensor) -> int:
    """n of keep probabilities s [B, n]; a ShapeError for any other shape."""
    if s.data.ndim != 2:
        raise ShapeError(f"keep probabilities must be [B, n], got {s.shape}")
    return s.shape[1]


def _top_k_keep(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k largest entries, ties toward the lower
    index."""
    order = np.argsort(-values, axis=-1, kind="stable")
    keep = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :k], True, axis=-1)
    return keep


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ContractError(f"K={k} out of range for {n} tokens")


def _log_s(s: Tensor) -> Tensor:
    return ad.log(ad.add(s, ad.constant(np.full(s.shape, _TINY))))


def gumbel_topk_select(s: Tensor, k: int, tau: float, rng: SeededRng) -> SelectionMask:
    """Variant 1: keep the K tokens with the largest Gumbel-perturbed scores.

    The hard mask ranks log s_i + g_i; the soft path is the sequence-level
    Gumbel-Softmax at temperature tau over the same perturbed scores. A batch
    draws its noise in one call, example by example in order, so example b
    sees the values it would see if the examples ran one at a time.
    """
    _check_k(k, _width(s))
    g = sample_standard_gumbel(rng, s.data.size).reshape(s.shape)
    keep = _top_k_keep(np.log(np.maximum(s.data, _TINY)) + g, k)
    perturbed = ad.add(_log_s(s), ad.constant(g))
    soft = ad.softmax_with_temperature(perturbed, tau)
    return _mask_from_keep(keep, soft)


def ratio_controlled_select(s: Tensor, tau: float, rng: SeededRng) -> SelectionMask:
    """Variant 2: per-token binary Gumbel gate, kept when s_i^g > 0.5 (strict).

    One draw holds, example by example, that example's n keep-logit values
    and then its n drop-logit values, the order of one-example-at-a-time
    draws.
    """
    _width(s)
    g = sample_standard_gumbel(rng, 2 * s.data.size).reshape(s.shape[0], 2, s.shape[1])
    return ratio_controlled_gate(s, g, tau)


def ratio_controlled_gate(s: Tensor, g: np.ndarray, tau: float) -> SelectionMask:
    """`ratio_controlled_select`'s gate at given noise: g [B, 2, n] holds
    each example's keep-logit noise, then its drop-logit noise."""
    shape, size = s.shape, s.data.size
    if g.shape != (shape[0], 2, _width(s)):
        raise ShapeError(f"gate noise {g.shape} does not pair with keep probabilities {shape}")
    g0, g1 = g[:, 0], g[:, 1]

    keep_logit = ad.add(_log_s(s), ad.constant(g0))
    one_minus = ad.add(ad.subtract(ad.constant(np.ones(shape)), s),
                       ad.constant(np.full(shape, _TINY)))
    drop_logit = ad.add(ad.log(one_minus), ad.constant(g1))
    stacked = ad.transpose(ad.concat_rows(ad.reshape(keep_logit, (1, size)),
                                          ad.reshape(drop_logit, (1, size))))
    soft = _keep_entry(stacked, tau, shape)
    return _mask_from_keep(soft.data > 0.5, soft)


def deterministic_topk_select(s: Tensor, k: int) -> SelectionMask:
    """Baseline: top-K of the raw keep probabilities, no noise; soft = s."""
    _check_k(k, _width(s))
    return _mask_from_keep(_top_k_keep(s.data, k), s)


# the inference path: rank keep probabilities and take the top K, noise-free;
# a name of its own because perfbench's tracer patches train.inference_rank_topk
inference_rank_topk = deterministic_topk_select


def uniform_fixed_select(n: int, k: int, batch: int) -> SelectionMask:
    """Baseline: K points on a fixed uniform grid over [0, n-1], the same
    grid for every example of a batch.

    Rounded grid points are deduplicated, then backfilled with the smallest
    unused indices so the mask always holds exactly K tokens.
    """
    _check_k(k, n)
    grid = np.unique(np.rint(np.linspace(0.0, n - 1.0, k)).astype(np.int64))
    if grid.size < k:
        unused = np.setdiff1d(np.arange(n, dtype=np.int64), grid, assume_unique=True)
        grid = np.sort(np.concatenate([grid, unused[: k - grid.size]]))
    keep = np.zeros((batch, n), dtype=bool)
    keep[:, grid] = True
    return _mask_from_keep(keep, ad.constant(keep.astype(np.float64)))


def inference_k_for(strategy: StrategyConfig, n: int) -> int:
    """K used at inference: the trained K, or k_for_fraction(p, n) for ratio control."""
    if strategy.kind == "ratio_controlled":
        return k_for_fraction(strategy.target_ratio, n)
    return strategy.k


def run_strategy(s: Tensor, strategy: StrategyConfig, rng: SeededRng) -> SelectionMask:
    """The training mask of keep probabilities s [B, n] under a strategy that
    reads them; uniform_fixed reads none and has `uniform_fixed_select`."""
    if strategy.kind == "gumbel_topk":
        return gumbel_topk_select(s, strategy.k, strategy.tau, rng)
    if strategy.kind == "ratio_controlled":
        return ratio_controlled_select(s, strategy.tau, rng)
    if strategy.kind == "deterministic_topk":
        return deterministic_topk_select(s, strategy.k)
    raise ContractError(f"{strategy.kind} reads no keep probabilities")


def _packed_keep(mask: SelectionMask, streams: int) -> np.ndarray:
    """Which tokens of `streams` streams under the one mask are kept, [B, S, n].
    Its True entries in row-major order are the packed rows, the one layout
    of the kept tokens: example by example, stream 0 then stream 1, each
    stream's kept tokens in their original order."""
    return np.broadcast_to(mask.hard[:, None] != 0, (mask.hard.shape[0], streams, mask.n))


def apply_ste(streams: list[Tensor], mask: SelectionMask) -> Packed:
    """Pack every stream's kept tokens, values untouched, gradients through
    `soft`.

    streams are [B, n, d], all under the one mask. Each example's rows are
    its kept tokens of stream 0, then of stream 1, in their original order,
    so example b has S * k_b rows and one that keeps nothing has none.
    Forward every row is exactly its token; backward behaves as if every
    token had been scaled by its soft weight, so keep scores receive
    task-loss gradients.
    """
    for tokens in streams:
        if tokens.shape[:-1] != mask.hard.shape:
            raise ContractError(f"mask shape {mask.hard.shape} != token shape {tokens.shape[:-1]}")
    gate = ad.straight_through(mask.soft, mask.hard)
    scaled = functools.reduce(ad.concat_rows, [ad.scale_rows(t, gate) for t in streams])
    count, d = len(streams), streams[0].shape[-1]
    rows = ad.gather_rows(ad.reshape(scaled, (scaled.data.size // d, d)),
                          np.flatnonzero(_packed_keep(mask, count)))
    return Packed(rows, tuple((count * mask.kept_count).tolist()))


def reencode_positions(mask: SelectionMask, streams: int) -> np.ndarray:
    """Positional table rows of `apply_ste`'s packed rows of `streams`
    streams: row j for each example's j-th kept token, [R]."""
    keep = _packed_keep(mask, streams)
    return (np.cumsum(keep, axis=-1) - 1)[keep]


def original_positions(mask: SelectionMask, streams: int) -> np.ndarray:
    """Positional table rows of `apply_ste`'s packed rows of `streams`
    streams: each kept token's original index, [R] (the naive baseline to
    `reencode_positions`)."""
    return np.nonzero(_packed_keep(mask, streams))[2]


def selection_loss(mask: SelectionMask, target_ratio: float) -> Tensor:
    """Mean squared deviation of each sequence's realized keep ratio from target.

    The value uses hard counts; the gradient flows through each sequence's
    mean soft weight (same straight-through contract as apply_ste).
    """
    if not 0 < target_ratio <= 1:
        raise ContractError("target_ratio must lie in (0, 1]")
    rows = mask.hard.shape[0]
    soft_ratio = ad.scale(ad.matmul(mask.soft, ad.constant(np.ones((mask.n, 1)))), 1.0 / mask.n)
    hard_ratio = mask.keep_ratio.reshape(rows, 1)
    st_ratio = ad.straight_through(soft_ratio, hard_ratio)
    return ad.mean_all(ad.square(ad.subtract(ad.constant(np.full((rows, 1), target_ratio)),
                                             st_ratio)))


def total_loss(task_loss: Tensor, select_loss: Tensor, lam: float) -> Tensor:
    """L = L_task + lambda * L_select."""
    if lam < 0:
        raise ContractError("lambda must be non-negative")
    return ad.add(task_loss, ad.scale(select_loss, lam))
