"""Keep-probability scoring and straight-through token selection.

The selectors come in four flavors: two learnable stochastic ones (top-K over
Gumbel-perturbed scores, and a per-token ratio-controlled gate), plus the two
baselines they are measured against (noise-free top-K and a fixed uniform
grid). All of them emit a SelectionMask whose `soft` tensor carries the
gradient path; `apply_ste` wires value-from-hard / derivative-from-soft.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ContractError, CapacityError, ShapeError
from .gumbel import sample_standard_gumbel
from .rng import SeededRng

STRATEGY_KINDS = ("gumbel_topk", "ratio_controlled", "deterministic_topk", "uniform_fixed")

# additive logit that removes padded slots from any softmax
_PAD_LOGIT = -1e30
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


class KeepProbPredictor:
    """Two-layer scorer f: R^d -> R^2 whose softmax yields keep probabilities."""

    def __init__(self, d: int, hidden: int | None = None):
        self.d = d
        self.hidden = hidden if hidden is not None else 2 * d
        self.w1 = Parameter("scorer.w1", np.zeros((d, self.hidden)))
        self.b1 = Parameter("scorer.b1", np.zeros(self.hidden))
        self.w2 = Parameter("scorer.w2", np.zeros((self.hidden, 2)))
        self.b2 = Parameter("scorer.b2", np.zeros(2))

    def init(self, rng: SeededRng, stddev: float = 0.02) -> "KeepProbPredictor":
        self.w1.value = rng.split(0).normals(self.w1.value.size, 0.0, stddev).reshape(self.w1.shape)
        self.w2.value = rng.split(1).normals(self.w2.value.size, 0.0, stddev).reshape(self.w2.shape)
        self.b1.value[:] = 0.0
        self.b2.value[:] = 0.0
        return self

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def logits(self, tape: ad.Tape, tokens: Tensor) -> Tensor:
        """[rows, 2] logits for tokens [n, d] or [B, n, d] (rows example-major)."""
        if tokens.shape[-1] != self.d:
            raise ShapeError(f"predictor expects width {self.d}, got {tokens.shape[-1]}")
        if tokens.data.ndim != 2:
            tokens = ad.reshape(tokens, (tokens.data.size // self.d, self.d))
        h = ad.gelu(ad.linear(tokens, tape.param(self.w1), tape.param(self.b1)))
        return ad.linear(h, tape.param(self.w2), tape.param(self.b2))


@dataclass
class KeepScores:
    """Per-token keep probabilities with their 2-dim predictor logits.

    One sequence has s and valid_mask of shape [n]; a batch has [B, n].
    """

    logits: Tensor           # [rows, 2], rows example-major
    s: Tensor                # [n] or [B, n], zero at padded positions
    valid_mask: np.ndarray   # bool, same shape as s

    @property
    def n(self) -> int:
        return self.s.shape[-1]

    @property
    def valid_count(self):
        """Valid tokens: an int for one sequence, a [B] array for a batch."""
        counts = self.valid_mask.sum(axis=-1)
        return int(counts) if self.valid_mask.ndim == 1 else counts


@dataclass
class SelectionMask:
    """Hard 0/1 selection with the relaxed weights that carry gradients.

    One sequence: hard and soft are [n], kept_indices strictly increasing.
    A batch: hard and soft are [B, n], and row b of kept_indices [B, L] holds
    example b's kept positions in increasing order, padded with 0 up to L, the
    largest kept count in the batch (at least 1).
    """

    hard: np.ndarray          # float 0/1
    soft: Tensor
    kept_indices: np.ndarray  # int64
    strategy_tag: str
    valid_count: int | np.ndarray

    @property
    def n(self) -> int:
        return self.hard.shape[-1]

    @property
    def kept_count(self):
        """Kept tokens: an int for one sequence, a [B] array for a batch."""
        if self.hard.ndim == 1:
            return self.kept_indices.size
        return np.count_nonzero(self.hard, axis=1)

    @property
    def keep_ratio(self):
        return self.kept_count / self.valid_count

    def kept_in(self, b: int) -> np.ndarray:
        """Example b's kept positions, strictly increasing."""
        return self.kept_indices[b, :self.kept_count[b]]

    def squeeze(self) -> "SelectionMask":
        """The one-sequence mask of a batch of one."""
        if self.hard.shape[0] != 1:
            raise ContractError(f"squeeze needs a batch of one, got {self.hard.shape[0]}")
        return SelectionMask(self.hard[0], ad.reshape(self.soft, (self.n,)), self.kept_in(0),
                             self.strategy_tag, int(self.valid_count[0]))


def _mask_from_keep(keep: np.ndarray, soft: Tensor, tag: str, valid_count) -> SelectionMask:
    """SelectionMask from a boolean keep array of shape [n] or [B, n]."""
    if keep.ndim == 1:
        return SelectionMask(keep.astype(np.float64), soft, np.flatnonzero(keep), tag,
                             valid_count)
    counts = keep.sum(axis=1)
    width = max(1, int(counts.max()))
    # a stable sort of "not kept" lists each row's kept positions first, in order
    kept = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    kept[np.arange(width) >= counts[:, None]] = 0
    return SelectionMask(keep.astype(np.float64), soft, kept, tag, valid_count)


def compute_keep_probabilities(tape: ad.Tape, tokens: Tensor,
                               predictor: KeepProbPredictor,
                               valid_mask: np.ndarray | None = None) -> KeepScores:
    """Score every token of [n, d] or [B, n, d]: softmax the 2-dim predictor
    output, keep entry 0.

    Padded positions get s forced to 0 and stay out of every downstream loss.
    """
    lead = tokens.shape[:-1]
    valid = np.ones(lead, dtype=bool) if valid_mask is None else np.asarray(valid_mask, dtype=bool)
    logits = predictor.logits(tape, tokens)
    return _scores_from_logits(logits, lead, valid)


def _scores_from_logits(logits: Tensor, lead: tuple, valid: np.ndarray) -> KeepScores:
    probs = ad.softmax_with_temperature(logits, axis=1, tau=1.0)
    s_all = ad.reshape(ad.matmul(probs, ad.constant(_KEEP_COLUMN)), lead)
    s = ad.mask_multiply(s_all, valid.astype(np.float64))
    return KeepScores(logits=logits, s=s, valid_mask=valid)


def keep_scores_from_values(tape: ad.Tape, s_values, valid_mask=None) -> KeepScores:
    """Build KeepScores around given keep probabilities [n] or [B, n] (tests
    and oracles).

    Logits (log s, log(1-s)) reproduce s exactly through the softmax path.
    """
    s = np.asarray(s_values, dtype=np.float64)
    valid = np.ones(s.shape, dtype=bool) if valid_mask is None else np.asarray(valid_mask, dtype=bool)
    safe = np.clip(s, 1e-15, 1 - 1e-15).reshape(-1)
    logits = tape.leaf(np.stack([np.log(safe), np.log(1 - safe)], axis=1))
    return _scores_from_logits(logits, s.shape, valid)


def _top_k_keep(values: np.ndarray, valid: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k largest valid entries, ties toward the
    lower index."""
    order = np.argsort(np.where(valid, -values, np.inf), axis=-1, kind="stable")
    keep = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :k], True, axis=-1)
    return keep


def _check_k(k: int, valid_count) -> None:
    if not 1 <= k <= np.min(valid_count):
        raise ContractError(f"K={k} out of range for {valid_count} valid tokens")


def _log_s(scores: KeepScores) -> Tensor:
    # pads carry s = 0; shift them to 1 so the log stays in-domain, then the
    # pad logit below removes them from the softmax entirely
    offs = np.where(scores.valid_mask, _TINY, 1.0)
    return ad.log(ad.add(scores.s, ad.constant(offs)))


def gumbel_topk_select(scores: KeepScores, k: int, tau: float, rng: SeededRng) -> SelectionMask:
    """Variant 1: keep the K tokens with the largest Gumbel-perturbed scores.

    The hard mask ranks log s_i + g_i; the soft path is the sequence-level
    Gumbel-Softmax at temperature tau over the same perturbed scores. A batch
    draws its noise in one call, example by example in order, so example b
    sees the values it would see if the examples ran one at a time.
    """
    valid = scores.valid_mask
    _check_k(k, scores.valid_count)
    g = np.zeros(valid.shape)
    g[valid] = sample_standard_gumbel(rng, int(valid.sum())).values
    with np.errstate(divide="ignore"):
        ranking = np.where(valid, np.log(np.maximum(scores.s.data, _TINY)) + g, -np.inf)
    keep = _top_k_keep(ranking, valid, k)

    noise = np.where(valid, g, _PAD_LOGIT)
    perturbed = ad.add(_log_s(scores), ad.constant(noise))
    soft = ad.softmax_with_temperature(perturbed, axis=-1, tau=tau)
    return _mask_from_keep(keep, soft, "gumbel_topk", scores.valid_count)


def _gate_noise(rng: SeededRng, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep- and drop-logit Gumbel noise for every valid token, from one draw.

    Example by example, the draw holds that example's nv keep values and then
    its nv drop values, the order of one-example-at-a-time draws.
    """
    rows = np.atleast_2d(valid)
    nv = rows.sum(axis=1)
    g = sample_standard_gumbel(rng, 2 * int(nv.sum())).values
    start = 2 * (np.cumsum(nv) - nv)
    at = start[:, None] + np.cumsum(rows, axis=1) - 1
    g0 = np.zeros(rows.shape)
    g1 = np.zeros(rows.shape)
    g0[rows] = g[at[rows]]
    g1[rows] = g[(at + nv[:, None])[rows]]
    return g0.reshape(valid.shape), g1.reshape(valid.shape)


def ratio_controlled_select(scores: KeepScores, tau: float, rng: SeededRng) -> SelectionMask:
    """Variant 2: per-token binary Gumbel gate, kept when s_i^g > 0.5 (strict)."""
    valid = scores.valid_mask
    shape = valid.shape
    size = valid.size
    g0, g1 = _gate_noise(rng, valid)

    keep_logit = ad.add(_log_s(scores), ad.constant(g0))
    one_minus = ad.add(ad.subtract(ad.constant(np.ones(shape)), scores.s),
                       ad.constant(np.full(shape, _TINY)))
    drop_logit = ad.add(ad.log(one_minus), ad.constant(g1))
    stacked = ad.transpose(ad.concat_rows(ad.reshape(keep_logit, (1, size)),
                                          ad.reshape(drop_logit, (1, size))))
    relaxed = ad.softmax_with_temperature(stacked, axis=1, tau=tau)
    s_g = ad.reshape(ad.matmul(relaxed, ad.constant(_KEEP_COLUMN)), shape)
    soft = ad.mask_multiply(s_g, valid.astype(np.float64))
    return _mask_from_keep(valid & (soft.data > 0.5), soft, "ratio_controlled",
                           scores.valid_count)


def deterministic_topk_select(scores: KeepScores, k: int) -> SelectionMask:
    """Baseline: top-K of the raw keep probabilities, no noise; soft = s."""
    _check_k(k, scores.valid_count)
    keep = _top_k_keep(scores.s.data, scores.valid_mask, k)
    return _mask_from_keep(keep, scores.s, "deterministic_topk", scores.valid_count)


def uniform_fixed_select(n: int, k: int, batch: int | None = None) -> SelectionMask:
    """Baseline: K points on a fixed uniform grid over [0, n-1], for one
    sequence or, given `batch`, the same grid for every example of a batch.

    Rounded grid points are deduplicated, then backfilled with the smallest
    unused indices so the mask always holds exactly K tokens.
    """
    _check_k(k, n)
    grid = np.unique(np.rint(np.linspace(0.0, n - 1.0, k)).astype(np.int64))
    if grid.size < k:
        unused = np.setdiff1d(np.arange(n, dtype=np.int64), grid, assume_unique=True)
        grid = np.sort(np.concatenate([grid, unused[: k - grid.size]]))
    keep = np.zeros(n, dtype=bool)
    keep[grid] = True
    if batch is not None:
        keep = np.tile(keep, (batch, 1))
    valid = n if batch is None else np.full(batch, n)
    return _mask_from_keep(keep, ad.constant(keep.astype(np.float64)), "uniform_fixed", valid)


def inference_rank_topk(scores: KeepScores, k: int) -> SelectionMask:
    """Inference path: rank keep probabilities and take the top K, noise-free."""
    mask = deterministic_topk_select(scores, k)
    mask.strategy_tag = "inference"
    return mask


def inference_k_for(strategy: StrategyConfig, valid_count: int) -> int:
    """K used at inference: the trained K, or round(p*n) for ratio control."""
    if strategy.kind == "ratio_controlled":
        return min(max(1, round(strategy.target_ratio * valid_count)), valid_count)
    return strategy.k


def run_strategy(scores: KeepScores, strategy: StrategyConfig, rng: SeededRng) -> SelectionMask:
    if strategy.kind == "gumbel_topk":
        return gumbel_topk_select(scores, strategy.k, strategy.tau, rng)
    if strategy.kind == "ratio_controlled":
        return ratio_controlled_select(scores, strategy.tau, rng)
    if strategy.kind == "deterministic_topk":
        return deterministic_topk_select(scores, strategy.k)
    batch = None if scores.valid_mask.ndim == 1 else scores.valid_mask.shape[0]
    return uniform_fixed_select(scores.n, strategy.k, batch)


@dataclass
class KeptTokens:
    """A batch of compacted sequences padded to a common length L.

    tokens is [B, L, d]; valid[b, j] is False where row j of example b is
    padding, which the task model masks out of attention keys and pooling.
    """

    tokens: Tensor
    valid: np.ndarray  # bool [B, L]

    def concat(self, other: "KeptTokens") -> "KeptTokens":
        """Both batches' rows, example by example: [B, L1 + L2, d]."""
        return KeptTokens(ad.concat_rows(self.tokens, other.tokens),
                          np.concatenate([self.valid, other.valid], axis=1))


def apply_ste(tokens: Tensor, mask: SelectionMask):
    """Compact the kept tokens, values untouched, gradients through `soft`.

    Forward output row j is exactly token kept_indices[j]; backward behaves as
    if every token had been scaled by its soft weight, so keep scores receive
    task-loss gradients. One sequence [n, d] gives a [K', d] tensor (an empty
    selection gives [0, d], which the task model replaces with its null
    token); a batch [B, n, d] gives KeptTokens padded to the largest count.
    """
    if tokens.shape[:-1] != mask.hard.shape:
        raise ContractError(f"mask shape {mask.hard.shape} != token shape {tokens.shape[:-1]}")
    gate = ad.straight_through(mask.soft, mask.hard)
    kept = ad.gather_rows(ad.scale_rows(tokens, gate), mask.kept_indices)
    if mask.hard.ndim == 1:
        return kept
    width = mask.kept_indices.shape[1]
    return KeptTokens(kept, np.arange(width) < mask.kept_count[:, None])


def reencode_positions(mask: SelectionMask, positional_table: Tensor) -> Tensor:
    """Positional rows 0..K'-1 for the kept tokens in their original order
    ([K', d], or [B, L, d] for a batch)."""
    k = mask.kept_indices.shape[-1]
    if k > positional_table.shape[0]:
        raise CapacityError(f"{k} kept tokens exceed positional capacity "
                            f"{positional_table.shape[0]}")
    return ad.gather_rows(positional_table, index_grid(mask.kept_indices.shape))


@functools.lru_cache(maxsize=64)
def index_grid(shape: tuple[int, ...], offset: int = 0) -> np.ndarray:
    """Read-only int64 grid of `shape` whose every row is offset,
    offset + 1, ..., offset + shape[-1] - 1; built once per (shape, offset)."""
    grid = np.broadcast_to(np.arange(offset, offset + shape[-1], dtype=np.int64), shape)
    grid.flags.writeable = False
    return grid


def selection_loss(mask: SelectionMask, target_ratio: float) -> Tensor:
    """Mean squared deviation of each sequence's realized keep ratio from target.

    `mask` is one sequence or a batch. The value uses hard counts; the
    gradient flows through each sequence's mean soft weight (same
    straight-through contract as apply_ste). Padded positions are excluded
    from the denominators.
    """
    if not 0 < target_ratio <= 1:
        raise ContractError("target_ratio must lie in (0, 1]")
    soft = mask.soft if mask.hard.ndim == 2 else ad.reshape(mask.soft, (1, mask.n))
    rows = soft.shape[0]
    per_valid = 1.0 / np.asarray(mask.valid_count, dtype=np.float64).reshape(rows, 1)
    soft_ratio = ad.mask_multiply(ad.matmul(soft, ad.constant(np.ones((mask.n, 1)))),
                                  per_valid)
    hard_ratio = np.asarray(mask.keep_ratio, dtype=np.float64).reshape(rows, 1)
    st_ratio = ad.straight_through(soft_ratio, hard_ratio)
    return ad.mean_all(ad.square(ad.subtract(ad.constant(np.full((rows, 1), target_ratio)),
                                             st_ratio)))


def total_loss(task_loss: Tensor, select_loss: Tensor, lam: float) -> Tensor:
    """L = L_task + lambda * L_select."""
    if lam < 0:
        raise ContractError("lambda must be non-negative")
    return ad.add(task_loss, ad.scale(select_loss, lam))
