"""Multi-modal sparsification: length equalization, context fusion, paired
selection, and the relaxed per-modality variant.

A single attention block over the concatenated visual+textual sequence
produces one unified vector per index (sum of the two slot outputs), which is
scored exactly like a single-modality sequence; the resulting mask is applied
to both streams so kept tokens stay time-aligned pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ContractError, ShapeError
from .model import MultiHeadAttention
from .rng import SeededRng
from .selection import (KeepProbPredictor, KeepScores, SelectionMask, StrategyConfig,
                        compute_keep_probabilities, run_strategy, apply_ste)


@dataclass
class MultiModalSequence:
    """Length-equalized (visual, textual) pair with padding bookkeeping; the
    streams are [n, d], or [B, n, d] with [B, n] pad masks for a batch."""

    visual: Tensor
    textual: Tensor
    pad_mask_visual: np.ndarray   # True where a null row was appended
    pad_mask_textual: np.ndarray
    n_visual: int
    n_textual: int

    @property
    def n(self) -> int:
        return self.visual.shape[-2]


def _pad_rows(tape: ad.Tape, stream: Tensor, count: int, null_token: Parameter) -> Tensor:
    null_row = ad.reshape(tape.param(null_token), (1, null_token.value.size))
    pad = ad.matmul(ad.constant(np.ones((count, 1))), null_row)
    return ad.concat_rows(stream, pad)


def _interpolate(stream: Tensor, n: int) -> Tensor:
    src = stream.shape[0]
    idx = (np.arange(n, dtype=np.int64) * src) // n  # nearest-index duplication
    return ad.gather_rows(stream, idx)


def equalize_lengths(tape: ad.Tape, visual: Tensor, textual: Tensor, mode: str,
                     null_token: Parameter) -> MultiModalSequence:
    """Bring both streams to n = max(n_v, n_w) by padding or interpolation.

    pad appends the learned null token; interpolate repeats rows by nearest
    index. The pad masks mark exactly the appended positions.
    """
    if mode not in ("pad", "interpolate"):
        raise ContractError(f"unknown equalization mode {mode!r}")
    n_v, n_w = visual.shape[0], textual.shape[0]
    n = max(n_v, n_w)
    pad_v = np.zeros(n, dtype=bool)
    pad_w = np.zeros(n, dtype=bool)
    if n_v < n:
        if mode == "pad":
            visual = _pad_rows(tape, visual, n - n_v, null_token)
            pad_v[n_v:] = True
        else:
            visual = _interpolate(visual, n)
    if n_w < n:
        if mode == "pad":
            textual = _pad_rows(tape, textual, n - n_w, null_token)
            pad_w[n_w:] = True
        else:
            textual = _interpolate(textual, n)
    return MultiModalSequence(visual, textual, pad_v, pad_w, n_v, n_w)


class ContextModel:
    """Cross-modal context encoder C_m: one bidirectional attention block over
    the concatenated 2n-sequence, then slot-wise sum back to n unified vectors.

    Attention only, no residual path: with all projection weights zero the
    output collapses to the learned bias, so the zero-weights degenerate case
    is visible instead of silently passing inputs through.
    """

    def __init__(self, d: int, heads: int = 2, prefix: str = "context"):
        self.d = d
        self.attn = MultiHeadAttention(prefix, d, heads)

    def parameters(self) -> list[Parameter]:
        return self.attn.parameters()

    def init(self, rng: SeededRng, stddev: float = 0.02) -> "ContextModel":
        self.attn.init(rng, stddev)
        return self

    def encode(self, tape: ad.Tape, x: Tensor, pad_mask: np.ndarray) -> Tensor:
        """Attention over a sequence [n, d] (or a batch [B, n, d]) with padded
        keys masked out; the output has x's shape."""
        if x.shape[-1] != self.d:
            raise ShapeError(f"context model expects width {self.d}, got {x.shape[-1]}")
        if x.data.ndim == 2:
            return self.attn.forward(tape, x, 1, pad_mask[None, :])
        batch, n, d = x.shape
        out = self.attn.forward(tape, ad.reshape(x, (batch * n, d)), batch, pad_mask)
        return ad.reshape(out, x.shape)

    def fuse(self, tape: ad.Tape, seq: MultiModalSequence) -> Tensor:
        """Unified u_1..u_n from the concatenated (visual; textual) sequence."""
        n = seq.n
        joint = ad.concat_rows(seq.visual, seq.textual)
        pad = np.concatenate([seq.pad_mask_visual, seq.pad_mask_textual], axis=-1)
        out = self.encode(tape, joint, pad)
        idx = np.broadcast_to(np.arange(n, dtype=np.int64), pad.shape[:-1] + (n,))
        return ad.add(ad.gather_rows(out, idx), ad.gather_rows(out, idx + n))


def fuse_context(tape: ad.Tape, seq: MultiModalSequence, model: ContextModel) -> Tensor:
    return model.fuse(tape, seq)


def sparsify_pairs(u_scores: KeepScores, seq: MultiModalSequence,
                   strategy: StrategyConfig, rng: SeededRng
                   ) -> tuple[Tensor, Tensor, SelectionMask]:
    """Select token pairs by their unified score; one shared mask, both streams.

    A padded slot can be kept when its pair ranks high enough; the null token
    simply flows through to the task model.
    """
    if u_scores.n != seq.n:
        raise ContractError(f"scores length {u_scores.n} != sequence length {seq.n}")
    mask = run_strategy(u_scores, strategy, rng)
    return apply_ste(seq.visual, mask), apply_ste(seq.textual, mask), mask


@dataclass
class ModalityScorer:
    """Single-modality context encoder plus keep-probability predictor."""

    context: ContextModel
    predictor: KeepProbPredictor

    def score(self, tape: ad.Tape, stream: Tensor, pad_mask: np.ndarray) -> KeepScores:
        u = self.context.encode(tape, stream, pad_mask)
        return compute_keep_probabilities(tape, u, self.predictor, ~pad_mask)


def sparsify_per_modality(tape: ad.Tape, visual: Tensor, textual: Tensor,
                          scorer_v: ModalityScorer, scorer_w: ModalityScorer,
                          strategy_v: StrategyConfig, strategy_w: StrategyConfig,
                          rng: SeededRng,
                          pad_mask_visual: np.ndarray | None = None,
                          pad_mask_textual: np.ndarray | None = None,
                          ) -> tuple[SelectionMask, SelectionMask, Tensor]:
    """Relaxed variant: score each modality independently under ratio control
    and sum the two selection losses."""
    from .selection import selection_loss  # local to avoid cycle at import time

    for cfg in (strategy_v, strategy_w):
        if cfg.kind != "ratio_controlled":
            raise ContractError("per-modality sparsification requires ratio_controlled strategies")
    pad_v = np.zeros(visual.shape[0], dtype=bool) if pad_mask_visual is None else pad_mask_visual
    pad_w = np.zeros(textual.shape[0], dtype=bool) if pad_mask_textual is None else pad_mask_textual
    scores_v = scorer_v.score(tape, visual, pad_v)
    scores_w = scorer_w.score(tape, textual, pad_w)
    mask_v = run_strategy(scores_v, strategy_v, rng.split(0))
    mask_w = run_strategy(scores_w, strategy_w, rng.split(1))
    combined = ad.add(selection_loss([mask_v], strategy_v.target_ratio),
                      selection_loss([mask_w], strategy_w.target_ratio))
    return mask_v, mask_w, combined
