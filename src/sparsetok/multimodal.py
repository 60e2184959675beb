"""Multi-modal context encoding for paired scoring.

A single attention block over the concatenated visual+textual sequence
produces one unified vector per index (sum of the two slot outputs), which is
scored exactly like a single-modality sequence; `train.Pipeline` applies the
resulting mask to both streams so kept tokens stay time-aligned pairs.
"""
from __future__ import annotations

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ShapeError
from .model import MultiHeadAttention
from .rng import SeededRng
from .selection import index_grid


class ContextModel:
    """Cross-modal context encoder C_m: one bidirectional attention block over
    the concatenated 2n-sequence, then slot-wise sum back to n unified vectors.

    Attention only, no residual path: with all projection weights zero the
    output collapses to the learned bias, so the zero-weights degenerate case
    is visible instead of silently passing inputs through.
    """

    def __init__(self, d: int):
        self.d = d
        self.attn = MultiHeadAttention("context", d, heads=2)

    def parameters(self) -> list[Parameter]:
        return self.attn.parameters()

    def init(self, rng: SeededRng, stddev: float = 0.02) -> "ContextModel":
        self.attn.init(rng, stddev)
        return self

    def fuse(self, tape: ad.Tape, visual: Tensor, textual: Tensor) -> Tensor:
        """Unified u_1..u_n [B, n, d] from the concatenated (visual; textual)
        sequences, both [B, n, d]."""
        if visual.shape != textual.shape or visual.data.ndim != 3:
            raise ShapeError(f"context model pairs two [B, n, d] streams, got "
                             f"{visual.shape} and {textual.shape}")
        if visual.shape[-1] != self.d:
            raise ShapeError(f"context model expects width {self.d}, got {visual.shape[-1]}")
        batch, n, d = visual.shape
        joint = ad.concat_rows(visual, textual)
        out = self.attn.forward(tape, ad.reshape(joint, (batch * 2 * n, d)), (2 * n,) * batch)
        out = ad.reshape(out, joint.shape)
        return ad.add(ad.gather_rows(out, index_grid((batch, n))),
                      ad.gather_rows(out, index_grid((batch, n), n)))
