"""Multi-modal context encoding for paired scoring.

A single attention block over the concatenated visual+textual sequence
produces one unified vector per index (sum of the two slot outputs), which is
scored exactly like a single-modality sequence; `train.Pipeline` applies the
resulting mask to both streams so kept tokens stay time-aligned pairs. The
fusion is a list of one-op stages (`ContextModel.stages`, see `stages`).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ShapeError
from .model import MultiHeadAttention
from .rng import SeededRng
from .stages import Packed, Stage, run_stages


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

    def init(self, rng: SeededRng, stddev: float) -> "ContextModel":
        self.attn.init(rng, stddev)
        return self

    def stages(self) -> list[Stage]:
        """The fusion in order, from the streams (visual, textual) to u:
        the joint sequences as packed rows, the attention's three stages,
        then the sum of each index's two slots."""
        return [Stage("context.join", (), self.join), *self.attn.stages(),
                Stage("context.slots", (), self.slots)]

    def fuse(self, tape: ad.Tape, visual: Tensor, textual: Tensor) -> Tensor:
        """Unified u_1..u_n [B, n, d] from the concatenated (visual; textual)
        sequences, both [B, n, d]."""
        return run_stages(tape, self.stages(), (visual, textual))

    def join(self, tape: ad.Tape, streams: tuple[Tensor, Tensor]) -> Packed:
        """The B sequences (visual; textual) of 2n rows each, packed."""
        visual, textual = streams
        if visual.shape != textual.shape or visual.data.ndim != 3:
            raise ShapeError(f"context model pairs two [B, n, d] streams, got "
                             f"{visual.shape} and {textual.shape}")
        if visual.shape[-1] != self.d:
            raise ShapeError(f"context model expects width {self.d}, got {visual.shape[-1]}")
        batch, n, d = visual.shape
        joint = ad.concat_rows(visual, textual)
        return Packed(ad.reshape(joint, (batch * 2 * n, d)), (2 * n,) * batch)

    def slots(self, tape: ad.Tape, out: Packed) -> Tensor:
        """u [B, n, d]: each index's visual slot plus its textual slot.
        Example b's index j sits at packed row 2n*b + j and its textual
        slot n rows further on."""
        batch, n = len(out.lengths), out.lengths[0] // 2
        visual = (2 * n * np.arange(batch))[:, None] + np.arange(n)
        return ad.add(ad.gather_rows(out.rows, visual), ad.gather_rows(out.rows, visual + n))
