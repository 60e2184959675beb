"""Toy transformer classifier consuming sparsified token sequences.

Pre-norm encoder blocks, learnable positional embeddings assigned to the
compacted sequence, mean-pool head. Deterministic: no dropout — the only
training noise in the whole pipeline lives in the Gumbel selection.

The model runs a whole batch at once on packed rows: `apply_ste` hands it
the kept tokens as [R, d] rows, example by example, R = sum of the kept
counts. So every projection, norm, the attention and the mean pool pay for
the rows kept.

The forward is a list of one-op stages (`TaskPerformer.stages`, see
`stages`): embed (the null token at position 0 for an example that keeps
nothing, the positional rows of the packed rows' table indices, then the
input projection plus those rows), per block a
norm, the q | k | v projection, attention and the output projection with
its residual add, then a norm, the two feed-forward projections with gelu
between them and the residual add, and last the final norm, the mean pool
and the head's projection. Each stage names the parameters its first op
reads. No stage mixes sequences, so the states of many batches can be
stacked end to end and run through the later stages at once: the
multimodal gradient check runs each parameter's perturbed states that way.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import CapacityError, ContractError
from .rng import SeededRng
from .stages import (Packed, Stage, beside, branch, norm, projection, residual, rowwise,
                     run_stages)

CHECKPOINT_MAGIC = b"STKN"
CHECKPOINT_VERSION = 2

@dataclass
class TaskPerformerConfig:
    d_in: int = 16
    d_model: int = 32
    heads: int = 2
    layers: int = 2
    max_len: int = 64
    num_classes: int = 4
    ff_mult: int = 4
    # 0.02 stalls under plain SGD at this scale; 0.2 trains reliably
    init_std: float = 0.2

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ContractError("d_model must be divisible by heads")


class MultiHeadAttention:
    """Bidirectional multi-head self-attention with a learned output bias.

    All heads share one [d, 3d] projection to q | k | v (each block
    head-major) and one [d, d] output projection, whose row block h reads
    head h's context; the attention itself is the one `attention` tape op,
    so a forward is three ops and three stages: `matmul`, `attention`,
    `linear`.
    """

    def __init__(self, prefix: str, d: int, heads: int):
        self.prefix = prefix
        self.d = d
        self.heads = heads
        self.wqkv = Parameter(f"{prefix}.wqkv", np.zeros((d, 3 * d)))
        self.wo = Parameter(f"{prefix}.wo", np.zeros((d, d)))
        self.bo = Parameter(f"{prefix}.bias", np.zeros(d))

    def parameters(self) -> list[Parameter]:
        return [self.wqkv, self.wo, self.bo]

    def init(self, rng: SeededRng, stddev: float) -> None:
        """Weights ~ N(0, stddev), drawn as one block per head and role:
        stream i of rng fills, in order, the [d, dk] q blocks, k blocks and
        v blocks (the columns of wqkv), then the [dk, d] output blocks (the
        rows of wo)."""
        d, heads = self.d, self.heads
        dk = d // heads

        def block(i: int, shape: tuple[int, int]) -> np.ndarray:
            return rng.split(i).normals(d * dk, 0.0, stddev).reshape(shape)

        self.wqkv.value = np.concatenate([block(i, (d, dk)) for i in range(3 * heads)], axis=1)
        self.wo.value = np.concatenate([block(3 * heads + h, (dk, d)) for h in range(heads)])

    def stages(self) -> list[Stage]:
        """Attention within each sequence of packed rows [R, d], to packed
        rows [R, d]."""
        return [Stage(f"{self.prefix}.qkv", (self.wqkv,), self.project),
                Stage(f"{self.prefix}.attention", (), self.attend),
                projection(f"{self.prefix}.out", self.wo, self.bo)]

    def project(self, tape: ad.Tape, x: Packed) -> Packed:
        return Packed(ad.matmul(x.rows, tape.param(self.wqkv)), x.lengths)

    def attend(self, tape: ad.Tape, qkv: Packed) -> Packed:
        return Packed(ad.attention(qkv.rows, qkv.lengths, self.heads), qkv.lengths)


class AttentionBlock:
    """One pre-norm encoder block: multi-head self-attention + feed-forward,
    each a residual sublayer."""

    def __init__(self, prefix: str, d: int, heads: int, ff_mult: int):
        ff = ff_mult * d
        p = Parameter
        self.prefix = prefix
        self.ln1_g = p(f"{prefix}.ln1.gain", np.ones(d))
        self.ln1_b = p(f"{prefix}.ln1.bias", np.zeros(d))
        self.attn = MultiHeadAttention(f"{prefix}.attn", d, heads)
        self.ln2_g = p(f"{prefix}.ln2.gain", np.ones(d))
        self.ln2_b = p(f"{prefix}.ln2.bias", np.zeros(d))
        self.ff_w1 = p(f"{prefix}.ff.w1", np.zeros((d, ff)))
        self.ff_b1 = p(f"{prefix}.ff.b1", np.zeros(ff))
        self.ff_w2 = p(f"{prefix}.ff.w2", np.zeros((ff, d)))
        self.ff_b2 = p(f"{prefix}.ff.b2", np.zeros(d))

    def stages(self) -> list[Stage]:
        """The two sublayers on the packed stream: each norms the stream into
        a branch beside it, runs the branch, and adds the branch's last
        projection back to the stream."""
        p = self.prefix
        *attention, out = self.attn.stages()
        return [branch(norm(f"{p}.ln1", self.ln1_g, self.ln1_b)),
                *map(beside, attention), residual(out),
                branch(norm(f"{p}.ln2", self.ln2_g, self.ln2_b)),
                beside(projection(f"{p}.ff.w1", self.ff_w1, self.ff_b1)),
                beside(rowwise(f"{p}.ff.gelu", ad.gelu)),
                residual(projection(f"{p}.ff.w2", self.ff_w2, self.ff_b2))]

    def parameters(self) -> list[Parameter]:
        return [p for stage in self.stages() for p in stage.parameters]

    def init(self, rng: SeededRng, stddev: float) -> None:
        self.attn.init(rng.split(0), stddev)
        for i, w in enumerate((self.ff_w1, self.ff_w2)):
            w.value = rng.split(1, i).normals(w.value.size, 0.0, stddev).reshape(w.shape)


class TaskPerformer:
    """Sequence classifier M: input projection, positions, blocks, mean pool."""

    def __init__(self, config: TaskPerformerConfig):
        self.config = config
        c = config
        self.in_w = Parameter("task.in.w", np.zeros((c.d_in, c.d_model)))
        self.in_b = Parameter("task.in.b", np.zeros(c.d_model))
        self.pos_table = Parameter("task.pos_table", np.zeros((c.max_len, c.d_model)))
        self.null_token = Parameter("task.null_token", np.zeros(c.d_in))
        self.blocks = [AttentionBlock(f"task.block{i}", c.d_model, c.heads, c.ff_mult)
                       for i in range(c.layers)]
        self.ln_f_g = Parameter("task.lnf.gain", np.ones(c.d_model))
        self.ln_f_b = Parameter("task.lnf.bias", np.zeros(c.d_model))
        self.head_w = Parameter("task.head.w", np.zeros((c.d_model, c.num_classes)))
        self.head_b = Parameter("task.head.b", np.zeros(c.num_classes))
        # built once: the stages hold the Parameter objects, whose values
        # change by assignment, and each forward runs them all
        self._stages = self._build_stages()

    def parameters(self) -> list[Parameter]:
        return [self.in_w, self.in_b, self.pos_table, self.null_token,
                *(p for block in self.blocks for p in block.parameters()),
                self.ln_f_g, self.ln_f_b, self.head_w, self.head_b]

    def stages(self) -> list[Stage]:
        """The forward in order, from (kept tokens, positions) to the [B, C]
        logits: embed's three stages, each block's, and the head's three.
        The states between are `Packed`, or a block's (stream, branch).
        `task.positions` is the one stage that reads pos_table."""
        return list(self._stages)

    def _build_stages(self) -> list[Stage]:
        out = [Stage("task.null_token", (self.null_token,), self.null_row),
               Stage("task.positions", (self.pos_table,), lambda tape, inputs: (
                   inputs[0], ad.gather_rows(tape.param(self.pos_table), inputs[1]))),
               Stage("task.in", (self.in_w, self.in_b), self.project_input)]
        for block in self.blocks:
            out += block.stages()
        return out + [norm("task.lnf", self.ln_f_g, self.ln_f_b),
                      Stage("task.pool", (), lambda tape, x: ad.segment_mean(x.rows, x.lengths)),
                      Stage("task.head", (self.head_w, self.head_b), self.head)]

    def forward(self, tape: ad.Tape, kept: Packed, positions: np.ndarray) -> Tensor:
        """Class logits [B, C] for compacted sequences: the kept tokens
        packed by `apply_ste`, rows [R, d_in], with their positional table
        rows [R] (`reencode_positions`); every stage in turn."""
        return run_stages(tape, self._stages, (kept, positions))

    # An example with no kept token gets one row: the learned null token at
    # positional table row 0, so an empty selection still produces finite,
    # trainable logits.

    def null_row(self, tape: ad.Tape,
                 inputs: tuple[Packed, np.ndarray]) -> tuple[Packed, np.ndarray]:
        """The null token at position 0 inserted for each example that keeps
        nothing, once every sequence and position fits max_len."""
        kept, positions = inputs
        limit = self.config.max_len
        if max(kept.lengths) > limit:
            raise CapacityError(f"sequence of {max(kept.lengths)} exceeds max_len {limit}")
        if positions.size and positions.max() >= limit:
            raise CapacityError(f"position {positions.max()} exceeds positional capacity {limit}")
        if 0 in kept.lengths:
            positions = np.insert(positions, kept.empty_slots(), 0)
            kept = kept.fill_empty(ad.reshape(tape.param(self.null_token),
                                              (1, self.config.d_in)))
        return kept, positions

    def project_input(self, tape: ad.Tape, inputs: tuple[Packed, Tensor]) -> Packed:
        """The packed rows of the input projection plus the positions."""
        kept, positions = inputs
        rows = ad.add(ad.linear(kept.rows, tape.param(self.in_w), tape.param(self.in_b)),
                      positions)
        return Packed(rows, kept.lengths)

    def head(self, tape: ad.Tape, pooled: Tensor) -> Tensor:
        """Logits [B, C] of each sequence's pooled row, [B, d_model]."""
        return ad.linear(pooled, tape.param(self.head_w), tape.param(self.head_b))


def init_parameters(config: TaskPerformerConfig, rng: SeededRng) -> TaskPerformer:
    """Fresh TaskPerformer: projection weights ~ N(0, config.init_std),
    biases zero, norm gains one; bit-identical for identical seeds."""
    stddev = config.init_std
    model = TaskPerformer(config)
    model.in_w.value = rng.split(0).normals(model.in_w.value.size, 0.0, stddev).reshape(model.in_w.shape)
    model.pos_table.value = rng.split(1).normals(model.pos_table.value.size, 0.0, stddev).reshape(model.pos_table.shape)
    model.null_token.value = rng.split(2).normals(model.null_token.value.size, 0.0, stddev)
    for i, block in enumerate(model.blocks):
        block.init(rng.split(3, i), stddev)
    model.head_w.value = rng.split(4).normals(model.head_w.value.size, 0.0, stddev).reshape(model.head_w.shape)
    return model


# ---------------------------------------------------------------------------
# checkpoint format: "STKN", version u32, then per parameter
#   name_len u32 | name utf-8 | rank u32 | dims u32... | payload f64 LE

def save_checkpoint(path: str, parameters: list[Parameter]) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for p in parameters:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.value.ndim))
            for dim in p.value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ContractError(f"checkpoint truncated in {what}: "
                            f"{len(raw)} of {size} bytes present")
    return raw


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "the header"))
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"unsupported checkpoint version {version}")
        while True:
            if not fh.read(1):
                break
            fh.seek(-1, 1)
            where = f"the parameter after {name!r}" if out else "the first parameter"
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, where))
            name = _read_exact(fh, name_len, where).decode("utf-8")
            where = f"parameter {name!r}"
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, where))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, where))
            count = int(np.prod(dims)) if rank else 1
            payload = _read_exact(fh, 8 * count, where)
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return out


def restore_parameters(parameters: list[Parameter], arrays: dict[str, np.ndarray]) -> None:
    for p in parameters:
        if p.name not in arrays:
            raise ContractError(f"checkpoint is missing parameter {p.name}")
        if arrays[p.name].shape != p.value.shape:
            raise ContractError(f"checkpoint shape mismatch for {p.name}")
        p.value = arrays[p.name].astype(np.float64)
