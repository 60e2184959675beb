"""End-to-end training of the selection + task pipeline on needle datasets.

One run = one seed, one strategy, one dataset. Plain momentum-free gradient
descent; every stochastic choice (split, shuffles, Gumbel noise) draws from
labelled sub-streams of the run seed so reruns are bit-identical. Each
training step and each evaluation chunk runs its whole minibatch through one
batched forward pass.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .data import STREAMS, Example, load_dataset
from .errors import ConfigError
from .metrics import MetricsRow, timing_enabled, write_metrics_csv
from .model import TaskPerformerConfig, init_parameters, save_checkpoint
from .multimodal import ContextModel
from .rng import SeededRng
from .selection import (LAWS, KeepProbPredictor, SelectionMask, StrategyConfig, apply_ste,
                        compute_keep_probabilities, inference_rank_topk, original_positions,
                        reencode_positions, run_strategy, selection_loss, total_loss)
from .stages import Packed, Stage, beside

# stream labels under the run seed
_L_INIT_TASK, _L_INIT_SCORER, _L_INIT_CONTEXT = 0, 1, 2
_L_SPLIT, _L_SHUFFLE, _L_NOISE = 3, 4, 5

# the one hook of the forward pass: keep probabilities s [B, n] of a batch (or
# under a law that reads none, its first stream) -> its selection mask
Selector = Callable[[Tensor], SelectionMask]
keep_fraction_of = StrategyConfig.keep_fraction  # the name perfbench's probe calls

# glibc mallopt parameters (malloc.h) and the heap policy of `retain_heap`
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_heap_policy: bool | None = None

# a run has diverged when its last epoch's train loss exceeds the first
# epoch's by more than this factor
DIVERGENCE_FACTOR = 10.0

CHANNELS = ("both", "visual", "textual")
POSITION_MODES = ("compact", "original")


@dataclass
class RunConfig:
    dataset: str
    strategy: StrategyConfig
    model: TaskPerformerConfig = field(default_factory=TaskPerformerConfig)
    lr: float = 0.1  # plain SGD needs this much; 1e-2 cannot move the toy model
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    eval_fraction: float = 0.2
    out_dir: str | None = None
    channel: str = "both"
    positions: str = "compact"

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ConfigError(f"unknown channel {self.channel!r}")
        if self.positions not in POSITION_MODES:
            raise ConfigError(f"unknown positions mode {self.positions!r}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 < self.eval_fraction < 1:
            raise ConfigError("eval_fraction must lie in (0, 1)")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")

    def config_dict(self, num_classes: int) -> dict:
        """The run's settings for a CSV config block; num_classes is the
        dataset's, which the task head is built for."""
        s, m = self.strategy, self.model
        return {
            "dataset": self.dataset, "strategy": s.kind, "k": s.k,
            "target_ratio": s.target_ratio, "tau": s.tau, "lambda": s.lam,
            "lr": self.lr, "epochs": self.epochs, "batch_size": self.batch_size,
            "seed": self.seed, "eval_fraction": self.eval_fraction,
            "channel": self.channel, "positions": self.positions,
            "d_model": m.d_model, "heads": m.heads, "layers": m.layers,
            "max_len": m.max_len, "num_classes": num_classes, "ff_mult": m.ff_mult,
        }


class Pipeline:
    """The trainable pieces of one run: task model, and if the strategy is
    learnable, the scorer (plus, when the run reads two streams, the context
    model that feeds it). `streams` holds the `data.STREAMS` entries the run
    reads: both of a multimodal dataset under channel "both", else the one
    the channel names (visual, for "both" on a unimodal dataset)."""

    def __init__(self, cfg: RunConfig, header: dict):
        if cfg.channel == "textual" and not header["multimodal"]:
            raise ConfigError("channel=textual requires a multimodal dataset")
        d = header["d"]
        self.streams = {"both": STREAMS[:2 if header["multimodal"] else 1],
                        "visual": STREAMS[:1], "textual": STREAMS[1:]}[cfg.channel]
        self.cfg = cfg
        model_cfg = replace(cfg.model, d_in=d, num_classes=header["num_classes"])
        rng = SeededRng(cfg.seed)
        std = model_cfg.init_std
        self.task = init_parameters(model_cfg, rng.split(_L_INIT_TASK))
        self.scorer = (KeepProbPredictor(d).init(rng.split(_L_INIT_SCORER), stddev=std)
                       if LAWS[cfg.strategy.kind].reads_scores else None)
        self.context = (ContextModel(d).init(rng.split(_L_INIT_CONTEXT), stddev=std)
                        if len(self.streams) == 2 and self.scorer is not None else None)

    def parameters(self) -> list[Parameter]:
        return [p for part in (self.task, self.scorer, self.context) if part is not None
                for p in part.parameters()]

    def batch_tokens(self, examples: list[Example]) -> list[Tensor]:
        """One constant token tensor [B, n, d] of a batch per stream of the run."""
        return [ad.constant(np.stack([getattr(ex, field) for ex in examples]))
                for field, _ in self.streams]

    def sampler(self, noise_rng: SeededRng | None) -> Selector:
        """The training selector: the run's strategy drawing from noise_rng."""
        return lambda s: run_strategy(s, self.cfg.strategy, noise_rng)

    def ranker(self) -> Selector:
        """The inference selector: rank keep probabilities, no noise (a law
        that reads none draws no noise, and selects as in training)."""
        if not LAWS[self.cfg.strategy.kind].reads_scores:
            return self.sampler(None)
        return lambda s: inference_rank_topk(s, self.cfg.strategy.eval_k(s.shape[1]))

    def pack(self, streams: list[Tensor], scores: Tensor,
             select: Selector) -> tuple[tuple[Packed, np.ndarray], SelectionMask]:
        """The task model's input and the batch's mask, which all streams
        share: the one `select` makes of the keep probabilities `scores`
        (see `Selector`). The input is the kept tokens packed by `apply_ste`
        (every stream's rows, example by example) and their positional table
        rows, every stream's encoded alike."""
        mask = select(scores)
        encode = reencode_positions if self.cfg.positions == "compact" else original_positions
        return (apply_ste(streams, mask), encode(mask, len(streams))), mask

    def stages(self, select: Selector) -> list[Stage]:
        """`forward_batch` as one list of one-op stages (see `stages`), from
        the streams to the logits [B, C]: the keep-probability stages
        (`ContextModel.stages`, then `KeepProbPredictor.stages`) with the
        streams carried beside them, selection (`pack`), then
        `TaskPerformer.stages`.

        The states: the streams; (streams, the keep-probability stages'
        state); the task model's input (kept, positions) after selection,
        and the task model's states after that.
        """
        keep = [stage for part in (self.context, self.scorer) if part is not None
                for stage in part.stages()]
        return [Stage("streams", (), lambda tape, streams: (
                    streams, streams if self.context is not None else streams[0])),
                *map(beside, keep),
                Stage("selection", (), lambda tape, state: self.pack(*state, select)[0]),
                *self.task.stages()]

    def forward_batch(self, tape: Tape, streams: list[Tensor],
                      select: Selector) -> tuple[Tensor, SelectionMask]:
        """Class logits [B, C] and the selection mask of streams [B, n, d],
        one per stream of the run: `select` turns the keep probabilities
        s [B, n] into the mask (see `Selector`)."""
        scores = self.context.fuse(tape, *streams) if self.context is not None else streams[0]
        if self.scorer is not None:
            scores = compute_keep_probabilities(tape, scores, self.scorer)
        inputs, mask = self.pack(streams, scores, select)
        return self.task.forward(tape, *inputs), mask

    def loss(self, tape: Tape, streams: list[Tensor], labels: np.ndarray,
             select: Selector) -> tuple[Tensor, SelectionMask]:
        """The training objective of a batch, and its mask: the mean
        cross-entropy of `forward_batch` against labels [B], plus lambda
        times `selection_loss` where the strategy is penalized."""
        logits, mask = self.forward_batch(tape, streams, select)
        loss = ad.mean_all(ad.cross_entropy_loss(logits, labels))
        strategy = self.cfg.strategy
        if strategy.penalized():
            loss = total_loss(loss, selection_loss(mask, strategy.target_ratio), strategy.lam)
        return loss, mask

    def forward_example(self, tape: Tape, ex: Example,
                        noise_rng: SeededRng | None) -> tuple[Tensor, SelectionMask]:
        """Class logits [C] and the selection mask, hard and soft [n], of one
        example: the batched forward on a batch of one; noise_rng None =
        inference path. Kept because perfbench's tracer patches it by name."""
        select = self.ranker() if noise_rng is None else self.sampler(noise_rng)
        logits, mask = self.forward_batch(tape, self.batch_tokens([ex]), select)
        return (ad.reshape(logits, (logits.shape[1],)),
                SelectionMask(mask.hard[0], ad.reshape(mask.soft, (mask.n,))))


@dataclass
class TrainResult:
    rows: list[MetricsRow]
    pipeline: Pipeline
    metrics_path: str | None = None
    checkpoint_path: str | None = None

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]

    @property
    def problem(self) -> str | None:
        """What is wrong with the run's train losses, or None: the first
        non-finite epoch, or else a last epoch more than DIVERGENCE_FACTOR
        times the first."""
        for row in self.rows:
            if not math.isfinite(row.train_loss):
                return f"train loss is {row.train_loss} at epoch {row.epoch}"
        first, final = self.rows[0], self.final
        if final.train_loss > DIVERGENCE_FACTOR * first.train_loss:
            return (f"train loss diverged from {first.train_loss:.6g} at epoch {first.epoch} "
                    f"to {final.train_loss:.6g} at epoch {final.epoch}, more than "
                    f"{DIVERGENCE_FACTOR:g}x")
        return None


def _recall(ex: Example, kept: np.ndarray, streams: tuple[tuple[str, str], ...]) -> float:
    """The share of ex's informative indices, over the given streams, that
    kept holds; 1 when there are none."""
    truth = set().union(*(getattr(ex, index_field).tolist() for _, index_field in streams))
    if not truth:
        return 1.0
    return len(truth & set(kept.tolist())) / len(truth)


def evaluate(pipeline: Pipeline, examples: list[Example]) -> tuple[float, float]:
    """(accuracy, selection recall) on the noise-free inference path, in
    chunks of the run's batch size.

    The tape is never entered, so nothing is recorded: evaluation is a pure
    forward pass.
    """
    correct = 0
    recall_sum = 0.0
    tape = Tape()
    select = pipeline.ranker()
    chunk = pipeline.cfg.batch_size
    for start in range(0, len(examples), chunk):
        part = examples[start:start + chunk]
        logits, mask = pipeline.forward_batch(tape, pipeline.batch_tokens(part), select)
        predicted = np.argmax(logits.data, axis=1)
        for b, ex in enumerate(part):
            correct += int(predicted[b] == ex.label)
            recall_sum += _recall(ex, mask.kept_in(b), pipeline.streams)
    return correct / len(examples), recall_sum / len(examples)


def train_step(pipeline: Pipeline, params: list[Parameter], batch: list[Example],
               noise_rng: SeededRng) -> tuple[float, SelectionMask]:
    """One plain gradient-descent step on a minibatch: `Pipeline.loss` with
    the strategy's sampler drawing from noise_rng, the backward pass, and
    the update of params. Returns the batch's loss and its mask."""
    with Tape() as tape:
        loss, mask = pipeline.loss(tape, pipeline.batch_tokens(batch),
                                   np.array([ex.label for ex in batch]),
                                   pipeline.sampler(noise_rng))
        tape.backward(loss)
        for p in params:
            p.value = p.value - pipeline.cfg.lr * tape.grad(p)
    return loss.item(), mask


def retain_heap() -> bool:
    """Keep the memory a training step frees for the next step; True where
    the policy is in force (glibc), False elsewhere. Idempotent.

    By default glibc serves every block above a dynamic threshold (128 KiB
    at first) with a fresh mmap, and hands the top of the heap back to the
    kernel once more than twice that threshold is free, so each step
    page-faults its tape's arrays in again. Here blocks below 32 MiB come
    from the heap, and the heap keeps up to 64 MiB of free memory at its
    top. In a fresh process one run grows the heap (mallinfo2 arena) to
    21 MiB for a K=32 sweep cell (n=32, B=32, 240 examples, 5 epochs) and
    31 MiB for multimodal training (64 rows a context attention, B=32,
    640 examples, 4 epochs), so at these sizes no step hands memory back.
    """
    global _heap_policy
    if _heap_policy is None:
        _heap_policy = False
        try:
            libc = os.confstr("CS_GNU_LIBC_VERSION")
        except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
            libc = None
        if libc is not None and libc.startswith("glibc"):
            import ctypes

            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            _heap_policy = bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
    return _heap_policy


def train_run(cfg: RunConfig) -> TrainResult:
    """Train per cfg; returns per-epoch metrics and writes artifacts if out_dir set."""
    retain_heap()
    examples, header = load_dataset(cfg.dataset)
    if not examples:
        raise ConfigError(f"dataset {cfg.dataset} has no examples")
    n_tokens = header["n"]
    strategy = cfg.strategy
    kept = strategy.max_kept(n_tokens)
    if kept > n_tokens:
        raise ConfigError(f"K={kept} exceeds sequence length {n_tokens}")
    if cfg.positions == "original" and n_tokens > cfg.model.max_len:
        raise ConfigError(f"positions=original reads the positional table at each token's "
                          f"index, so n={n_tokens} must not exceed max_len={cfg.model.max_len}")
    pipeline = Pipeline(cfg, header)
    if len(pipeline.streams) * kept > cfg.model.max_len:
        raise ConfigError(f"a packed sequence can reach {len(pipeline.streams)} streams x {kept} "
                          f"kept tokens = {len(pipeline.streams) * kept} rows, more than "
                          f"max_len={cfg.model.max_len}")

    params = pipeline.parameters()
    run_rng = SeededRng(cfg.seed)

    perm = run_rng.split(_L_SPLIT).permutation(len(examples))
    eval_count = max(1, round(len(examples) * cfg.eval_fraction))
    train_idx = perm[:-eval_count]
    eval_idx = perm[-eval_count:]
    train_set = [examples[i] for i in train_idx]
    eval_set = [examples[i] for i in eval_idx]
    if not train_set:
        raise ConfigError(f"eval_fraction {cfg.eval_fraction} leaves no training example "
                          f"of {len(examples)}")

    rows: list[MetricsRow] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = run_rng.split(_L_SHUFFLE, epoch).permutation(len(train_set))
        loss_sum = 0.0
        ratio_sum = 0.0
        for batch_no, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            loss, mask = train_step(pipeline, params, batch,
                                    run_rng.split(_L_NOISE, epoch, batch_no))
            loss_sum += loss * len(batch)
            ratio_sum += sum(mask.keep_ratio.tolist())
        accuracy, recall = evaluate(pipeline, eval_set)
        elapsed = time.perf_counter() - t0
        rows.append(MetricsRow(
            keep_fraction=strategy.keep_fraction(n_tokens),
            strategy=strategy.kind, tau=strategy.tau, lam=strategy.lam,
            seed=cfg.seed, epoch=epoch,
            train_loss=loss_sum / len(train_set),
            eval_accuracy=accuracy,
            mean_keep_ratio=ratio_sum / len(train_set),
            selection_recall=recall,
            wall_seconds=elapsed if timing_enabled() else 0.0,
        ))

    result = TrainResult(rows, pipeline)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        result.metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
        result.checkpoint_path = os.path.join(cfg.out_dir, "checkpoint.stkn")
        write_metrics_csv(result.metrics_path, rows, cfg.config_dict(header["num_classes"]))
        save_checkpoint(result.checkpoint_path, params)
    return result
