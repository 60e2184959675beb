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
from .selection import (KeepProbPredictor, SelectionMask, StrategyConfig, apply_ste,
                        compute_keep_probabilities, inference_k_for, inference_rank_topk,
                        original_positions, reencode_positions, run_strategy,
                        selection_loss, total_loss)
from .stages import Packed, Stage, beside

# stream labels under the run seed
_L_INIT_TASK, _L_INIT_SCORER, _L_INIT_CONTEXT = 0, 1, 2
_L_SPLIT, _L_SHUFFLE, _L_NOISE = 3, 4, 5

# the one hook of the forward pass: keep probabilities s [B, n] of a batch ->
# its selection mask
Selector = Callable[[Tensor], SelectionMask]

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
        self.needs_scorer = cfg.strategy.kind != "uniform_fixed"
        self.scorer = (KeepProbPredictor(d).init(rng.split(_L_INIT_SCORER), stddev=std)
                       if self.needs_scorer else None)
        self.context = (ContextModel(d).init(rng.split(_L_INIT_CONTEXT), stddev=std)
                        if len(self.streams) == 2 and self.needs_scorer else None)

    def parameters(self) -> list[Parameter]:
        out = list(self.task.parameters())
        if self.scorer is not None:
            out += self.scorer.parameters()
        if self.context is not None:
            out += self.context.parameters()
        return out

    def positions(self, tape: Tape, mask: SelectionMask) -> Tensor:
        """The positional rows [R, d_model] of the kept tokens, in
        `apply_ste`'s packed order, every stream's rows encoded alike from
        the one table."""
        encode = reencode_positions if self.cfg.positions == "compact" else original_positions
        return encode(mask, tape.param(self.task.pos_table), len(self.streams))

    def batch_tokens(self, examples: list[Example]) -> list[Tensor]:
        """One constant token tensor [B, n, d] of a batch per stream of the run."""
        return [ad.constant(np.stack([getattr(ex, field) for ex in examples]))
                for field, _ in self.streams]

    def sampler(self, noise_rng: SeededRng) -> Selector:
        """The training selector: the run's strategy drawing from noise_rng."""
        return lambda s: run_strategy(s, self.cfg.strategy, noise_rng)

    def ranker(self) -> Selector:
        """The inference selector: rank keep probabilities, no noise."""
        strategy = self.cfg.strategy
        return lambda s: inference_rank_topk(s, inference_k_for(strategy, s.shape[1]))

    def sparsify(self, tape: Tape, streams: list[Tensor],
                 select: Selector) -> tuple[Packed, SelectionMask]:
        """The first half of the forward: the kept tokens packed by
        `apply_ste` (every stream's rows, example by example) and the
        batch's selection mask, which all streams share.

        streams are [B, n, d], one per stream of the run; `select` turns the
        batch's keep probabilities into its mask (unused by uniform_fixed,
        which has no scorer). Reads no task parameter.
        """
        scores = self.keep_probabilities(tape, streams) if self.needs_scorer else None
        return self.pack(streams, scores, select)

    def pack(self, streams: list[Tensor], scores: Tensor | None,
             select: Selector) -> tuple[Packed, SelectionMask]:
        """`sparsify` from the keep probabilities: the mask `select` makes of
        them, or uniform_fixed's, and the kept tokens."""
        batch, n = streams[0].shape[:2]
        if self.cfg.strategy.kind == "uniform_fixed":
            # imported here, not at the top: perfbench's tracer patches
            # selection.uniform_fixed_select by name
            from .selection import uniform_fixed_select
            mask = uniform_fixed_select(n, self.cfg.strategy.k, batch)
        else:
            mask = select(scores)
        return apply_ste(streams, mask), mask

    def keep_probabilities(self, tape: Tape, streams: list[Tensor]) -> Tensor:
        """The scorer's keep probabilities s [B, n] of the context model's
        fusion of the streams, or of the one stream of a run without one."""
        u = self.context.fuse(tape, *streams) if self.context is not None else streams[0]
        return compute_keep_probabilities(tape, u, self.scorer)

    def classify(self, tape: Tape, kept: Packed,
                 mask: SelectionMask) -> tuple[Tensor, SelectionMask]:
        """The second stage: class logits [B, C] of the kept tokens, and the
        mask passed through. Reads only task parameters."""
        return self.task.forward(tape, kept, self.positions(tape, mask)), mask

    def stages(self, select: Selector) -> list[Stage]:
        """`forward_batch` as one list of one-op stages (see `stages`), from
        the streams to the logits [B, C]: the keep-probability stages
        (`ContextModel.stages`, then `KeepProbPredictor.stages`) with the
        streams carried beside them, selection with `apply_ste`, the
        positional rows, then `TaskPerformer.stages`.

        The states: the streams; (streams, the keep-probability stages'
        state); (kept, mask) after selection; (kept, positional rows), and
        the task model's states after that.
        """
        keep: list[Stage] = []
        if self.context is not None:
            keep += self.context.stages()
        if self.scorer is not None:
            keep += self.scorer.stages()
        return [Stage("streams", (), lambda tape, streams: (
                    streams, streams if self.context is not None else streams[0])),
                *map(beside, keep),
                Stage("selection", (), lambda tape, state: self.pack(*state, select)),
                Stage("positions", (self.task.pos_table,), lambda tape, state: (
                    state[0], self.positions(tape, state[1]))),
                *self.task.stages()]

    def forward_batch(self, tape: Tape, streams: list[Tensor],
                      select: Selector) -> tuple[Tensor, SelectionMask]:
        """Class logits [B, C] and the batch's selection mask: `sparsify`,
        then `classify`."""
        return self.classify(tape, *self.sparsify(tape, streams, select))

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


def keep_fraction_of(strategy: StrategyConfig, n: int) -> float:
    """The fraction of n tokens a strategy keeps: its target ratio, or K / n."""
    if strategy.kind == "ratio_controlled":
        return strategy.target_ratio
    return strategy.k / n


def train_step(pipeline: Pipeline, params: list[Parameter], batch: list[Example],
               noise_rng: SeededRng) -> tuple[float, SelectionMask]:
    """One plain gradient-descent step on a minibatch: the forward pass with
    the strategy's sampler drawing from noise_rng, the backward pass, and
    the update of params. Returns the batch's mean loss and its mask."""
    strategy, lr = pipeline.cfg.strategy, pipeline.cfg.lr
    with Tape() as tape:
        logits, mask = pipeline.forward_batch(tape, pipeline.batch_tokens(batch),
                                              pipeline.sampler(noise_rng))
        labels = np.array([ex.label for ex in batch])
        loss = ad.mean_all(ad.cross_entropy_loss(logits, labels))
        if strategy.kind == "ratio_controlled" and strategy.lam > 0:
            loss = total_loss(loss, selection_loss(mask, strategy.target_ratio), strategy.lam)
        tape.backward(loss)
        for p in params:
            p.value = p.value - lr * tape.grad(p)
    return loss.item(), mask


def retain_heap() -> bool:
    """Keep the memory a training step frees for the next step; True where
    the policy is in force (glibc), False elsewhere. Idempotent.

    By default glibc serves every block above a dynamic threshold (128 KiB
    at first) with a fresh mmap, and hands the top of the heap back to the
    kernel once more than twice that threshold is free, so each step
    page-faults its tape's arrays in again. Here blocks below 32 MiB come
    from the heap, and the heap keeps up to 64 MiB of free memory at its
    top. The largest heap a run grows measured 29 MiB for a K=32 sweep cell
    (n=32, B=32) and 45 MiB for multimodal training (64 rows a context
    attention, B=32), so at these sizes no step hands memory back.
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
    if strategy.k is not None and strategy.k > n_tokens:
        raise ConfigError(f"K={strategy.k} exceeds sequence length {n_tokens}")
    if cfg.positions == "original" and n_tokens > cfg.model.max_len:
        raise ConfigError(f"positions=original reads the positional table at each token's "
                          f"index, so n={n_tokens} must not exceed max_len={cfg.model.max_len}")

    pipeline = Pipeline(cfg, header)
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
            keep_fraction=keep_fraction_of(strategy, n_tokens),
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
