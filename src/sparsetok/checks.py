"""Self-verification oracles: finite-difference gradient suites and
Monte-Carlo sampling checks. Both print one line per suite and report the
worst deviation, so a fresh build can prove its own wiring. One evaluator,
`stacked_central_differences`, takes the finite differences of all three
gradient suites, and one driver, `monte_carlo_mean`, draws the trials of
every sampling suite.
"""
from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import autodiff as ad
from . import data
from .autodiff import (CENTRAL, FOURTH_ORDER, Parameter, Stencil, Tape, Tensor,
                       central_difference_check, difference_quotients, perturb_each)
from .errors import ConfigError, ContractError
from .gumbel import gumbel_max_sample, sample_standard_gumbel
from .model import TaskPerformerConfig
from .rng import SeededRng
from .selection import SelectionMask, StrategyConfig, gumbel_topk_select
from .stages import Packed, Stage, run_stages
from .train import Pipeline, RunConfig, Selector

GRAD_TOLERANCE = 1e-4
FD_STEP = 1e-5  # the central differences of the catalog and the straight-through suite
# The multimodal suite's finite differences. Some of its gradients are about
# 1e-7, where a central difference at FD_STEP rounds to about 1e-4 relative
# error (up to 2.8e-4, at seed 7). The fourth-order stencil is
# as accurate at a hundred times the step, and rounds a hundred times less.
MULTIMODAL_STENCIL, MULTIMODAL_STEP = FOURTH_ORDER, 1e-3
# the most perturbed points a gradient suite stacks into one batch: the
# multimodal suite's traced peak (tracemalloc) is 0.9 MiB at 64, 1.7 at 128,
# 3.3 at 256 and 8.9 MiB with no bound, the straight-through suite's 0.33,
# 0.60 and, with no bound, 0.66 MiB
STACK_REPLICAS = 64


@dataclass
class SuiteReport:
    name: str
    worst: float
    ok: bool
    detail: str = ""

    def line(self) -> str:
        tail = f" (worst: {self.detail})" if self.detail and not self.ok else ""
        return f"{self.name} {self.worst:.3e} {'pass' if self.ok else 'fail'}{tail}"


def stack(states: list):
    """The states of several batches at one stage as one batch: packed rows
    end to end with their lengths in turn, tensors and index arrays along
    their first axis, tuples and lists component by component."""
    first = states[0]
    if isinstance(first, Packed):
        return Packed(ad.constant(np.concatenate([s.rows.data for s in states])),
                      sum((s.lengths for s in states), ()))
    if isinstance(first, (tuple, list)):
        return type(first)(stack(list(parts)) for parts in zip(*states))
    if isinstance(first, np.ndarray):
        return np.concatenate(states)
    return ad.constant(np.concatenate([s.data for s in states]))


def stacked_central_differences(stages: list[Stage], base, arrays: Iterable[np.ndarray],
                                losses: Callable[..., np.ndarray], step: float,
                                stencil: Stencil) -> Iterator[np.ndarray]:
    """The finite differences (`stencil` at `step`) of a loss wrt each of
    `arrays`, in order: the loss runs `stages` from the state `base`, and
    `losses` maps the last stage's output on a stack of replicas to each
    replica's loss.

    The one evaluator of every gradient suite. The stages run once at the
    base point; then each perturbed point of an array (`perturb_each`) runs
    only the stages from the first to the last that name it, from the base
    point's state: for most arrays the one op that reads it. The points'
    states are stacked along the batch axis (`stack`, at most
    `STACK_REPLICAS` a stack), and the later stages and `losses` run once on
    the stack, as soon as it is full, while the array is still perturbed:
    the stages after the last that names it do not read it. Nothing is
    recorded: the stages read the arrays in place, so the perturbations
    reach them, and a point's state must not be a view of its array, which
    moves on before the stack is built.
    """
    tape = Tape()  # never entered: it records nothing and hands out the values themselves
    states = [base]  # the base point's state entering each stage
    for stage in stages[:-1]:
        states.append(stage.run(tape, states[-1]))
    for array in arrays:
        reading = [i for i, stage in enumerate(stages)
                   if any(p.value is array for p in stage.parameters)]
        first, end = reading[0], reading[-1] + 1
        span = stages[first:end]
        points = (run_stages(tape, span, states[first]) for _ in perturb_each(array, step, stencil))
        replicas = [losses(run_stages(tape, stages[end:], stack(chunk)))
                    for chunk in iter(lambda: list(itertools.islice(points, STACK_REPLICAS)), [])]
        yield difference_quotients(np.concatenate(replicas), step, stencil)


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.mean_all(ad.mask_multiply(out, weights))


def replica_means(out: Tensor, weights: np.ndarray) -> np.ndarray:
    """`_scalarize(out, weights)` of each replica stacked in out: each
    replica's outputs, weights.size of them in turn, are one contiguous row,
    weighted and summed in `mean_all`'s order, so each mean is bit for bit
    that of its replica alone."""
    rows = out.data.reshape(-1, weights.size) * weights.reshape(-1)
    return np.add.reduce(rows, axis=1) / weights.size


def _rand(rng: SeededRng, shape) -> np.ndarray:
    return rng.normals(int(np.prod(shape))).reshape(shape)


# seven sequences, out of length order, that `attention` runs in three
# length groups (`autodiff._rows_by_length`): five sequences of 1 row
# together, then the one of 2 rows and the one of 8
GROUPED_LENGTHS = (1, 2, 1, 8, 1, 1, 1)


def _catalog_cases(rng: SeededRng):
    """(case name, point, op, weights) of every op form the pipeline
    records, one case for each operand it differentiates: the op maps a
    leaf x to a tensor, and the case's loss is mean(op(x) * weights), or
    op(x) itself, a [1] loss, where weights is None (`catalog_case`).
    `multiply`, `exp` and `mask_multiply` are no pipeline op, but each has
    a case: perfbench's tracer patches them by name, and `mask_multiply`
    weights every other loss. `straight_through` has none: no finite
    difference sees its surrogate gradient, which the two pipeline suites
    check.

    Every constant is drawn up front: the ops must be pure functions of x
    or the finite differences are meaningless.
    """
    r = lambda shape: _rand(rng, shape)
    const = ad.constant
    w1, w23, w32, w34, w33, w22a, w22b, w43 = (r((1,)), r((2, 3)), r((3, 2)), r((3, 4)),
                                               r((3, 3)), r((2, 2)), r((2, 2)), r((4, 3)))
    w24, w2, w264, w64, w10_2, w15_2 = (r((2, 4)), r((2,)), r((2, 6, 4)), r((6, 4)),
                                        r((10, 2)), r((15, 2)))
    b234, b23, c1 = r((2, 3, 4)), r((2, 3)), r((1,))
    ln_gain, ln_bias = np.abs(r((4,))) + 0.5, r((4,))
    lin_x, lin_w, lin_b = r((3, 4)), r((4, 2)), r((2,))
    mask = (np.abs(r((2, 3))) > 0.5).astype(float)
    rows = np.array([[2, 0, 2], [1, 1, 0]])  # repeated rows check additive scatter
    return [
        ("add", r((2, 3)), lambda x: ad.add(x, const(w23)), w23),
        ("add_batched", r((2, 3, 4)), lambda x: ad.add(x, const(b234)), b234),
        ("add_loss_terms", r((1,)), lambda x: ad.add(x, const(c1)), w1),
        # the pipeline subtracts its differentiated operand from a constant
        ("subtract", r((2, 3)), lambda x: ad.subtract(const(w23), x), w23),
        ("multiply_elementwise", r((2, 3)), lambda x: ad.multiply(x, const(w23)), w23),
        ("matmul_left", r((2, 3)), lambda x: ad.matmul(x, const(w32)), w22a),
        ("matmul_right", r((3, 2)), lambda x: ad.matmul(const(w23), x), w22b),
        ("linear_x", r((3, 4)), lambda x: ad.linear(x, const(lin_w), const(lin_b)), w32),
        ("linear_w", r((4, 2)), lambda x: ad.linear(const(lin_x), x, const(lin_b)), w32),
        ("linear_b", r((2,)), lambda x: ad.linear(const(lin_x), const(lin_w), x), w32),
        ("scale", r((2, 3)), lambda x: ad.scale(x, 1.7), w23),
        ("scale_loss_term", r((1,)), lambda x: ad.scale(x, -0.6), w1),
        ("log", np.abs(r((2, 3))) + 0.5, ad.log, w23),
        ("exp", r((2, 3)), ad.exp, w23),
        ("square", r((2, 3)), ad.square, w23),
        ("gelu", r((2, 3)), ad.gelu, w23),
        ("layer_norm_x", r((3, 4)),
         lambda x: ad.layer_norm(x, const(ln_gain), const(ln_bias)), w34),
        ("layer_norm_gain", r((4,)),
         lambda x: ad.layer_norm(const(w34), x, const(ln_bias)), w34),
        ("layer_norm_bias", r((4,)),
         lambda x: ad.layer_norm(const(w34), const(ln_gain), x), w34),
        ("concat_rows_left", r((2, 3)), lambda x: ad.concat_rows(x, const(w23)), w43),
        ("concat_rows_right", r((2, 3)), lambda x: ad.concat_rows(const(w23), x), w43),
        ("concat_rows_left_batched", r((2, 3, 4)), lambda x: ad.concat_rows(x, const(b234)),
         w264),
        ("concat_rows_right_batched", r((2, 3, 4)), lambda x: ad.concat_rows(const(b234), x),
         w264),
        ("gather_rows", r((4, 3)), lambda x: ad.gather_rows(x, rows[0]), w33),
        ("gather_rows_table", r((3, 4)),  # one table, a batch of index rows
         lambda x: ad.gather_rows(x, rows), b234),
        ("mask_multiply", r((2, 3)), lambda x: ad.mask_multiply(x, mask), w23),
        ("mean_all", r((2, 3)), ad.mean_all, None),
        ("mean_all_loss_term", r((1,)), ad.mean_all, w1),
        ("transpose", r((2, 3)), ad.transpose, w32),
        ("reshape", r((2, 3)), lambda x: ad.reshape(x, (3, 2)), w32),
        ("reshape_batched", r((2, 3, 4)), lambda x: ad.reshape(x, (6, 4)), w64),
        ("scale_rows_batched", r((2, 3)), lambda x: ad.scale_rows(const(b234), x), b234),
        ("scale_rows_tokens_batched", r((2, 3, 4)), lambda x: ad.scale_rows(x, const(b23)),
         b234),
        ("softmax_with_temperature", r((2, 4)), lambda x: ad.softmax_with_temperature(x, 1.3), w24),
        ("cross_entropy_loss", r((2, 4)), lambda x: ad.cross_entropy_loss(x, np.array([1, 3])), w2),
        # one head on one sequence; two heads on packed sequences of 2 and 4
        # rows; two heads of width 1 on sequences of 4 and 6 rows, longer
        # than the head width; and two heads of width 1 on sequences that
        # run in three length groups, one of several sequences
        ("attention_1head", r((3, 6)), lambda x: ad.attention(x, (3,), 1), w32),
        ("attention_2heads_unequal_lengths", r((6, 12)), lambda x: ad.attention(x, (2, 4), 2),
         w64),
        ("attention_2heads_length4_6", r((10, 6)), lambda x: ad.attention(x, (4, 6), 2), w10_2),
        ("attention_2heads_length_groups", r((15, 6)),
         lambda x: ad.attention(x, GROUPED_LENGTHS, 2), w15_2),
        # sequences of 1, 3 and 2 rows: a one-row mean is the row itself
        ("segment_mean_lengths1_3_2", r((6, 4)), lambda x: ad.segment_mean(x, (1, 3, 2)), w34),
    ]


def catalog_case(name: str, point: np.ndarray, op: Callable[[Tensor], Tensor],
                 weights: np.ndarray | None) -> ad.Case:
    """The `central_difference_check` case of one catalog entry
    (`_catalog_cases`): the tape gradient of its loss at point, and the
    central differences at `FD_STEP`, each perturbed point running the op
    alone and each stack of points only the weighted mean
    (`replica_means`)."""
    loss = op if weights is None else lambda x: _scalarize(op(x), weights)
    with Tape() as tape:
        x = tape.leaf(point)
        tape.backward(loss(x))
        analytic = tape.grad(x)
    # each point's output copied, flat: a reshape or a transpose is a view of
    # the point
    value = Tensor(point)
    stage = Stage(name, (Parameter(name, point),),
                  lambda tape, _: Tensor(op(value).data.flatten()))
    replica = ((lambda out: out.data.reshape(-1)) if weights is None
               else lambda out: replica_means(out, weights))
    numeric, = stacked_central_differences([stage], None, [point], replica, FD_STEP, CENTRAL)
    return name, numeric, analytic


def check_catalog(repeats: int = 3, seed: int = 2024) -> SuiteReport:
    """Finite differences vs tape gradients for every catalog primitive."""
    worst, where = central_difference_check(
        catalog_case(*case) for rep in range(repeats)
        for case in _catalog_cases(SeededRng(seed).split(rep)))
    return SuiteReport("autodiff_catalog", worst, worst <= GRAD_TOLERANCE, where)


def frozen_selector(select: Selector) -> Selector:
    """Wrap a selector with fixed noise so finite differences see one smooth
    function: the soft surrogate the straight-through estimator linearizes.

    The first call fixes the base point's kept set; every later call keeps
    that set whatever the selector would pick. On kept rows the forwarded
    hard value is soft + (1 - soft0), soft0 being the base point's soft
    weights: exactly 1 at the base point, so the tape's straight-through
    gradient is the one of the base mask, and away from it a smooth function
    whose derivative equals that gradient. A batch of several copies of the
    base batch, stacked, keeps the base set in each copy; `select` must then
    give each copy the base batch's noise.
    """
    base: list[SelectionMask] = []

    def select_frozen(s: Tensor) -> SelectionMask:
        if base and s.shape[0] % base[0].hard.shape[0]:
            raise ContractError(f"a batch of {s.shape[0]} does not stack copies of the base "
                                f"batch of {base[0].hard.shape[0]}")
        mask = select(s)
        if not base:
            base.append(mask)
        copies = s.shape[0] // base[0].hard.shape[0]
        tiled = lambda a: np.tile(a, (copies, 1))
        keep = tiled(base[0].hard > 0)
        hard = np.where(keep, mask.soft.data + (1.0 - tiled(base[0].soft.data)), 0.0)
        return SelectionMask(hard, mask.soft)

    return select_frozen


@dataclass
class ReplayedNoise:
    """A noise stream whose `uniforms(count)` replays its first draw, tiled
    to count values: through `Pipeline.sampler`, a stack of copies of the
    base batch (`stack`) draws the base batch's noise for every copy."""

    rng: SeededRng
    first: np.ndarray | None = None

    def uniforms(self, count: int) -> np.ndarray:
        if self.first is None:
            self.first = self.rng.uniforms(count)
        return np.tile(self.first, count // self.first.size)


# the task model of both pipeline suites; a large init keeps every gradient
# above the finite-difference noise floor
CHECK_MODEL = TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=12, ff_mult=2,
                                  init_std=0.5)


def ste_point(seed: int) -> tuple[Pipeline, list[Parameter], np.ndarray, Selector]:
    """The straight-through suite's base point at `seed`: a one-stream
    `gumbel_topk` pipeline (K=3, tau=0.5), its tokens [1, n, d], a batch of
    one, the label and the frozen selector: the training sampler on the
    noise a fresh SeededRng(99) draws for the batch (`ReplayedNoise`)."""
    rng = SeededRng(seed)
    d, n = 6, 8
    strategy = StrategyConfig("gumbel_topk", k=3, tau=0.5)
    pipeline = Pipeline(RunConfig(dataset="", strategy=strategy, model=CHECK_MODEL, seed=seed),
                        {"d": d, "multimodal": False, "num_classes": 3})
    select = frozen_selector(pipeline.sampler(ReplayedNoise(SeededRng(99))))
    return pipeline, [Parameter("tokens", _rand(rng.split(0), (1, n, d)))], np.array([1]), select


def check_ste_soft_path(seed: int = 7) -> SuiteReport:
    """STE gradients wrt the scorer's parameters vs central differences of
    the frozen-noise, frozen-kept-set soft surrogate (`pipeline_cases`):
    the `gumbel_topk` pipeline training runs, on a batch of one
    (`ste_point`), so the check runs through the scorer, the Gumbel top-K
    gate, `apply_ste` and the task model."""
    pipeline, streams, labels, select = ste_point(seed)
    worst, where = central_difference_check(pipeline_cases(
        pipeline, streams, labels, select, pipeline.scorer.parameters(), FD_STEP, CENTRAL))
    return SuiteReport("ste_soft_path", worst, worst <= GRAD_TOLERANCE, where)


def multimodal_point(seed: int) -> tuple[Pipeline, list[Parameter], np.ndarray, Selector]:
    """The multimodal suite's base point at `seed`: a two-stream
    ratio-controlled pipeline at lambda 0, as `pipeline_cases` requires,
    its streams [visual, textual] of a batch of two, the labels and the
    frozen selector: the training sampler on the noise a fresh
    SeededRng(55) draws for the batch (`ReplayedNoise`)."""
    rng = SeededRng(seed)
    d, n = 6, 5
    strategy = StrategyConfig("ratio_controlled", target_ratio=0.5, tau=0.5, lam=0.0)
    pipeline = Pipeline(RunConfig(dataset="", strategy=strategy, model=CHECK_MODEL, seed=seed),
                        {"d": d, "multimodal": True, "num_classes": 3})
    streams = [Parameter("visual_tokens", _rand(rng.split(0), (2, n, d))),
               Parameter("textual_tokens", _rand(rng.split(1), (2, n, d)))]
    select = frozen_selector(pipeline.sampler(ReplayedNoise(SeededRng(55))))
    return pipeline, streams, np.array([1, 2]), select


def replica_losses(logits: Tensor, labels: np.ndarray) -> np.ndarray:
    """The loss of each of the batches stacked in `logits` [copies * B, C]
    (`stack`), all of whose examples follow `labels`: each batch's mean
    cross-entropy over its own examples."""
    copies = logits.shape[0] // labels.size
    losses = ad.cross_entropy_loss(logits, np.tile(labels, copies)).data
    return losses.reshape(copies, labels.size).mean(axis=1)


def keeping_base_rows(select: Selector) -> Selector:
    """`select`, refusing a stack of batches that does not keep, in every
    copy, the rows its first call, the base batch, kept."""
    base: list[np.ndarray] = []

    def checked(s: Tensor) -> SelectionMask:
        mask = select(s)
        keep = mask.hard != 0
        if not base:
            base.append(keep)
        elif not np.array_equal(keep, np.tile(base[0], (len(keep) // len(base[0]), 1))):
            raise ContractError(f"perturbed points keep rows {mask.kept_count.tolist()}, "
                                f"the base point {base[0].sum(axis=1).tolist()} each")
        return mask

    return checked


def pipeline_cases(pipeline: Pipeline, streams: list[Parameter], labels: np.ndarray,
                   select: Selector, arrays: list[Parameter], step: float,
                   stencil: Stencil) -> Iterator[ad.Case]:
    """The `central_difference_check` cases of the training objective wrt
    each of `arrays` (pipeline parameters or streams). The tape gradient
    runs `Pipeline.loss` once, the frozen selector's first call, which
    fixes the kept set. The finite differences (`stencil` at `step`) are
    `stacked_central_differences` over a first stage that reads the
    streams, then `Pipeline.stages`, each replica's loss its batch's mean
    cross-entropy (`replica_losses`). The frozen selector keeps the base
    point's rows in every copy, and a stack that keeps other rows is
    refused. So is an objective with the selection loss (ratio_controlled,
    lambda > 0): it forwards the hard kept count, which the frozen kept set
    holds fixed."""
    strategy = pipeline.cfg.strategy
    if strategy.penalized():
        raise ContractError(f"lambda={strategy.lam:g} adds the selection loss, which no "
                            "finite difference at a frozen kept set moves")
    with Tape() as tape:
        loss, _ = pipeline.loss(tape, [tape.param(s) for s in streams], labels, select)
        tape.backward(loss)
        analytic = [tape.grad(a) for a in arrays]
    # each point's streams copied: the perturbed array moves on before the
    # stack is built
    stages = [Stage("tokens", tuple(streams), lambda tape, _: [
                  ad.constant(s.value.copy()) for s in streams]),
              *pipeline.stages(keeping_base_rows(select))]
    numeric = stacked_central_differences(
        stages, None, [a.value for a in arrays], lambda logits: replica_losses(logits, labels),
        step, stencil)
    return zip([a.name for a in arrays], numeric, analytic)


def check_multimodal_end_to_end(seed: int = 8) -> SuiteReport:
    """Gradient of the training objective at lambda 0, the cross-entropy
    (fuse -> score -> select -> STE -> task model, `Pipeline.loss`), wrt
    every pipeline parameter and the visual tokens, noise and kept sets
    frozen, on a batch of two, against stacked fourth-order finite
    differences (`pipeline_cases`). The lambda * `selection_loss` training
    adds is tested in tests/test_selection.py (`test_weighted_sum`,
    `test_gradient_uses_soft_path`).

    The two examples must keep different, non-zero token counts, so the
    packing of the kept tokens and the length groups inside the task
    model's attention sit inside the check.
    """
    pipeline, streams, labels, select = multimodal_point(seed)

    def distinct_counts(s: Tensor) -> SelectionMask:
        mask = select(s)
        counts = mask.kept_count  # a stack repeats its base batch's counts
        if counts[0] == counts[1] or counts.min() == 0:
            raise ContractError(f"kept counts {counts.tolist()} must differ and be non-zero")
        return mask

    worst, where = central_difference_check(pipeline_cases(
        pipeline, streams, labels, distinct_counts, [*pipeline.parameters(), streams[0]],
        MULTIMODAL_STEP, MULTIMODAL_STENCIL))
    return SuiteReport("multimodal_end_to_end", worst, worst <= GRAD_TOLERANCE, where)


def run_gradcheck(corrupt_op: str | None = None) -> tuple[list[SuiteReport], bool]:
    """All finite-difference suites; corrupt_op breaks one adjoint on purpose
    so tests can prove the checker catches it.

    A corrupt_op no suite ran an adjoint of is a ConfigError: its suites
    would pass having corrupted nothing.
    """
    with (ad.corrupt_adjoint(corrupt_op) if corrupt_op is not None
          else contextlib.nullcontext()) as corruption:
        reports = [check_catalog(), check_ste_soft_path(), check_multimodal_end_to_end()]
    if corruption is not None and corruption.count == 0:
        raise ConfigError(f"corrupt op {corrupt_op!r} corrupts nothing: "
                          "no suite ran an adjoint of that tape op kind")
    return reports, all(r.ok for r in reports)


# ---------------------------------------------------------------------------
# Monte-Carlo sampling oracles

EULER_GAMMA = 0.5772156649015329
# bound on |Monte-Carlo mean - exact value| of every sampling suite
SAMPLE_TOLERANCE = 0.01
_MC_SEED = 0xC0FFEE


def monte_carlo_mean(n: int, values_per_trial: int, stream_id: int,
                     chunk_sums: Callable[[SeededRng, int], np.ndarray]) -> np.ndarray:
    """The mean over n trials of a suite's per-trial vector.

    chunk_sums(rng, m) draws the next m trials from rng and returns the
    column sums of their vectors. The trials come in chunks of at most
    `data._CHUNK_VALUES` random values, at values_per_trial each, so memory
    is bounded by one chunk whatever n is. Every chunk continues the one
    stream SeededRng(_MC_SEED, stream_id), so the draws are those of all n
    trials made as one batch.
    """
    rng = SeededRng(_MC_SEED, stream_id)
    per_chunk = max(1, data._CHUNK_VALUES // values_per_trial)
    return sum(chunk_sums(rng, min(per_chunk, n - start))
               for start in range(0, n, per_chunk)) / n


def _sample_report(name: str, estimate, exact) -> SuiteReport:
    dev = float(np.abs(estimate - exact).max())
    return SuiteReport(name, dev, dev <= SAMPLE_TOLERANCE)


def check_gumbel_mean(n: int = 1_000_000) -> SuiteReport:
    mean = monte_carlo_mean(n, 1, 1, lambda rng, m: sample_standard_gumbel(rng, m).sum())
    return _sample_report("gumbel_mean_dev", mean, EULER_GAMMA)


def check_gumbel_max_frequencies(n: int = 100_000) -> SuiteReport:
    """n Gumbel-max draws from one categorical, each chunk one [m, 3] call."""
    p = np.array([0.2, 0.3, 0.5])
    freq = monte_carlo_mean(n, p.size, 2, lambda rng, m: np.bincount(
        gumbel_max_sample(np.tile(p, (m, 1)), rng), minlength=p.size))
    return _sample_report("gumbel_max_freq_dev", freq, p)


def plackett_luce_inclusion(s: np.ndarray, k: int) -> np.ndarray:
    """P(i is among the first k) of a Plackett-Luce order with weights s,
    the law of Gumbel top-k on log s.

    Sums over every ordered k-prefix, whose probability is
    prod_j s_{i_j} / (S - s_{i_1} - ... - s_{i_{j-1}}), S = sum(s).
    """
    inclusion, total = np.zeros(s.size), s.sum()
    for prefix in itertools.permutations(range(s.size), k):
        p, rest = 1.0, total
        for i in prefix:
            p *= s[i] / rest
            rest -= s[i]
        inclusion[list(prefix)] += p
    return inclusion


def _topk_inclusion_report(name: str, n: int, s: np.ndarray, k: int,
                           stream_id: int) -> SuiteReport:
    """n trials of Gumbel top-k on keep scores s, each chunk one batch through
    the batched selector training uses, against the exact inclusion law."""
    batches: dict[int, Tensor] = {}  # every full chunk scores the same [m, n] batch

    def chunk_sums(rng: SeededRng, m: int) -> np.ndarray:
        if m not in batches:
            batches[m] = ad.constant(np.tile(s, (m, 1)))
        return gumbel_topk_select(batches[m], k, 0.1, rng).hard.sum(axis=0)

    freq = monte_carlo_mean(n, s.size, stream_id, chunk_sums)
    return _sample_report(name, freq, plackett_luce_inclusion(s, k))


def check_topk_selection_frequencies(n: int = 100_000) -> SuiteReport:
    """K=1 Gumbel top-K must sample index i with probability s_i / sum(s)."""
    return _topk_inclusion_report("topk_k1_freq_dev", n, np.array([0.18, 0.27, 0.45]), 1, 3)


def check_topk_inclusion_frequencies(n: int = 100_000) -> SuiteReport:
    """K=2 Gumbel top-K keeps i with its Plackett-Luce inclusion probability,
    [0.2345, 0.4413, 0.6083, 0.7159] on these scores, not K s_i / sum(s)."""
    return _topk_inclusion_report("topk_k2_inclusion_dev", n,
                                  np.array([0.1, 0.2, 0.3, 0.4]), 2, 4)


def run_sample_check() -> tuple[list[SuiteReport], bool]:
    reports = [check_gumbel_mean(), check_gumbel_max_frequencies(),
               check_topk_selection_frequencies(), check_topk_inclusion_frequencies()]
    return reports, all(r.ok for r in reports)


def format_sample_report(reports: list[SuiteReport]) -> list[str]:
    return [f"{r.name} {r.worst:.4f} {'pass' if r.ok else 'fail'}" for r in reports]
