"""Self-verification oracles: finite-difference gradient suites and
Monte-Carlo sampling checks. Both print one line per suite and report the
worst deviation, so a fresh build can prove its own wiring.
"""
from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import data
from .autodiff import Tape, Tensor, central_difference_check, leaf_case
from .errors import ConfigError, ContractError
from .gumbel import gumbel_max_sample, sample_standard_gumbel
from .model import TaskPerformerConfig
from .rng import SeededRng
from .selection import (KeepProbPredictor, SelectionMask, StrategyConfig, apply_ste,
                        compute_keep_probabilities, gumbel_topk_select,
                        ratio_controlled_select, run_strategy)
from .train import Pipeline, RunConfig, Selector

GRAD_TOLERANCE = 1e-4
FD_STEP = 1e-5


@dataclass
class SuiteReport:
    name: str
    worst: float
    ok: bool
    detail: str = ""

    def line(self) -> str:
        tail = f" (worst: {self.detail})" if self.detail and not self.ok else ""
        return f"{self.name} {self.worst:.3e} {'pass' if self.ok else 'fail'}{tail}"


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.mean_all(ad.mask_multiply(out, weights))


def _rand(rng: SeededRng, shape) -> np.ndarray:
    return rng.normals(int(np.prod(shape))).reshape(shape)


def _catalog_cases(rng: SeededRng):
    """(op name, point, build(x) -> scalar) triples covering every primitive.

    Every constant is drawn up front: the build closures must be pure
    functions of x or the finite differences are meaningless.
    """
    r = lambda shape: _rand(rng, shape)
    w23, w32, w34 = r((2, 3)), r((3, 2)), r((3, 4))
    w22a, w22b, w43, w33, w4, w5, w24 = (r((2, 2)), r((2, 2)), r((4, 3)), r((3, 3)),
                                         r((4,)), r((5,)), r((2, 4)))
    ln_gain, ln_bias, row_w = np.abs(r((4,))) + 0.5, r((4,)), r((3,))
    mask = (np.abs(r((2, 3))) > 0.5).astype(float)
    cases = [
        ("add", r((2, 3)), lambda x: _scalarize(ad.add(x, ad.constant(w23)), w23)),
        ("add_bias", r((3,)), lambda x: _scalarize(ad.add(ad.constant(w23), x), w23)),
        ("subtract", r((2, 3)), lambda x: _scalarize(ad.subtract(x, ad.constant(w23)), w23)),
        ("multiply_elementwise", r((2, 3)),
         lambda x: _scalarize(ad.multiply(x, ad.constant(w23)), w23)),
        ("matmul_left", r((2, 3)), lambda x: _scalarize(ad.matmul(x, ad.constant(w32)), w22a)),
        ("matmul_right", r((3, 2)), lambda x: _scalarize(ad.matmul(ad.constant(w23), x), w22b)),
        ("scale_by_constant", r((2, 3)), lambda x: _scalarize(ad.scale(x, 1.7), w23)),
        ("natural_log", np.abs(r((2, 3))) + 0.5,
         lambda x: _scalarize(ad.log(x), w23)),
        ("exp", r((2, 3)), lambda x: _scalarize(ad.exp(x), w23)),
        ("square", r((2, 3)), lambda x: _scalarize(ad.square(x), w23)),
        ("gelu", r((2, 3)), lambda x: _scalarize(ad.gelu(x), w23)),
        ("layer_norm_x", r((3, 4)),
         lambda x: _scalarize(ad.layer_norm(x, ad.constant(ln_gain),
                                            ad.constant(ln_bias)), w34)),
        ("layer_norm_gain", r((4,)),
         lambda x: _scalarize(ad.layer_norm(ad.constant(w34), x, ad.constant(ln_bias)), w34)),
        ("layer_norm_bias", r((4,)),
         lambda x: _scalarize(ad.layer_norm(ad.constant(w34), ad.constant(ln_gain), x), w34)),
        ("concat_rows", r((2, 3)),
         lambda x: _scalarize(ad.concat_rows(x, ad.constant(w23)), w43)),
        ("gather_rows", r((4, 3)),  # repeated row checks additive scatter
         lambda x: _scalarize(ad.gather_rows(x, np.array([2, 0, 2])), w33)),
        ("mask_multiply", r((2, 3)),
         lambda x: _scalarize(ad.mask_multiply(x, mask), w23)),
        ("mean_all", r((2, 3)), lambda x: ad.mean_all(x)),
        ("transpose", r((2, 3)), lambda x: _scalarize(ad.transpose(x), w32)),
        ("reshape", r((2, 3)), lambda x: _scalarize(ad.reshape(x, (3, 2)), w32)),
        ("scale_rows", r((3,)),
         lambda x: _scalarize(ad.scale_rows(ad.constant(w34), x), w34)),
        ("scale_rows_tokens", r((3, 4)),
         lambda x: _scalarize(ad.scale_rows(x, ad.constant(row_w)), w34)),
        ("softmax_axis0", r((5,)),
         lambda x: _scalarize(ad.softmax_with_temperature(x, axis=0, tau=0.7), w5)),
        ("softmax_axis1", r((2, 4)),
         lambda x: _scalarize(ad.softmax_with_temperature(x, axis=1, tau=1.3), w24)),
        ("cross_entropy", r((4,)), lambda x: ad.cross_entropy_loss(x, 1)),
        ("mean_squared_error", r((2, 3)),
         lambda x: ad.mean_squared_error(x, ad.constant(w23))),
    ]
    # appended cases come last, so the earlier ones keep their draws
    return (cases + _batched_cases(r) + _attention_cases(r) + _linear_cases(r)
            + _long_attention_cases(r))


def _batched_cases(r):
    """The same primitives with a leading batch axis of 2, plus
    batched_matmul on both operands and a softmax over masked keys."""
    b234, b243, b233, b264 = r((2, 3, 4)), r((2, 4, 3)), r((2, 3, 3)), r((2, 6, 4))
    b23, b2 = r((2, 3)), r((2,))
    ln_gain, ln_bias = np.abs(r((4,))) + 0.5, r((4,))
    mask = (np.abs(r((2, 3, 4))) > 0.5).astype(float)
    # a factor away from zero: the gradient b234 * factor stays above the
    # finite-difference rounding floor
    factor = np.abs(r((2, 3, 4))) + 0.5
    rows = np.array([[2, 0, 2], [1, 1, 0]])  # repeated rows check additive scatter
    # example 0 masks key 2, example 1 keys 0 and 1
    key_bias = np.repeat(np.array([[0.0, 0.0, -1e9], [-1e9, -1e9, 0.0]])[:, None, :], 3, axis=1)
    const = ad.constant
    return [
        ("add_batched", r((2, 3, 4)), lambda x: _scalarize(ad.add(x, const(b234)), b234)),
        ("add_bias_batched", r((4,)), lambda x: _scalarize(ad.add(const(b234), x), b234)),
        ("add_rows_batched", r((3, 4)), lambda x: _scalarize(ad.add(const(b234), x), b234)),
        ("subtract_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.subtract(const(b234), x), b234)),
        ("multiply_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.multiply(x, const(factor)), b234)),
        ("batched_matmul_left", r((2, 3, 4)),
         lambda x: _scalarize(ad.batched_matmul(x, const(b243)), b233)),
        ("batched_matmul_right", r((2, 4, 3)),
         lambda x: _scalarize(ad.batched_matmul(const(b234), x), b233)),
        ("scale_by_constant_batched", r((2, 3, 4)), lambda x: _scalarize(ad.scale(x, -0.6), b234)),
        ("natural_log_batched", np.abs(r((2, 3, 4))) + 0.5, lambda x: _scalarize(ad.log(x), b234)),
        ("exp_batched", r((2, 3, 4)), lambda x: _scalarize(ad.exp(x), b234)),
        ("square_batched", r((2, 3, 4)), lambda x: _scalarize(ad.square(x), b234)),
        ("gelu_batched", r((2, 3, 4)), lambda x: _scalarize(ad.gelu(x), b234)),
        ("layer_norm_x_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.layer_norm(x, const(ln_gain), const(ln_bias)), b234)),
        ("layer_norm_gain_batched", r((4,)),
         lambda x: _scalarize(ad.layer_norm(const(b234), x, const(ln_bias)), b234)),
        ("layer_norm_bias_batched", r((4,)),
         lambda x: _scalarize(ad.layer_norm(const(b234), const(ln_gain), x), b234)),
        ("concat_rows_left_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.concat_rows(x, const(b234)), b264)),
        ("concat_rows_right_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.concat_rows(const(b234), x), b264)),
        ("gather_rows_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.gather_rows(x, rows), b234)),
        ("gather_rows_table", r((3, 4)),  # one table, a batch of index rows
         lambda x: _scalarize(ad.gather_rows(x, rows), b234)),
        ("mask_multiply_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.mask_multiply(x, mask), b234)),
        ("mean_all_batched", r((2, 3, 4)), lambda x: ad.mean_all(x)),
        ("transpose_batched", r((2, 3, 4)), lambda x: _scalarize(ad.transpose(x), b243)),
        ("reshape_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.reshape(x, (6, 4)), b234.reshape(6, 4))),
        ("scale_rows_batched", r((2, 3)),
         lambda x: _scalarize(ad.scale_rows(const(b234), x), b234)),
        ("scale_rows_tokens_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.scale_rows(x, const(b23)), b234)),
        ("softmax_batched", r((2, 3, 4)),
         lambda x: _scalarize(ad.softmax_with_temperature(x, axis=-1, tau=0.9), b234)),
        ("softmax_masked_keys", r((2, 3, 3)),
         lambda x: _scalarize(ad.softmax_with_temperature(ad.add(x, const(key_bias)),
                                                          axis=2, tau=1.0), b233)),
        ("cross_entropy_batched", r((2, 4)),
         lambda x: _scalarize(ad.cross_entropy_loss(x, np.array([1, 3])), b2)),
    ]


def _attention_cases(r):
    """The fused attention op: one head on one sequence, and two heads on two
    packed sequences of 2 and 4 rows, so the first is padded by two keys."""
    w32, w64 = r((3, 2)), r((6, 4))
    return [
        ("attention_1head", r((3, 6)), lambda x: _scalarize(ad.attention(x, (3,), 1), w32)),
        ("attention_2heads_unequal_lengths", r((6, 12)),
         lambda x: _scalarize(ad.attention(x, (2, 4), 2), w64)),
    ]


def _linear_cases(r):
    """The fused projection x @ w + b on 2-D rows, wrt each operand."""
    x, w, b, out_w = r((3, 4)), r((4, 2)), r((2,)), r((3, 2))
    const = ad.constant
    return [
        ("linear_x", r((3, 4)), lambda v: _scalarize(ad.linear(v, const(w), const(b)), out_w)),
        ("linear_w", r((4, 2)), lambda v: _scalarize(ad.linear(const(x), v, const(b)), out_w)),
        ("linear_b", r((2,)), lambda v: _scalarize(ad.linear(const(x), const(w), v), out_w)),
    ]


def _long_attention_cases(r):
    """Attention whose sequences are longer than its head width: two heads
    of width 1 on two packed sequences of 4 and 6 rows."""
    w = r((10, 2))
    return [
        ("attention_2heads_length4_6", r((10, 6)),
         lambda x: _scalarize(ad.attention(x, (4, 6), 2), w)),
    ]


def check_catalog(repeats: int = 3, seed: int = 2024) -> SuiteReport:
    """Finite differences vs tape gradients for every catalog primitive."""
    worst, where = central_difference_check(
        (leaf_case(name, build, point) for rep in range(repeats)
         for name, point, build in _catalog_cases(SeededRng(seed).split(rep))), FD_STEP)
    return SuiteReport("autodiff_catalog", worst, worst <= GRAD_TOLERANCE, where)


def frozen_selector(select: Selector) -> Selector:
    """Wrap a selector with fixed noise so finite differences see one smooth
    function: the soft surrogate the straight-through estimator linearizes.

    The first call fixes the base point's kept set; every later call keeps
    that set whatever the selector would pick. On kept rows the forwarded
    hard value is soft + (1 - soft0), soft0 being the base point's soft
    weights: exactly 1 at the base point, so the tape's straight-through
    gradient is the one of the base mask, and away from it a smooth function
    whose derivative equals that gradient.
    """
    base: list[SelectionMask] = []

    def select_frozen(s: Tensor) -> SelectionMask:
        mask = select(s)
        if not base:
            base.append(mask)
        keep = base[0].hard > 0
        hard = np.where(keep, mask.soft.data + (1.0 - base[0].soft.data), 0.0)
        return SelectionMask(hard, mask.soft, base[0].kept_indices)

    return select_frozen


def check_ste_soft_path(seed: int = 7) -> SuiteReport:
    """STE gradients wrt scorer parameters vs finite differences of the
    frozen-noise, frozen-kept-set soft surrogate, for both Gumbel variants.

    A quadratic loss reads the tokens `apply_ste` compacts, so the check runs
    through the straight-through op training uses, on a batch of one.
    """
    rng = SeededRng(seed)
    d, n = 6, 8
    tokens = ad.constant(_rand(rng.split(0), (1, n, d)))
    quad_w = _rand(rng.split(1), (n, d))
    # large init keeps every gradient above the finite-difference noise floor
    scorer = KeepProbPredictor(d).init(rng.split(2), stddev=0.5)

    variants = [
        ("gumbel_topk", lambda s: gumbel_topk_select(s, 3, 0.5, SeededRng(99))),
        ("ratio_controlled", lambda s: ratio_controlled_select(s, 0.5, SeededRng(99))),
    ]

    def cases(vname: str, selector: Selector) -> list[ad.Case]:
        select = frozen_selector(selector)

        def loss_on(tape: Tape) -> Tensor:
            mask = select(compute_keep_probabilities(tape, tokens, scorer))
            kept = apply_ste(tokens, mask).tokens
            return _scalarize(ad.square(kept), quad_w[mask.kept_indices])

        with Tape() as tape:
            tape.backward(loss_on(tape))
            analytic = [tape.grad(p) for p in scorer.parameters()]
        return [(f"{vname}:{p.name}", lambda: loss_on(Tape()).item(), p.value, g)
                for p, g in zip(scorer.parameters(), analytic)]

    worst, where = central_difference_check(
        (case for variant in variants for case in cases(*variant)), FD_STEP)
    return SuiteReport("ste_soft_path", worst, worst <= GRAD_TOLERANCE, where)


def check_multimodal_end_to_end(seed: int = 8) -> SuiteReport:
    """Gradient of the training pipeline's loss (fuse -> score -> select ->
    STE -> classify, `Pipeline.forward_batch`) wrt every pipeline parameter
    and the visual tokens, noise and kept sets frozen, on a batch of two.

    The two examples keep different, non-zero token counts, so the task
    model's packing of the padded kept batch and the padding inside its
    attention sit inside the check.
    Task parameters are read only by the second stage, `Pipeline.classify`,
    so their coordinates re-run it alone on the base point's `sparsify`
    output; the context and scorer parameters and the visual tokens re-run
    the whole pipeline.
    """
    rng = SeededRng(seed)
    d, n = 6, 5
    model = TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=12, ff_mult=2,
                                # large init keeps every gradient above the
                                # finite-difference noise floor
                                init_std=0.5)
    strategy = StrategyConfig("ratio_controlled", target_ratio=0.5, tau=0.5)
    pipeline = Pipeline(RunConfig(dataset="", strategy=strategy, model=model, seed=seed),
                        {"d": d, "multimodal": True, "num_classes": 3})
    visual = _rand(rng.split(0), (2, n, d))
    textual = ad.constant(_rand(rng.split(1), (2, n, d)))
    labels = np.array([1, 2])
    select = frozen_selector(lambda s: run_strategy(s, strategy, SeededRng(55)))

    def loss_of(logits: Tensor) -> Tensor:
        return ad.mean_all(ad.cross_entropy_loss(logits, labels))

    task_params = pipeline.task.parameters()
    selection_params = pipeline.scorer.parameters() + pipeline.context.parameters()
    with Tape() as tape:
        visual_t = tape.leaf(visual)
        logits, mask = pipeline.forward_batch(tape, [visual_t, textual], select)
        counts = mask.kept_count
        if counts[0] == counts[1] or counts.min() == 0:
            raise ContractError(f"kept counts {counts.tolist()} must differ and be non-zero")
        tape.backward(loss_of(logits))
        task_grads = [tape.grad(p) for p in task_params]
        selection_grads = [tape.grad(p) for p in selection_params]
        visual_grad = tape.grad(visual_t)

    # the pipeline reads parameter values and `visual` themselves, so the
    # in-place perturbations reach it; no tape is entered, nothing is recorded
    kept, mask = pipeline.sparsify(Tape(), [ad.constant(visual), textual], select)
    classify_loss = lambda: loss_of(pipeline.classify(Tape(), kept, mask)[0]).item()
    pipeline_loss = lambda: loss_of(pipeline.forward_batch(Tape(), [ad.constant(visual), textual],
                                                           select)[0]).item()
    worst, where = central_difference_check(
        [(p.name, classify_loss, p.value, g) for p, g in zip(task_params, task_grads)]
        + [(p.name, pipeline_loss, p.value, g) for p, g in zip(selection_params, selection_grads)]
        + [("visual_tokens", pipeline_loss, visual, visual_grad)], FD_STEP)
    return SuiteReport("multimodal_end_to_end", worst, worst <= GRAD_TOLERANCE, where)


def run_gradcheck(corrupt_op: str | None = None) -> tuple[list[SuiteReport], bool]:
    """All finite-difference suites; corrupt_op breaks one adjoint on purpose
    so tests can prove the checker catches it.

    A corrupt_op no suite ran an adjoint of (the tape records `log` as
    `natural_log`, say) is a ConfigError: its suites would pass having
    corrupted nothing.
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
