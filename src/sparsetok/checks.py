"""Self-verification oracles: finite-difference gradient suites and
Monte-Carlo sampling checks. Both print one line per suite and report the
worst deviation, so a fresh build can prove its own wiring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, finite_difference_check
from .errors import ContractError
from .gumbel import gumbel_max_sample, sample_standard_gumbel
from .model import TaskPerformerConfig, init_parameters
from .multimodal import ContextModel, MultiModalSequence, equalize_lengths
from .rng import SeededRng
from .selection import (KeepProbPredictor, KeptTokens, compute_keep_probabilities,
                        gumbel_topk_select, keep_scores_from_values,
                        ratio_controlled_select)

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
    return cases + _batched_cases(r)


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


def check_catalog(repeats: int = 3, seed: int = 2024) -> SuiteReport:
    """Finite differences vs tape gradients for every catalog primitive."""
    worst, worst_op = 0.0, ""
    for rep in range(repeats):
        rng = SeededRng(seed).split(rep)
        for name, point, build in _catalog_cases(rng):
            err = finite_difference_check(build, point, FD_STEP)
            if err > worst:
                worst, worst_op = err, name
    return SuiteReport("autodiff_catalog", worst, worst <= GRAD_TOLERANCE, worst_op)


def _frozen_gate_loss(tokens_const: np.ndarray, s_fn, selector, quad_w: np.ndarray):
    """Build base-point artifacts for the STE surrogate.

    Returns (loss_builder, base_offsets): loss_builder(mode) constructs the
    quadratic downstream loss either through the real straight-through op
    ("ste") or through soft + frozen constant offset ("frozen"), the latter
    being the differentiable function the tape linearizes at the base point.
    """
    with Tape() as tape:
        scores = s_fn(tape)
        mask = selector(scores)
    hard, kept = mask.hard, mask.kept_indices
    offset = hard - mask.soft.data

    def loss_builder(tape: Tape, mode: str) -> Tensor:
        scores = s_fn(tape)
        mask2 = selector(scores)
        if mode == "ste":
            gate = ad.straight_through(mask2.soft, hard)
        else:
            gate = ad.add(mask2.soft, ad.constant(offset))
        kept_rows = ad.gather_rows(ad.scale_rows(ad.constant(tokens_const), gate), kept)
        return _scalarize(ad.square(kept_rows), quad_w[kept])

    return loss_builder


def _param_fd(params, analytic: dict[str, np.ndarray], value_at, step: float
              ) -> tuple[float, str]:
    """Central differences over every coordinate of every parameter."""
    worst, worst_name = 0.0, ""
    for p in params:
        flat = p.value.reshape(-1)
        grad = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = value_at()
            flat[i] = orig - step
            down = value_at()
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            denom = max(abs(grad[i]), abs(numeric), 1e-8)
            err = abs(grad[i] - numeric) / denom
            if err > worst:
                worst, worst_name = err, f"{p.name}[{i}]"
    return worst, worst_name


def check_ste_soft_path(seed: int = 7) -> SuiteReport:
    """STE gradients wrt scorer parameters vs finite differences of the
    frozen-noise, frozen-hard soft surrogate, for both Gumbel variants."""
    rng = SeededRng(seed)
    d, n = 6, 8
    tokens = _rand(rng.split(0), (n, d))
    quad_w = _rand(rng.split(1), (n, d))
    # large init keeps every gradient above the finite-difference noise floor
    scorer = KeepProbPredictor(d).init(rng.split(2), stddev=0.5)
    worst, worst_name = 0.0, ""

    variants = [
        ("gumbel_topk", lambda scores: gumbel_topk_select(scores, 3, 0.5, SeededRng(99))),
        ("ratio_controlled", lambda scores: ratio_controlled_select(scores, 0.5, SeededRng(99))),
    ]
    for vname, selector in variants:
        def s_fn(tape: Tape):
            return compute_keep_probabilities(tape, ad.constant(tokens), scorer)

        build = _frozen_gate_loss(tokens, s_fn, selector, quad_w)
        with Tape() as tape:
            loss = build(tape, "ste")
            tape.backward(loss)
            analytic = {p.name: tape.grad(p).copy() for p in scorer.parameters()}

        def value_at() -> float:
            with Tape() as t2:
                return build(t2, "frozen").item()

        err, name = _param_fd(scorer.parameters(), analytic, value_at, FD_STEP)
        if err > worst:
            worst, worst_name = err, f"{vname}:{name}"
    return SuiteReport("ste_soft_path", worst, worst <= GRAD_TOLERANCE, worst_name)


def check_multimodal_end_to_end(seed: int = 11) -> SuiteReport:
    """Gradient of the full equalize -> fuse -> sparsify -> classify loss wrt
    every parameter of a reduced pipeline and wrt the visual tokens, noise
    frozen, on a batch of two examples.

    The examples have textual streams of different lengths and keep different
    token counts, so padded keys in the context model, padded rows in the
    kept batch and the task model's key mask all sit inside the check.
    """
    rng = SeededRng(seed)
    d, n_v, n_w = 6, 5, (3, 4)
    cfg = TaskPerformerConfig(d_in=d, d_model=8, heads=2, layers=1, max_len=12,
                              num_classes=3, ff_mult=2)
    # large init keeps every gradient above the finite-difference noise floor
    task = init_parameters(cfg, rng.split(0), stddev=0.5)
    context = ContextModel(d).init(rng.split(1), stddev=0.5)
    scorer = KeepProbPredictor(d).init(rng.split(2), stddev=0.5)
    visual = _rand(rng.split(3), (2, n_v, d))
    textual = [_rand(rng.split(4, b), (n_w[b], d)) for b in range(2)]
    labels = np.array([1, 2])

    def batch_of(rows_a: Tensor, rows_b: Tensor) -> Tensor:
        return ad.reshape(ad.concat_rows(rows_a, rows_b), (2,) + rows_a.shape)

    def pipeline_loss(tape: Tape, visual_t: Tensor, gate_mode: str,
                      frozen: dict | None) -> tuple[Tensor, dict]:
        flat = ad.reshape(visual_t, (2 * n_v, d))
        seqs = [equalize_lengths(tape, ad.gather_rows(flat, np.arange(n_v) + b * n_v),
                                 ad.constant(textual[b]), "pad", task.null_token)
                for b in range(2)]
        seq = MultiModalSequence(
            batch_of(seqs[0].visual, seqs[1].visual), batch_of(seqs[0].textual, seqs[1].textual),
            np.stack([q.pad_mask_visual for q in seqs]),
            np.stack([q.pad_mask_textual for q in seqs]), n_v, max(n_w))
        u = context.fuse(tape, seq)
        scores = compute_keep_probabilities(tape, u, scorer)
        mask = ratio_controlled_select(scores, 0.5, SeededRng(55))
        if frozen is None:
            counts = mask.kept_count
            if counts[0] == counts[1] or counts.min() == 0:
                raise ContractError(f"kept counts {counts.tolist()} must differ and be non-zero")
            frozen = {"hard": mask.hard, "kept": mask.kept_indices,
                      "offset": mask.hard - mask.soft.data,
                      "valid": np.arange(mask.kept_indices.shape[1]) < counts[:, None]}
        if gate_mode == "ste":
            gate = ad.straight_through(mask.soft, frozen["hard"])
        else:
            gate = ad.add(mask.soft, ad.constant(frozen["offset"]))
        kept_v = KeptTokens(ad.gather_rows(ad.scale_rows(seq.visual, gate), frozen["kept"]),
                            frozen["valid"])
        kept_w = KeptTokens(ad.gather_rows(ad.scale_rows(seq.textual, gate), frozen["kept"]),
                            frozen["valid"])
        rows = np.broadcast_to(np.arange(frozen["kept"].shape[1]), frozen["kept"].shape)
        pos = ad.gather_rows(tape.param(task.pos_table), rows)
        logits = task.forward(tape, kept_v.concat(kept_w), ad.concat_rows(pos, pos))
        return ad.mean_all(ad.cross_entropy_loss(logits, labels)), frozen

    with Tape() as tape:
        loss, frozen = pipeline_loss(tape, tape.leaf(visual), "ste", None)
        tape.backward(loss)
        params = task.parameters() + context.parameters() + scorer.parameters()
        analytic = {p.name: tape.grad(p).copy() for p in params}

    def value_at() -> float:
        with Tape() as t2:
            return pipeline_loss(t2, ad.constant(visual), "frozen", frozen)[0].item()

    worst, worst_name = _param_fd(params, analytic, value_at, FD_STEP)

    def active_or_new() -> Tape:
        t = ad.active_tape()
        return t if t is not None else Tape()

    err = finite_difference_check(lambda x: pipeline_loss(active_or_new(), x,
                                                          "frozen", frozen)[0],
                                  visual, FD_STEP)
    if err > worst:
        worst, worst_name = err, "visual_tokens"
    return SuiteReport("multimodal_end_to_end", worst, worst <= GRAD_TOLERANCE, worst_name)


def run_gradcheck(corrupt_op: str | None = None) -> tuple[list[SuiteReport], bool]:
    """All finite-difference suites; corrupt_op breaks one adjoint on purpose
    so tests can prove the checker catches it."""
    if corrupt_op is not None:
        with ad.corrupt_adjoint(corrupt_op):
            reports = [check_catalog(), check_ste_soft_path(), check_multimodal_end_to_end()]
    else:
        reports = [check_catalog(), check_ste_soft_path(), check_multimodal_end_to_end()]
    return reports, all(r.ok for r in reports)


# ---------------------------------------------------------------------------
# Monte-Carlo sampling oracles

EULER_GAMMA = 0.5772156649015329
_MC_SEED = 0xC0FFEE


def check_gumbel_mean(n: int = 1_000_000) -> SuiteReport:
    draws = sample_standard_gumbel(SeededRng(_MC_SEED, 1), n)
    dev = abs(float(draws.values.mean()) - EULER_GAMMA)
    return SuiteReport("gumbel_mean_dev", dev, dev <= 0.01)


def check_gumbel_max_frequencies(n: int = 100_000) -> SuiteReport:
    """n Gumbel-max draws from one categorical, sampled as one [n, 3] call."""
    p = np.array([0.2, 0.3, 0.5])
    picks = gumbel_max_sample(np.tile(p, (n, 1)), SeededRng(_MC_SEED, 2))
    counts = np.bincount(picks, minlength=p.size)
    dev = float(np.abs(counts / n - p).max())
    return SuiteReport("gumbel_max_freq_dev", dev, dev <= 0.01)


def check_topk_selection_frequencies(n: int = 100_000) -> SuiteReport:
    """K=1 Gumbel top-K must sample index i with probability s_i / sum(s).

    The n trials are one batch through the batched selector training uses.
    """
    s = np.array([0.18, 0.27, 0.45])
    target = s / s.sum()
    scores = keep_scores_from_values(Tape(), np.tile(s, (n, 1)))
    mask = gumbel_topk_select(scores, 1, 0.1, SeededRng(_MC_SEED, 3))
    dev = float(np.abs(mask.hard.sum(axis=0) / n - target).max())
    return SuiteReport("topk_k1_freq_dev", dev, dev <= 0.01)


def run_sample_check() -> tuple[list[SuiteReport], bool]:
    reports = [check_gumbel_mean(), check_gumbel_max_frequencies(),
               check_topk_selection_frequencies()]
    return reports, all(r.ok for r in reports)


def format_sample_report(reports: list[SuiteReport]) -> list[str]:
    return [f"{r.name} {r.worst:.4f} {'pass' if r.ok else 'fail'}" for r in reports]
