"""The batched path against one-example-at-a-time runs of the same code.

A training step runs its whole minibatch through one tape; these tests pin
that down to the per-example semantics: the same noise, the same masks, and
the same loss and gradients up to float summation order.
"""
import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape
from sparsetok.data import NeedleSpec, generate_dataset
from sparsetok.errors import ContractError
from sparsetok.gumbel import gumbel_max_sample, sample_standard_gumbel
from sparsetok.model import TaskPerformerConfig
from sparsetok.rng import SeededRng
from sparsetok.selection import (StrategyConfig, deterministic_topk_select,
                                 gumbel_topk_select, keep_scores_from_values,
                                 ratio_controlled_select, selection_loss, total_loss)
from sparsetok.train import Pipeline, RunConfig

TINY_MODEL = TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=16,
                                 ff_mult=2, init_std=0.3)
REL = 1e-12


def _pipeline(strategy, multimodal=False, positions="compact"):
    spec = NeedleSpec(n=8, d=6, num_informative=2, textual_informative=2,
                      noise_std=0.3, multimodal=multimodal)
    examples = generate_dataset(spec, 6, seed=4)
    header = {"d": spec.d, "multimodal": multimodal, "num_classes": spec.num_classes}
    cfg = RunConfig(dataset="unused", strategy=strategy, model=TINY_MODEL, seed=2,
                    positions=positions)
    return Pipeline(cfg, header), examples


def _loss(logits, labels, mask, strategy):
    loss = ad.mean_all(ad.cross_entropy_loss(logits, labels))
    if strategy.kind == "ratio_controlled":
        loss = total_loss(loss, selection_loss(mask, strategy.target_ratio), strategy.lam)
    return loss


def _batched_step(pipeline, examples, rng):
    """B times the batch-mean loss and its gradients, with the kept counts."""
    b = len(examples)
    with Tape() as tape:
        logits, mask = pipeline.forward_batch(tape, pipeline.batch_tokens(examples),
                                              pipeline.sampler(rng))
        loss = _loss(logits, np.array([ex.label for ex in examples]), mask,
                     pipeline.cfg.strategy)
        tape.backward(loss)
        grads = {p.name: b * tape.grad(p) for p in pipeline.parameters()}
    return b * loss.item(), grads, mask.kept_count


def _summed_steps(pipeline, examples, rng):
    """Sum over batch-of-one forward_batch steps drawing from one stream."""
    total = 0.0
    grads = {p.name: np.zeros_like(p.value) for p in pipeline.parameters()}
    for ex in examples:
        with Tape() as tape:
            logits, mask = pipeline.forward_batch(tape, pipeline.batch_tokens([ex]),
                                                  pipeline.sampler(rng))
            loss = _loss(logits, np.array([ex.label]), mask, pipeline.cfg.strategy)
            tape.backward(loss)
            for p in pipeline.parameters():
                grads[p.name] += tape.grad(p)
        total += loss.item()
    return total, grads


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(), np.abs(b).max())
    return float(np.abs(a - b).max() / scale) if scale > 0 else 0.0


def _ratio_pipeline(**kw):
    pipeline, examples = _pipeline(StrategyConfig("ratio_controlled", target_ratio=0.3,
                                                  tau=0.2, lam=1.0), **kw)
    # low keep scores: most tokens dropped, so kept counts differ and some are 0
    pipeline.scorer.b2.value = np.array([-1.8, 0.0])
    return pipeline, examples


CASES = {
    "gumbel_topk": lambda: _pipeline(StrategyConfig("gumbel_topk", k=3, tau=0.5)),
    "deterministic_topk": lambda: _pipeline(StrategyConfig("deterministic_topk", k=3)),
    "uniform_fixed": lambda: _pipeline(StrategyConfig("uniform_fixed", k=5)),
    "ratio_controlled": _ratio_pipeline,
    "ratio_controlled_multimodal": lambda: _ratio_pipeline(multimodal=True),
    "ratio_controlled_original_positions": lambda: _ratio_pipeline(positions="original"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_step_equals_sum_of_single_example_steps(case):
    pipeline, examples = CASES[case]()
    loss_b, grads_b, counts = _batched_step(pipeline, examples, SeededRng(9).split(1))
    loss_s, grads_s = _summed_steps(pipeline, examples, SeededRng(9).split(1))
    if case.startswith("ratio_controlled"):
        # the premise: padded rows and the null-token fallback are in play
        assert len(set(counts.tolist())) > 1 and counts.min() == 0, counts
    assert abs(loss_b - loss_s) <= REL * abs(loss_s)
    for name, g in grads_s.items():
        assert _rel(grads_b[name], g) <= REL, name
    assert any(np.abs(g).max() > 0 for g in grads_s.values())


def _keep_probabilities(rng: SeededRng, batch: int, n: int) -> np.ndarray:
    return np.clip(rng.uniforms(batch * n).reshape(batch, n), 0.05, 0.95)


@pytest.mark.parametrize("select", [
    lambda scores, rng: gumbel_topk_select(scores, 3, 0.4, rng),
    lambda scores, rng: ratio_controlled_select(scores, 0.4, rng),
    lambda scores, rng: deterministic_topk_select(scores, 2),
], ids=["gumbel_topk", "ratio_controlled", "deterministic_topk"])
def test_batched_selector_matches_draws_in_order(select):
    """A batch draws what its examples would draw as batches of one, in order."""
    s = _keep_probabilities(SeededRng(3), 7, 6)
    batched = select(keep_scores_from_values(Tape(), s), SeededRng(21))
    stream = SeededRng(21)
    for b in range(s.shape[0]):
        single = select(keep_scores_from_values(Tape(), s[b:b + 1]), stream)
        assert np.array_equal(batched.hard[b:b + 1], single.hard)
        assert np.array_equal(batched.kept_in(b), single.kept_in(0))
        assert np.allclose(batched.soft.data[b:b + 1], single.soft.data, rtol=0, atol=1e-15)
        assert batched.keep_ratio[b] == single.keep_ratio[0]


def test_ratio_gate_takes_keep_noise_then_drop_noise():
    """Per sequence, the first n Gumbel draws perturb the keep logits and the
    next n the drop logits."""
    n = 6
    s = _keep_probabilities(SeededRng(6), 3, n)
    mask = ratio_controlled_select(keep_scores_from_values(Tape(), s), 0.4, SeededRng(8))
    stream = SeededRng(8)
    for b in range(3):
        g = sample_standard_gumbel(stream, 2 * n)
        expected = np.log(s[b] + 1e-300) + g[:n] > np.log(1.0 - s[b] + 1e-300) + g[n:]
        assert np.array_equal(mask.hard[b], expected.astype(float))


def test_batched_mask_pads_kept_indices_with_zero():
    s = _keep_probabilities(SeededRng(4), 5, 6)
    mask = ratio_controlled_select(keep_scores_from_values(Tape(), s), 0.4, SeededRng(2))
    counts = mask.kept_count
    assert mask.kept_indices.shape == (5, max(1, counts.max()))
    for b, c in enumerate(counts):
        assert np.all(mask.kept_indices[b, c:] == 0)
        assert np.all(np.diff(mask.kept_in(b)) > 0)


def test_gumbel_max_rows_match_one_row_calls():
    p = np.array([0.1, 0.0, 0.6, 0.3])
    picks = gumbel_max_sample(np.tile(p, (50, 1)), SeededRng(5))
    stream = SeededRng(5)
    assert picks.tolist() == [gumbel_max_sample(p, stream) for _ in range(50)]


def test_second_backward_raises():
    with Tape() as tape:
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = ad.mean_all(ad.square(x))
        tape.backward(loss)
        grad = tape.grad(x).copy()
        with pytest.raises(ContractError):
            tape.backward(loss)
    assert np.array_equal(tape.grad(x), grad)  # the first result stays readable


def test_backward_releases_closures():
    with Tape() as tape:
        x = tape.leaf(np.ones((2, 3)))
        tape.backward(ad.mean_all(ad.gelu(ad.square(x))))
    assert all(vjp is None for _, _, vjp in tape._nodes)
