import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape, central_difference_check
from sparsetok.checks import catalog_case
from sparsetok.errors import ShapeError
from sparsetok.model import TaskPerformerConfig
from sparsetok.multimodal import ContextModel
from sparsetok.rng import SeededRng
from sparsetok.selection import StrategyConfig, deterministic_topk_select
from sparsetok.train import Pipeline, RunConfig

D = 6


def rand(shape, seed=0):
    return SeededRng(seed).normals(int(np.prod(shape))).reshape(shape)


class TestContextModel:
    def test_zero_weights_collapse_to_bias(self):
        model = ContextModel(D)  # weights stay zero
        model.attn.bo.value = np.arange(1.0, D + 1.0)
        with Tape() as tape:
            u = model.fuse(tape, ad.constant(rand((1, 3, D), 3)),
                           ad.constant(rand((1, 3, D), 4)))
        assert u.shape == (1, 3, D)
        assert np.allclose(u.data, u.data[0, 0])
        assert np.allclose(u.data[0, 0], 2.0 * model.attn.bo.value)

    def test_visual_token_gradient_matches_finite_differences(self):
        model = ContextModel(D).init(SeededRng(6), stddev=0.5)
        textual = ad.constant(rand((2, 4, D), 7))
        weights = rand((2, 4, D), 8)

        def build(x):
            u = model.fuse(ad.active_tape() or Tape(), x, textual)
            return ad.mean_all(ad.mask_multiply(u, weights))

        err, _ = central_difference_check([catalog_case("visual", rand((2, 4, D), 9), build,
                                                        None)])
        assert err <= 1e-4

    def test_fuse_matches_a_numpy_transcription(self):
        """u_j = o_j + o_{n+j}, where o is example b's joint attention over
        its 2n rows (v_1 .. v_n; w_1 .. w_n): each example attends only to
        its own rows, and each index sums its own visual and textual slot."""
        model = ContextModel(D).init(SeededRng(6), stddev=0.5)
        model.attn.bo.value = rand((D,), 10)
        batch, n, heads = 3, 4, model.attn.heads
        dk = D // heads
        visual, textual = rand((batch, n, D), 11), rand((batch, n, D), 12)
        wqkv, wo, bo = (p.value for p in model.parameters())
        want = np.empty((batch, n, D))
        for b in range(batch):
            qkv = np.concatenate([visual[b], textual[b]]) @ wqkv
            contexts = []
            for h in range(heads):
                q, k, v = (qkv[:, part * D + h * dk:part * D + (h + 1) * dk] for part in range(3))
                logits = q @ k.T / np.sqrt(dk)
                weights = np.exp(logits - logits.max(axis=1, keepdims=True))
                contexts.append(weights / weights.sum(axis=1, keepdims=True) @ v)
            o = np.concatenate(contexts, axis=1) @ wo + bo
            want[b] = o[:n] + o[n:]
        u = model.fuse(Tape(), ad.constant(visual), ad.constant(textual))
        np.testing.assert_allclose(u.data, want, rtol=1e-12, atol=1e-14)


def multimodal_pipeline():
    cfg = RunConfig(dataset="unused",
                    strategy=StrategyConfig("gumbel_topk", k=2, tau=0.1),
                    model=TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=16,
                                              ff_mult=2))
    pipeline = Pipeline(cfg, {"d": D, "multimodal": True, "num_classes": 4})
    fed = []  # what the task model receives
    task_forward = pipeline.task.forward
    pipeline.task.forward = lambda tape, kept, pos: fed.append(kept) or task_forward(
        tape, kept, pos)
    return pipeline, fed


def fixed_selector(s, k):
    """Selector that ignores the keep probabilities it gets and keeps the
    top-k of s."""
    return lambda _: deterministic_topk_select(ad.constant(s), k)


class TestSparsifyPairs:
    """The training pipeline selects pairs: one mask, applied to both streams."""

    def test_shared_mask_keeps_aligned_pairs(self):
        pipeline, fed = multimodal_pipeline()
        v, w = rand((1, 4, D), 1), rand((1, 4, D), 2)
        _, mask = pipeline.forward_batch(Tape(), [ad.constant(v), ad.constant(w)],
                                         fixed_selector(np.array([[0.9, 0.1, 0.5, 0.7]]), 2))
        assert np.array_equal(mask.hard, [[1, 0, 0, 1]])
        assert np.array_equal(fed[0].rows.data, np.concatenate([v[0, [0, 3]], w[0, [0, 3]]]))
        assert fed[0].lengths == (4,)

    def test_keep_all_is_identity(self):
        pipeline, fed = multimodal_pipeline()
        v, w = rand((1, 2, D), 3), rand((1, 2, D), 4)
        pipeline.forward_batch(Tape(), [ad.constant(v), ad.constant(w)],
                               fixed_selector(np.array([[0.5, 0.5]]), 2))
        assert np.array_equal(fed[0].rows.data, np.concatenate([v[0], w[0]]))
        assert fed[0].lengths == (4,)

    def test_length_mismatch(self):
        pipeline, _ = multimodal_pipeline()
        with pytest.raises(ShapeError):
            pipeline.forward_batch(Tape(), [ad.constant(rand((1, 4, D))),
                                            ad.constant(rand((1, 3, D)))],
                                   fixed_selector(np.array([[0.5] * 4]), 2))


def ratio_pipeline():
    """A multimodal ratio_controlled pipeline, a batch of three and the
    training selector with fixed noise."""
    cfg = RunConfig(dataset="unused",
                    strategy=StrategyConfig("ratio_controlled", target_ratio=0.5, tau=0.5),
                    model=TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=16,
                                              ff_mult=2, init_std=0.5))
    pipeline = Pipeline(cfg, {"d": D, "multimodal": True, "num_classes": 3})
    visual, textual = ad.constant(rand((3, 5, D), 11)), ad.constant(rand((3, 5, D), 12))
    return pipeline, [visual, textual], lambda scores: pipeline.sampler(SeededRng(55))(scores)


class TestStages:
    def test_forward_batch_off_tape_records_nothing(self):
        pipeline, streams, select = ratio_pipeline()
        tape = Tape()
        logits, _ = pipeline.forward_batch(tape, streams, select)
        assert len(tape) == 0
        with Tape() as active:
            taped, _ = pipeline.forward_batch(active, streams, select)
        assert len(active) > 0
        assert np.array_equal(logits.data, taped.data)


def test_multimodal_end_to_end_gradients(monkeypatch):
    """The suite passes and runs the training pipeline itself: one taped
    `forward_batch`, then off the tape its stages (`Pipeline.stages`). Its
    work scales with stacks, not points: `attention` runs once per
    attention stage in the taped pass and in the base point's run, then
    once per stack of at most `STACK_REPLICAS` points for each attention
    stage after the last that reads the stack's array, and never for a
    single point. That is 64 calls at seed 8, where running each point's
    whole sublayer or keep-probability path made 2,439."""
    from sparsetok.checks import (MULTIMODAL_STENCIL, STACK_REPLICAS,
                                  check_multimodal_end_to_end, multimodal_point)
    forward_batch, attention = Pipeline.forward_batch, ad.attention
    taped, calls = [], []
    monkeypatch.setattr(Pipeline, "forward_batch", lambda self, tape, *args: taped.append(
        ad.active_tape() is not None) or forward_batch(self, tape, *args))
    monkeypatch.setattr(ad, "attention", lambda *args: calls.append(args[0].shape) or attention(
        *args))
    report = check_multimodal_end_to_end()
    assert report.ok, report.line()
    assert taped == [True]

    pipeline, streams, _, select = multimodal_point(8)
    stages = pipeline.stages(select)
    attending = [i for i, stage in enumerate(stages) if stage.name.endswith(".attention")]
    assert [stages[i].name for i in attending] == ["context.attention",
                                                   "task.block0.attn.attention"]
    points = len(MULTIMODAL_STENCIL.offsets)
    expected = 2 * len(attending)
    for differentiated in [*pipeline.parameters(), streams[0]]:
        array = differentiated.value  # the visual tokens are read before every pipeline stage
        last = max((i for i, stage in enumerate(stages)
                    if any(p.value is array for p in stage.parameters)), default=-1)
        stacks = -(-points * array.size // STACK_REPLICAS)
        expected += stacks * sum(i > last for i in attending)
    assert len(calls) == expected == 64
    # a stack's rows: [64 replicas of two joint sequences of 10 tokens, 3 * 6]
    # for the context, [64 replicas of 10 kept rows, 3 * 8] for the task model
    assert max(calls) == (STACK_REPLICAS * 2 * 10, 18)
