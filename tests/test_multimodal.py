import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape
from sparsetok.errors import ShapeError
from sparsetok.model import TaskPerformerConfig
from sparsetok.multimodal import ContextModel
from sparsetok.rng import SeededRng
from sparsetok.selection import (StrategyConfig, deterministic_topk_select,
                                 keep_scores_from_values)
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

        err = ad.finite_difference_check(build, rand((2, 4, D), 9), 1e-5)
        assert err <= 1e-4


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
    """Selector that ignores the scores and keeps the top-k of s."""
    return lambda scores: deterministic_topk_select(keep_scores_from_values(Tape(), s), k)


class TestSparsifyPairs:
    """The training pipeline selects pairs: one mask, applied to both streams."""

    def test_shared_mask_keeps_aligned_pairs(self):
        pipeline, fed = multimodal_pipeline()
        v, w = rand((1, 4, D), 1), rand((1, 4, D), 2)
        _, mask = pipeline.forward_batch(Tape(), [ad.constant(v), ad.constant(w)],
                                         fixed_selector(np.array([[0.9, 0.1, 0.5, 0.7]]), 2))
        assert np.array_equal(mask.kept_indices, [[0, 3]])
        assert np.array_equal(fed[0].tokens.data[0], np.concatenate([v[0, [0, 3]],
                                                                     w[0, [0, 3]]]))

    def test_keep_all_is_identity(self):
        pipeline, fed = multimodal_pipeline()
        v, w = rand((1, 2, D), 3), rand((1, 2, D), 4)
        pipeline.forward_batch(Tape(), [ad.constant(v), ad.constant(w)],
                               fixed_selector(np.array([[0.5, 0.5]]), 2))
        assert np.array_equal(fed[0].tokens.data[0], np.concatenate([v[0], w[0]]))

    def test_length_mismatch(self):
        pipeline, _ = multimodal_pipeline()
        with pytest.raises(ShapeError):
            pipeline.forward_batch(Tape(), [ad.constant(rand((1, 4, D))),
                                            ad.constant(rand((1, 3, D)))],
                                   fixed_selector(np.array([[0.5] * 4]), 2))


def ratio_pipeline():
    """A multimodal ratio_controlled pipeline, a batch of three and the
    training selector with fixed noise: kept counts differ, so the kept batch
    is padded."""
    cfg = RunConfig(dataset="unused",
                    strategy=StrategyConfig("ratio_controlled", target_ratio=0.5, tau=0.5),
                    model=TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=16,
                                              ff_mult=2, init_std=0.5))
    pipeline = Pipeline(cfg, {"d": D, "multimodal": True, "num_classes": 3})
    visual, textual = ad.constant(rand((3, 5, D), 11)), ad.constant(rand((3, 5, D), 12))
    return pipeline, [visual, textual], lambda scores: pipeline.sampler(SeededRng(55))(scores)


def sparsified(pipeline, streams, select):
    kept, mask = pipeline.sparsify(Tape(), streams, select)
    return (kept.tokens.data.tobytes(), kept.valid.tobytes(), mask.hard.tobytes(),
            mask.soft.data.tobytes(), mask.kept_indices.tobytes())


class TestStages:
    """forward_batch = classify(sparsify(...)), and only classify reads the
    task parameters: what lets gradcheck cache the first stage."""

    def test_task_parameters_do_not_reach_sparsify(self):
        pipeline, streams, select = ratio_pipeline()
        kept, _ = pipeline.sparsify(Tape(), streams, select)
        assert not kept.valid.all()  # padded rows sit inside the check
        base = sparsified(pipeline, streams, select)
        rng = SeededRng(13)
        for p in pipeline.task.parameters():
            p.value = p.value + rng.normals(p.value.size).reshape(p.value.shape)
        assert sparsified(pipeline, streams, select) == base

    def test_forward_batch_off_tape_records_nothing(self):
        pipeline, streams, select = ratio_pipeline()
        tape = Tape()
        logits, _ = pipeline.forward_batch(tape, streams, select)
        assert len(tape) == 0
        with Tape() as active:
            taped, _ = pipeline.forward_batch(active, streams, select)
        assert len(active) > 0
        assert np.array_equal(logits.data, taped.data)

    def test_classify_on_cached_prefix_equals_forward_batch(self):
        pipeline, streams, select = ratio_pipeline()
        labels = np.array([0, 2, 1])

        def loss(logits):
            return ad.mean_all(ad.cross_entropy_loss(logits, labels)).item()

        kept, mask = pipeline.sparsify(Tape(), streams, select)
        base = loss(pipeline.classify(Tape(), kept, mask)[0])
        w1 = {p.name: p for p in pipeline.task.parameters()}["task.block0.ff.w1"]
        w1.value.reshape(-1)[5] += 1e-5  # in place, as gradcheck moves a coordinate
        full = loss(pipeline.forward_batch(Tape(), streams, select)[0])
        assert full != base
        assert loss(pipeline.classify(Tape(), kept, mask)[0]) == full


def test_multimodal_end_to_end_gradients(monkeypatch):
    """The suite passes and runs the training pipeline itself: one taped
    pass, two full passes per context or scorer parameter coordinate and per
    visual token, and two classify-only passes per task parameter
    coordinate, on the one sparsify output of the base point."""
    from sparsetok.checks import check_multimodal_end_to_end
    calls = []
    inside = []

    def counted(stage):
        method = getattr(Pipeline, stage)

        def run(self, tape, *args):
            if not inside:  # streams of [B, n, d] for the first stage, KeptTokens for classify
                visual = args[0][0] if isinstance(args[0], list) else None
                calls.append((stage, ad.active_tape() is not None,
                              getattr(visual, "shape", None)))
            inside.append(stage)
            try:
                return method(self, tape, *args)
            finally:
                inside.pop()
        return run

    for stage in ("forward_batch", "sparsify", "classify"):
        monkeypatch.setattr(Pipeline, stage, counted(stage))
    report = check_multimodal_end_to_end()
    assert report.ok, report.line()
    task, selection, visual = 777, 260, 2 * 5 * 6  # visual tokens [2, 5, 6]
    assert calls.count(("forward_batch", True, (2, 5, 6))) == 1
    assert calls.count(("forward_batch", False, (2, 5, 6))) == 2 * (selection + visual)
    assert calls.count(("sparsify", False, (2, 5, 6))) == 1
    assert calls.count(("classify", False, None)) == 2 * task
    assert len(calls) == 1 + 2 * (selection + visual) + 1 + 2 * task
