import functools

import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape
from sparsetok.errors import CapacityError, ContractError, ShapeError
from sparsetok.model import TaskPerformerConfig, init_parameters
from sparsetok.rng import SeededRng
from sparsetok.stages import run_stages
from sparsetok.selection import (LAWS, KeepProbPredictor, SelectionMask, StrategyConfig,
                                 apply_ste, compute_keep_probabilities,
                                 deterministic_topk_select, gumbel_topk_select,
                                 inference_rank_topk,
                                 original_positions, ratio_controlled_gate,
                                 ratio_controlled_select, reencode_positions,
                                 run_strategy, selection_loss, total_loss,
                                 uniform_fixed_select)


def scores_for(s_values):
    """Keep probabilities [1, n] of a batch of one sequence."""
    return ad.constant([s_values])


def rigged_predictor(d, logit0, logit1):
    """Predictor whose output is the same pair of logits for every token."""
    p = KeepProbPredictor(d)
    p.b2.value = np.array([logit0, logit1], dtype=float)
    return p


class TestStrategyConfig:
    def test_topk_requires_k(self):
        with pytest.raises(ContractError):
            StrategyConfig("gumbel_topk", target_ratio=0.5)

    def test_ratio_requires_p_alone(self):
        with pytest.raises(ContractError):
            StrategyConfig("ratio_controlled", k=4, target_ratio=0.3)
        with pytest.raises(ContractError):
            StrategyConfig("ratio_controlled")

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            StrategyConfig("magic")

    def test_valid(self):
        StrategyConfig("deterministic_topk", k=3)
        StrategyConfig("ratio_controlled", target_ratio=0.3)

    @pytest.mark.parametrize("field, value, message", [
        ("tau", 0.0, "tau must be positive and finite, got 0.0"),
        ("tau", float("nan"), "tau must be positive and finite, got nan"),
        ("tau", float("inf"), "tau must be positive and finite, got inf"),
        ("lam", -1.0, "lambda must be non-negative and finite, got -1.0"),
        ("lam", float("nan"), "lambda must be non-negative and finite, got nan"),
        ("lam", float("inf"), "lambda must be non-negative and finite, got inf"),
    ])
    def test_refuses_a_knob_out_of_range_by_name(self, field, value, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            StrategyConfig("ratio_controlled", target_ratio=0.3, **{field: value})

    def test_for_fraction_sets_the_budget_its_kind_reads(self):
        assert StrategyConfig.for_fraction("gumbel_topk", 0.25, 32, tau=0.5, lam=2.0) == (
            StrategyConfig("gumbel_topk", k=8, tau=0.5, lam=2.0))
        assert StrategyConfig.for_fraction("uniform_fixed", 0.01, 32, 0.1, 1.0).k == 1
        assert StrategyConfig.for_fraction("ratio_controlled", 0.3, 32, 0.1, 1.0) == (
            StrategyConfig("ratio_controlled", target_ratio=0.3))

    @pytest.mark.parametrize("fraction", [-3.0, 0.0, 1.5, float("nan")])
    def test_for_fraction_refuses_fractions_outside_0_1(self, fraction):
        for kind in ("deterministic_topk", "ratio_controlled"):
            with pytest.raises(ContractError, match="keep fraction must lie in"):
                StrategyConfig.for_fraction(kind, fraction, 32, 0.1, 1.0)


class TestKeepProbabilities:
    def test_symmetric_logits_give_half(self):
        with Tape() as tape:
            tokens = ad.constant(SeededRng(1).normals(12).reshape(1, 4, 3))
            s = compute_keep_probabilities(tape, tokens, rigged_predictor(3, 0.0, 0.0))
        assert np.allclose(s.data, 0.5, atol=1e-15)

    def test_unit_logit_gap_closed_form(self):
        with Tape() as tape:
            tokens = ad.constant(np.zeros((1, 2, 3)))
            s = compute_keep_probabilities(tape, tokens, rigged_predictor(3, 1.0, 0.0))
        assert np.allclose(s.data, 0.7310585786300049, atol=1e-12)

    def test_softmax_matches_sigmoid_identity(self):
        rng = SeededRng(9)
        pred = KeepProbPredictor(5).init(rng, stddev=0.7)
        with Tape() as tape:
            tokens = ad.constant(rng.normals(40).reshape(2, 4, 5))
            logits = run_stages(tape, pred.stages()[:-1], tokens)
            s = compute_keep_probabilities(tape, tokens, pred)
        assert [stage.name for stage in pred.stages()][-2:] == ["scorer.logits", "scorer.keep"]
        assert logits.lengths == (4, 4)
        gap = logits.rows.data[:, 0] - logits.rows.data[:, 1]
        sigmoid = 1.0 / (1.0 + np.exp(-gap))
        assert s.shape == (2, 4)
        assert np.abs(s.data.reshape(-1) - sigmoid).max() < 1e-12

    @pytest.mark.parametrize("shape", [(4, 3), (1, 4, 2), (2, 1, 4, 3)])
    def test_predictor_takes_only_batches_of_full_width(self, shape):
        with pytest.raises(ShapeError):
            compute_keep_probabilities(Tape(), ad.constant(np.zeros(shape)),
                                       rigged_predictor(3, 0.0, 0.0))

    @pytest.mark.parametrize("s", [[0.5, 0.5], [[[0.5]]]])
    def test_selectors_take_only_batches(self, s, frozen_rng):
        """Every selector that reads keep probabilities takes them [B, n]."""
        selectors = [
            lambda s: gumbel_topk_select(s, 1, 0.1, frozen_rng),
            lambda s: ratio_controlled_select(s, 0.1, frozen_rng),
            lambda s: deterministic_topk_select(s, 1),
            lambda s: inference_rank_topk(s, 1),
            lambda s: run_strategy(s, StrategyConfig("gumbel_topk", k=1), frozen_rng),
        ]
        for select in selectors:
            with pytest.raises(ShapeError, match=r"keep probabilities must be \[B, n\]"):
                select(ad.constant(s))


class TestGumbelTopK:
    def test_frozen_noise_orders_by_score(self, frozen_rng):
        mask = gumbel_topk_select(scores_for([0.9, 0.1, 0.5, 0.7]), 2, 0.1, frozen_rng)
        assert np.array_equal(mask.kept_in(0), [0, 3])
        assert np.array_equal(mask.hard, [[1, 0, 0, 1]])

    def test_keep_all(self, frozen_rng):
        mask = gumbel_topk_select(scores_for([0.2, 0.4, 0.6]), 3, 0.1, frozen_rng)
        assert np.array_equal(mask.hard, [[1, 1, 1]])

    def test_k_out_of_range(self, frozen_rng):
        with pytest.raises(ContractError):
            gumbel_topk_select(scores_for([0.5, 0.5]), 3, 0.1, frozen_rng)
        with pytest.raises(ContractError):
            gumbel_topk_select(scores_for([0.5, 0.5]), 0, 0.1, frozen_rng)

    def test_soft_weights_sum_to_one_over_valid(self):
        """Every token of a row is valid: each row's soft weights sum to 1."""
        s = np.clip(SeededRng(3).uniforms(21).reshape(3, 7), 0.05, 0.95)
        mask = gumbel_topk_select(ad.constant(s), 3, 0.5, SeededRng(3))
        assert np.abs(mask.soft.data.sum(axis=1) - 1.0).max() < 1e-9
        assert mask.kept_count.tolist() == [3, 3, 3]

    def test_k1_frequencies_match_normalized_scores(self):
        s = np.array([0.18, 0.27, 0.45])
        target = s / s.sum()
        scores = scores_for(s)
        rng = SeededRng(11)
        counts = np.zeros(3)
        n = 20_000
        for i in range(n):
            counts[gumbel_topk_select(scores, 1, 0.1, rng.split(i)).kept_in(0)[0]] += 1
        assert np.abs(counts / n - target).max() < 0.02

    def test_mask_invariants_random_inputs(self):
        rng = SeededRng(5)
        for trial in range(50):
            n = 2 + trial % 9
            k = 1 + trial % n
            s = np.clip(rng.uniforms(n), 0.05, 0.95)
            mask = gumbel_topk_select(scores_for(s), k, 0.3, rng.split(trial))
            assert mask.kept_count.tolist() == [k]
            assert np.all(np.diff(mask.kept_in(0)) > 0)
            assert np.array_equal(np.flatnonzero(mask.hard[0] == 1), mask.kept_in(0))
            assert np.all((mask.soft.data >= 0) & (mask.soft.data <= 1))


class TestRatioControlled:
    def test_symmetric_noise_is_strictly_dropped(self, frozen_rng):
        mask = ratio_controlled_select(scores_for([0.5, 0.5]), 1.0, frozen_rng)
        assert np.allclose(mask.soft.data, 0.5)
        assert mask.kept_count.tolist() == [0]  # strict > 0.5

    def test_frozen_noise_keeps_above_half(self, frozen_rng):
        mask = ratio_controlled_select(scores_for([0.9, 0.1]), 1.0, frozen_rng)
        assert np.array_equal(mask.hard, [[1, 0]])
        assert np.allclose(mask.soft.data, [[0.9, 0.1]], atol=1e-9)

    def test_all_confident_all_kept(self, frozen_rng):
        mask = ratio_controlled_select(scores_for([0.999, 0.999, 0.999]), 1.0, frozen_rng)
        assert mask.kept_count.tolist() == [3]

    def test_threshold_matches_scores_with_zero_noise(self, frozen_rng):
        s = np.array([0.2, 0.500000001, 0.8, 0.4999999])
        mask = ratio_controlled_select(scores_for(s), 1.0, frozen_rng)
        assert np.array_equal(mask.hard, [[0, 1, 1, 0]])

    def test_gate_refuses_noise_of_another_shape(self):
        s = ad.constant(np.full((2, 5), 0.5))
        assert ratio_controlled_gate(s, np.zeros((2, 2, 5)), 1.0).kept_count.tolist() == [0, 0]
        with pytest.raises(ShapeError, match="gate noise"):
            ratio_controlled_gate(s, np.zeros((1, 2, 5)), 1.0)


class TestDeterministicTopK:
    def test_direct_ordering(self):
        mask = deterministic_topk_select(scores_for([0.9, 0.1, 0.5, 0.7]), 2)
        assert np.array_equal(mask.hard, [[1, 0, 0, 1]])

    def test_tie_breaks_to_lower_index(self):
        mask = deterministic_topk_select(scores_for([0.5, 0.5]), 1)
        assert np.array_equal(mask.hard, [[1, 0]])

    def test_identity_when_k_equals_n(self):
        mask = deterministic_topk_select(scores_for([0.3, 0.6, 0.2]), 3)
        assert np.array_equal(mask.hard, [[1, 1, 1]])

    def test_argmax_invariance_under_positive_logit_scaling(self):
        rng = SeededRng(31)
        gaps = rng.normals(6)
        for scale in (0.5, 2.0, 17.0):
            base = scores_for(1 / (1 + np.exp(-gaps)))
            scaled = scores_for(1 / (1 + np.exp(-scale * gaps)))
            m1 = deterministic_topk_select(base, 2)
            m2 = deterministic_topk_select(scaled, 2)
            assert np.array_equal(m1.hard, m2.hard)
            i1 = inference_rank_topk(base, 3)
            i2 = inference_rank_topk(scaled, 3)
            assert np.array_equal(i1.hard, i2.hard)


class TestUniformFixed:
    def test_full_coverage(self):
        assert np.array_equal(uniform_fixed_select(10, 10, 1).hard, np.ones((1, 10)))

    def test_single_point_is_first(self):
        assert np.array_equal(uniform_fixed_select(10, 1, 1).hard, [[1] + [0] * 9])

    def test_rounded_grid(self):
        """Every example of a batch gets the same grid."""
        assert np.array_equal(uniform_fixed_select(8, 4, 3).hard, [[1, 0, 1, 0, 0, 1, 0, 1]] * 3)

    def test_backfill_keeps_exactly_k(self):
        for n in range(2, 20):
            for k in range(1, n + 1):
                mask = uniform_fixed_select(n, k, 1)
                assert mask.kept_count.tolist() == [k]
                assert np.all(np.diff(mask.kept_in(0)) > 0)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            uniform_fixed_select(5, 6, 1)


class TestApplySte:
    def test_hard_path_forwards_tokens_exactly(self, frozen_rng):
        tokens = ad.constant([[[2.0], [3.0]]])
        mask = SelectionMask(np.array([[1.0, 0.0]]), ad.constant([[0.3, 0.7]]))
        out = apply_ste([tokens], mask)
        assert out.rows.shape == (1, 1)
        assert out.rows.data[0, 0] == 2.0  # soft must not scale the forward value
        assert out.lengths == (1,)

    def test_empty_selection_yields_zero_rows(self):
        """An example that keeps nothing gets no rows."""
        tokens = ad.constant(np.ones((1, 3, 2)))
        mask = SelectionMask(np.zeros((1, 3)), ad.constant(np.zeros((1, 3))))
        out = apply_ste([tokens], mask)
        assert out.lengths == (0,)
        assert out.rows.shape == (0, 2)

    def test_length_mismatch(self):
        tokens = ad.constant(np.ones((1, 3, 2)))
        mask = SelectionMask(np.zeros((1, 2)), ad.constant(np.zeros((1, 2))))
        with pytest.raises(ContractError):
            apply_ste([tokens], mask)
        with pytest.raises(ContractError):  # every stream is checked, not just the first
            apply_ste([ad.constant(np.ones((1, 2, 2))), tokens], mask)

    def test_gradient_flows_through_soft_not_hard(self):
        tokens_np = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
        with Tape() as tape:
            s_leaf = tape.leaf(np.array([[0.6, 0.3, 0.8]]))
            mask = SelectionMask(np.array([[1.0, 0.0, 1.0]]), s_leaf)
            out = apply_ste([ad.constant(tokens_np)], mask)
            loss = ad.mean_all(ad.square(out.rows))
            tape.backward(loss)
            grad = tape.grad(s_leaf)[0]
        # dropped token's soft weight gets no direct task gradient
        assert grad[1] == 0.0
        assert grad[0] != 0.0 and grad[2] != 0.0

    def test_ste_scorer_gradient_nonzero_hard_only_zero(self):
        """Criterion-7 wiring at unit scale: removing the soft path zeroes the
        scorer gradient; the straight-through path keeps it alive."""
        rng = SeededRng(4)
        pred = KeepProbPredictor(3).init(rng, stddev=0.3)
        tokens_np = rng.normals(12).reshape(1, 4, 3)

        def run(soft_path: bool) -> float:
            with Tape() as tape:
                tokens = ad.constant(tokens_np)
                scores = compute_keep_probabilities(tape, tokens, pred)
                mask = gumbel_topk_select(scores, 2, 0.5, SeededRng(99))
                if soft_path:
                    kept = apply_ste([tokens], mask).rows
                else:
                    kept = ad.gather_rows(ad.reshape(tokens, (4, 3)), mask.kept_in(0))
                loss = ad.mean_all(ad.square(kept))
                tape.backward(loss)
                return max(np.abs(tape.grad(p)).max() for p in pred.parameters())

        assert run(soft_path=False) == 0.0
        assert run(soft_path=True) > 0.0

    @staticmethod
    def two_streams():
        """Two streams [3, 4, 2] under a mask whose examples keep 2, 0 and 3
        tokens, soft weights a tape leaf."""
        rng = SeededRng(40)
        streams = [rng.split(i).normals(3 * 4 * 2).reshape(3, 4, 2) for i in range(2)]
        hard = np.array([[0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=float)
        soft = rng.split(2).uniforms(12).reshape(3, 4) + 0.5
        return streams, hard, soft

    def test_two_streams_pack_example_by_example(self):
        """Kept counts (2, 0, 3) of two streams give lengths (4, 0, 6): each
        example's kept tokens of stream 0, then of stream 1, in their
        original order, bit for bit."""
        streams, hard, soft = self.two_streams()
        mask = SelectionMask(hard, ad.constant(soft))
        out = apply_ste([ad.constant(x) for x in streams], mask)
        assert out.lengths == (4, 0, 6)
        v, w = streams
        expected = np.concatenate([v[0, [1, 3]], w[0, [1, 3]], v[2, [0, 1, 3]], w[2, [0, 1, 3]]])
        assert np.array_equal(out.rows.data, expected)

    def test_two_stream_soft_gradient_is_that_of_scaling_every_token(self):
        """The soft weights' gradient through the packed rows equals the one
        of scaling every token of both streams by its soft weight and
        reading the kept ones; each kept token's own gradient is its packed
        row's, unscaled, and a dropped token's is zero."""
        streams, hard, soft = self.two_streams()
        weights = SeededRng(41).normals(10 * 2).reshape(10, 2)
        with Tape() as tape:
            s = tape.leaf(soft)
            xs = [tape.leaf(x) for x in streams]
            out = apply_ste(xs, SelectionMask(hard, s))
            tape.backward(ad.mean_all(ad.mask_multiply(out.rows, weights)))
            soft_grad, token_grads = tape.grad(s), [tape.grad(x) for x in xs]
        with Tape() as tape:
            s = tape.leaf(soft)
            scaled = [ad.reshape(ad.scale_rows(ad.constant(x), s), (12, 2)) for x in streams]
            parts = [ad.gather_rows(scaled[stream], rows)
                     for rows in (np.array([1, 3]), np.array([8, 9, 11])) for stream in (0, 1)]
            tape.backward(ad.mean_all(ad.mask_multiply(
                functools.reduce(ad.concat_rows, parts), weights)))
            want = tape.grad(s)
        assert want[0].any() and want[2].any() and not want[1].any()
        np.testing.assert_allclose(soft_grad, want, rtol=1e-14, atol=0)
        rows = iter(weights * (1.0 / weights.size))
        for b, positions in ((0, [1, 3]), (2, [0, 1, 3])):
            for g in token_grads:
                for i in positions:
                    assert np.array_equal(g[b, i], next(rows))
        dropped = hard == 0
        assert not any(g[dropped].any() for g in token_grads)


class TestReencodePositions:
    def test_compacted_rows(self):
        hard = np.zeros((1, 8))
        hard[0, [2, 5, 7]] = 1.0
        mask = SelectionMask(hard, ad.constant(hard))
        assert reencode_positions(mask, 1).tolist() == [0, 1, 2]
        assert reencode_positions(mask, 2).tolist() == [0, 1, 2] * 2
        assert original_positions(mask, 2).tolist() == [2, 5, 7] * 2

    def test_identity_when_all_kept(self):
        mask = SelectionMask(np.ones((1, 4)), ad.constant(np.ones((1, 4))))
        assert reencode_positions(mask, 1).tolist() == [0, 1, 2, 3]
        assert original_positions(mask, 1).tolist() == [0, 1, 2, 3]

    def test_single_token_gets_row_zero(self):
        mask = SelectionMask(np.array([[0.0, 0.0, 0.0, 1.0]]),
                             ad.constant([[0.0, 0.0, 0.0, 1.0]]))
        assert reencode_positions(mask, 1).tolist() == [0]

    def test_packed_order_of_unequal_counts(self):
        """Kept counts (2, 0, 3) of two streams: each example's ranks
        0..k-1 once per stream, in apply_ste's row order."""
        _, hard, soft = TestApplySte.two_streams()
        mask = SelectionMask(hard, ad.constant(soft))
        assert reencode_positions(mask, 2).tolist() == [0, 1, 0, 1, 0, 1, 2, 0, 1, 2]
        assert original_positions(mask, 2).tolist() == [1, 3, 1, 3, 0, 1, 3, 0, 1, 3]

    def test_capacity_error(self):
        """The positions of one kept token at index 3 fit a table of 2 rows
        re-encoded, and not at their original index: the task model, the one
        reader of the table, refuses the latter before reading a row."""
        hard = np.array([[0.0, 0.0, 0.0, 1.0]])
        mask = SelectionMask(hard, ad.constant(hard))
        model = init_parameters(TaskPerformerConfig(d_in=2, d_model=4, max_len=2, layers=1),
                                SeededRng(1))
        kept = apply_ste([ad.constant(np.ones((1, 4, 2)))], mask)
        assert model.forward(Tape(), kept, reencode_positions(mask, 1)).shape == (1, 4)
        with pytest.raises(CapacityError, match="position 3 exceeds positional capacity 2"):
            model.forward(Tape(), kept, original_positions(mask, 1))


def mask_with_ratio(n, kept_count, soft_value=0.5):
    """A batch-of-one mask keeping the first kept_count of n tokens."""
    hard = np.zeros((1, n))
    hard[0, :kept_count] = 1.0
    return SelectionMask(hard, ad.constant(np.full((1, n), soft_value)))


class TestSelectionLoss:
    def test_exact_ratio_is_zero(self):
        loss = selection_loss(mask_with_ratio(10, 3), 0.3)
        assert loss.item() == 0.0

    def test_all_kept_against_half(self):
        loss = selection_loss(mask_with_ratio(10, 10), 0.5)
        assert abs(loss.item() - 0.25) < 1e-15

    def test_batch_mean(self):
        hard = np.zeros((2, 10))
        hard[0, :2] = 1.0
        hard[1, :6] = 1.0
        batch = SelectionMask(hard, ad.constant(np.full((2, 10), 0.5)))
        assert abs(selection_loss(batch, 0.4).item() - 0.04) < 1e-15

    def test_permutation_invariance(self):
        rng = SeededRng(8)
        n = 12
        kept = np.sort(rng.permutation(n)[:5])
        soft = rng.uniforms(n)
        hard = np.zeros(n)
        hard[kept] = 1.0
        base = SelectionMask(hard[None], ad.constant([soft]))
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        kept_p = np.sort(inv[kept])
        hard_p = np.zeros(n)
        hard_p[kept_p] = 1.0
        permuted = SelectionMask(hard_p[None], ad.constant([soft[perm]]))
        assert selection_loss(base, 0.3).item() == selection_loss(permuted, 0.3).item()

    def test_gradient_uses_soft_path(self):
        with Tape() as tape:
            soft = tape.leaf(np.full((1, 4), 0.5))
            mask = SelectionMask(np.array([[1.0, 1.0, 0, 0]]), soft)
            loss = selection_loss(mask, 0.25)
            tape.backward(loss)
            grad = tape.grad(soft)
        # value (0.25 - 0.5)^2; d/dsoft_i = -2 (0.25 - 0.5) / 4 = 0.125
        assert abs(loss.item() - 0.0625) < 1e-15
        assert np.allclose(grad, 0.125)

    def test_target_validation(self):
        with pytest.raises(ContractError):
            selection_loss(mask_with_ratio(4, 2), 0.0)


class TestTotalLoss:
    def test_lambda_zero_is_task_loss(self):
        total = total_loss(ad.constant([0.5]), ad.constant([0.25]), 0.0)
        assert total.item() == 0.5

    @pytest.mark.parametrize("lam,expected", [(1.0, 0.75), (10.0, 3.0)])
    def test_weighted_sum(self, lam, expected):
        assert total_loss(ad.constant([0.5]), ad.constant([0.25]), lam).item() == expected

    def test_negative_lambda(self):
        with pytest.raises(ContractError):
            total_loss(ad.constant([0.5]), ad.constant([0.25]), -1.0)


def _budget(strategy: StrategyConfig, n: int, eval_k: int, fraction: float, most: int):
    return pytest.param(strategy, n, eval_k, fraction, most, id=f"{strategy.kind}-n{n}")


# (strategy, n, eval K, keep fraction, most tokens one example keeps)
BUDGETS = [
    *[_budget(StrategyConfig(kind, k=3), n, 3, 3 / n, 3)
      for kind in ("gumbel_topk", "deterministic_topk", "uniform_fixed") for n in (10, 3)],
    _budget(StrategyConfig("ratio_controlled", target_ratio=0.3), 10, 3, 0.3, 10),
    _budget(StrategyConfig("ratio_controlled", target_ratio=0.3), 3, 1, 0.3, 3),
    # round(0.1 * 3) = 0, clamped to one token
    pytest.param(StrategyConfig("ratio_controlled", target_ratio=0.1), 3, 1, 0.1, 3,
                 id="ratio_controlled-n3-clamped"),
]


class TestInference:
    def test_repeated_calls_identical(self):
        scores = scores_for([0.1, 0.8, 0.3])
        m1 = inference_rank_topk(scores, 2)
        m2 = inference_rank_topk(scores, 2)
        assert np.array_equal(m1.hard, m2.hard)

    def test_direct_ordering(self):
        mask = inference_rank_topk(scores_for([0.1, 0.8, 0.3]), 2)
        assert np.array_equal(mask.hard, [[0, 1, 1]])

    @pytest.mark.parametrize("strategy, n, eval_k, fraction, most", BUDGETS)
    def test_budget_answers(self, strategy, n, eval_k, fraction, most):
        """Eval K, keep fraction and the most tokens one example keeps in
        training, over n tokens: K, K / n and K for a K budget; for a target
        ratio p, K = max(1, round(p * n)), p and all n."""
        assert strategy.eval_k(n) == eval_k
        assert strategy.keep_fraction(n) == fraction
        assert strategy.max_kept(n) == most

    def test_budget_table_covers_every_kind(self):
        assert {param.values[0].kind for param in BUDGETS} == set(LAWS)

    def test_uniform_law_reads_only_the_batch_shape(self):
        """The law that reads no keep probabilities draws uniform_fixed's
        grid from the leading shape [B, n] of what it is handed, noise or no
        noise."""
        strategy = StrategyConfig("uniform_fixed", k=4)
        mask = run_strategy(ad.constant(np.zeros((3, 8, 5))), strategy, None)
        assert not LAWS["uniform_fixed"].reads_scores
        assert np.array_equal(mask.hard, uniform_fixed_select(8, 4, 3).hard)

