from dataclasses import replace

import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape, central_difference_check
from sparsetok.checks import catalog_case
from sparsetok.errors import CapacityError, ContractError
from sparsetok.model import (CHECKPOINT_VERSION, MultiHeadAttention, TaskPerformer,
                             TaskPerformerConfig, init_parameters, load_checkpoint,
                             restore_parameters, save_checkpoint)
from sparsetok.rng import SeededRng
from sparsetok.selection import (STRATEGY_KINDS, Packed, SelectionMask, StrategyConfig,
                                 apply_ste, original_positions, reencode_positions)
from sparsetok.stages import run_stages
from sparsetok.train import Pipeline, RunConfig

SMALL = TaskPerformerConfig(d_in=5, d_model=8, heads=2, layers=1, max_len=10,
                            num_classes=3, ff_mult=2)


def one_sequence(tokens: ad.Tensor) -> Packed:
    """A batch of one sequence of [L, d_in] tokens, every row kept."""
    return Packed(tokens, (tokens.shape[0],))


def test_init_deterministic_under_seed():
    a = init_parameters(SMALL, SeededRng(5))
    b = init_parameters(SMALL, SeededRng(5))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)


def test_zero_head_gives_uniform_logits_and_ln4_loss():
    cfg = TaskPerformerConfig(d_in=4, d_model=8, heads=2, layers=1, max_len=8,
                              num_classes=4, ff_mult=2)
    model = init_parameters(cfg, SeededRng(1))
    model.head_w.value[:] = 0.0
    model.head_b.value[:] = 0.0
    with Tape() as tape:
        tokens = ad.constant(SeededRng(2).normals(12).reshape(3, 4))
        logits = model.forward(tape, one_sequence(tokens), np.arange(3))
        loss = ad.cross_entropy_loss(logits, 0)
    assert logits.shape == (1, 4)
    assert np.allclose(logits.data, logits.data[0, 0])
    assert abs(loss.item() - 1.3862943611198906) < 1e-12


def test_default_parameter_count_is_frozen():
    # in 16*32+32, pos 64*32, null 16, per block 12608, final ln 64, head 132
    model = TaskPerformer(TaskPerformerConfig())
    per_block = (2 * 32          # ln1
                 + 32 * 96 + 32 * 32   # fused q|k|v and output projections
                 + 32            # attention output bias
                 + 2 * 32        # ln2
                 + 32 * 128 + 128 + 128 * 32 + 32)  # feed-forward
    expected = (16 * 32 + 32) + 64 * 32 + 16 + 2 * per_block + 2 * 32 + (32 * 4 + 4)
    assert sum(p.value.size for p in model.parameters()) == expected == 28020


def test_forward_is_deterministic():
    model = init_parameters(SMALL, SeededRng(3))
    tokens_np = SeededRng(4).normals(20).reshape(4, 5)

    def run():
        with Tape() as tape:
            tokens = one_sequence(ad.constant(tokens_np))
            return model.forward(tape, tokens, np.arange(4)).data.copy()

    assert np.array_equal(run(), run())


def test_positional_sensitivity():
    model = init_parameters(replace(SMALL, init_std=0.3), SeededRng(6))
    tokens_np = SeededRng(7).normals(20).reshape(4, 5)
    perm = np.array([2, 0, 3, 1])

    def logits_for(tok):
        with Tape() as tape:
            return model.forward(tape, one_sequence(ad.constant(tok)),
                                 np.arange(4)).data.copy()

    assert not np.allclose(logits_for(tokens_np), logits_for(tokens_np[perm]))


def empty_sequence() -> Packed:
    """A batch of one example that kept nothing: no rows."""
    return Packed(ad.constant(np.zeros((0, 5))), (0,))


def test_empty_selection_uses_null_token():
    model = init_parameters(SMALL, SeededRng(8))
    with Tape() as tape:
        logits = model.forward(tape, empty_sequence(), np.arange(0))
    assert logits.shape == (1, 3)
    assert np.all(np.isfinite(logits.data))


def test_null_token_is_trainable_through_empty_path():
    model = init_parameters(SMALL, SeededRng(8))
    with Tape() as tape:
        logits = model.forward(tape, empty_sequence(), np.arange(0))
        tape.backward(ad.cross_entropy_loss(logits, 1))
        assert np.abs(tape.grad(model.null_token)).max() > 0


PACKED = TaskPerformerConfig(d_in=5, d_model=8, heads=2, layers=2, max_len=10,
                             num_classes=3, ff_mult=2)


def leading_mask(counts, n: int) -> SelectionMask:
    """The mask that keeps each example's first counts[b] of n tokens, soft
    weights one."""
    keep = np.arange(n) < np.array(counts)[:, None]
    return SelectionMask(keep.astype(float), ad.constant(np.ones(keep.shape)))


def forward_and_gradients(model, tokens, mask, labels, weights, encode=reencode_positions):
    """Logits [B, C] of the tokens [B, n, d_in] that `mask` keeps, packed by
    `apply_ste` with their positions from `encode`, and the gradients of
    mean_b(weights[b] * loss_b) wrt every parameter and the tokens."""
    with Tape() as tape:
        x = tape.leaf(tokens)
        logits = model.forward(tape, apply_ste([x], mask), encode(mask, 1))
        losses = ad.cross_entropy_loss(logits, labels)
        tape.backward(ad.mean_all(ad.mask_multiply(losses, weights)))
        return logits.data, [tape.grad(p) for p in model.parameters()], tape.grad(x)


def assert_relative(got, want, tol=1e-12):
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("counts", [(5, 2, 0, 3), (3, 3, 3, 3)], ids=["unequal", "equal"])
def test_packed_forward_matches_each_example_alone(counts):
    """A batch whose examples keep different counts, one of them none (the
    null token), and a batch of equal counts: the batch's logits, parameter
    gradients and token gradients are those of each example run alone as a
    batch of one, summed over the examples for the parameters."""
    model = init_parameters(replace(PACKED, init_std=0.5), SeededRng(30))
    batch, n = len(counts), 6
    rng = SeededRng(31)
    tokens = rng.normals(batch * n * 5).reshape(batch, n, 5)
    labels, weights = np.array([0, 2, 1, 2]), np.array([0.7, 1.3, 0.4, 1.1])
    logits, param_grads, token_grad = forward_and_gradients(
        model, tokens, leading_mask(counts, n), labels, weights)

    summed = [np.zeros_like(g) for g in param_grads]
    for b, count in enumerate(counts):
        alone_logits, alone_grads, alone_token_grad = forward_and_gradients(
            model, tokens[b:b + 1], leading_mask([count], n), labels[b:b + 1],
            weights[b:b + 1] / batch)
        assert_relative(logits[b], alone_logits[0])
        if count:
            assert_relative(token_grad[b, :count], alone_token_grad[0, :count])
        assert not token_grad[b, count:].any()  # dropped tokens get no gradient
        summed = [s + g for s, g in zip(summed, alone_grads)]
    for p, got, want in zip(model.parameters(), param_grads, summed):
        if p is model.null_token and 0 not in counts:
            assert not got.any()
        else:
            assert want.any(), p.name
            assert_relative(got, want)


def test_padded_row_values_never_reach_logits_or_gradients():
    """New values in the dropped tokens leave the logits and every gradient
    bit-identical, under either positional encoding."""
    model = init_parameters(replace(PACKED, init_std=0.5), SeededRng(32))
    counts, n = [4, 1, 0, 2], 6
    rng = SeededRng(33)
    tokens = rng.normals(4 * n * 5).reshape(4, n, 5)
    labels, weights = np.array([1, 0, 2, 1]), np.ones(4)
    mask = leading_mask(counts, n)
    other_tokens = np.where(mask.hard[..., None] > 0, tokens,
                            rng.normals(tokens.size).reshape(tokens.shape))
    assert not np.array_equal(other_tokens, tokens)
    for encode in (reencode_positions, original_positions):
        base = forward_and_gradients(model, tokens, mask, labels, weights, encode)
        moved = forward_and_gradients(model, other_tokens, mask, labels, weights, encode)
        assert np.array_equal(moved[0], base[0])
        for got, want in zip(moved[1], base[1]):
            assert np.array_equal(got, want)
        assert np.array_equal(moved[2], base[2])


@pytest.mark.parametrize("positions", ["compact", "original"])
def test_embed_gives_an_empty_example_the_null_token_at_table_row_0(positions):
    """Two streams whose examples keep 2, 0, 0 and 1 of 4 tokens: each empty
    example is one row of embed's output, the null token's projection plus
    positional table row 0, in either positions mode; the other rows are
    their kept tokens' projections plus their own positional rows. The
    input is what `Pipeline.pack` hands the task model."""
    cfg = RunConfig(dataset="unused", strategy=StrategyConfig("deterministic_topk", k=1),
                    model=PACKED, positions=positions)
    pipeline = Pipeline(cfg, {"d": 5, "multimodal": True, "num_classes": 3})
    task = pipeline.task
    rng = SeededRng(37)
    streams = [rng.split(i).normals(4 * 4 * 5).reshape(4, 4, 5) for i in range(2)]
    hard = np.zeros((4, 4))
    hard[0, [1, 3]] = hard[3, 2] = 1.0
    mask = SelectionMask(hard, ad.constant(hard))
    (kept, at), _ = pipeline.pack([ad.constant(x) for x in streams], None, lambda _: mask)
    state = run_stages(Tape(), task.stages()[:3], (kept, at))
    assert [stage.name for stage in task.stages()[:3]] == [
        "task.null_token", "task.positions", "task.in"]
    assert kept.lengths == (4, 0, 0, 2)
    assert state.lengths == (4, 1, 1, 2)
    v, w = streams
    null = task.null_token.value
    inputs = [v[0, 1], v[0, 3], w[0, 1], w[0, 3], null, null, v[3, 2], w[3, 2]]
    table_rows = ([0, 1, 0, 1] if positions == "compact" else [1, 3, 1, 3]) + [0, 0] + (
        [0, 0] if positions == "compact" else [2, 2])
    expected = np.stack(inputs) @ task.in_w.value + task.in_b.value + task.pos_table.value[
        table_rows]
    np.testing.assert_allclose(state.rows.data, expected, rtol=1e-13, atol=1e-15)


def state_bytes(state) -> list:
    """Every array, shape and length of a stage's state, in order: equal
    lists are equal states, byte for byte."""
    if isinstance(state, Packed):
        return [state.rows.data.tobytes(), state.rows.shape, state.lengths]
    if isinstance(state, SelectionMask):
        return [state.hard.tobytes(), state.soft.data.tobytes(), state.hard.shape]
    if isinstance(state, (tuple, list)):
        return [part for component in state for part in state_bytes(component)]
    return [state.data.tobytes(), state.shape]


def assert_stages_read_what_they_name(stages, parameters, state) -> None:
    """Each stage in turn, from `state`: new values in every parameter it
    does not name leave its output bit-identical, and new values in the
    ones it names, if any, move it."""
    for stage in stages:
        out = state_bytes(stage.run(Tape(), state))
        others = [p for p in parameters if p not in stage.parameters]
        trials = [(others, True)] + ([(stage.parameters, False)] if stage.parameters else [])
        for moved, same in trials:
            saved = [p.value for p in moved]
            for p in moved:
                p.value = p.value + 1.0
            try:
                assert (state_bytes(stage.run(Tape(), state)) == out) is same, stage.name
            finally:
                for p, value in zip(moved, saved):
                    p.value = value
        state = stage.run(Tape(), state)


def test_each_stage_reads_only_the_parameters_it_names():
    """The stages name every parameter once, and read only those: what the
    stacked gradient check relies on. The batch keeps counts 4, 1, 0, 2, so
    embed packs rows and reads the null token at table row 0."""
    model = init_parameters(replace(PACKED, init_std=0.5), SeededRng(34))
    stages = model.stages()
    assert [stage.name for stage in stages] == [
        "task.null_token", "task.positions", "task.in",
        *(f"task.block{i}.{name}" for i in range(2)
          for name in ("ln1", "attn.qkv", "attn.attention", "attn.out",
                       "ln2", "ff.w1", "ff.gelu", "ff.w2")),
        "task.lnf", "task.pool", "task.head"]
    named = [p for stage in stages for p in stage.parameters]
    assert sorted(p.name for p in named) == sorted(p.name for p in model.parameters())
    assert len({id(p) for p in named}) == len(named)
    kept = Packed(ad.constant(SeededRng(35).normals(7 * 5).reshape(7, 5)), (4, 1, 0, 2))
    positions = np.array([0, 1, 2, 3, 0, 0, 1])
    assert_stages_read_what_they_name(stages, model.parameters(), (kept, positions))
    state = run_stages(Tape(), stages, (kept, positions))
    assert state.shape == (4, 3)
    with Tape() as tape:
        assert np.array_equal(model.forward(tape, kept, positions).data, state.data)


PIPELINE_MODEL = TaskPerformerConfig(d_model=8, heads=2, layers=2, max_len=16, ff_mult=2,
                                     init_std=0.5)
STRATEGIES = {"uniform_fixed": StrategyConfig("uniform_fixed", k=3),
              "gumbel_topk": StrategyConfig("gumbel_topk", k=3, tau=0.5),
              "ratio_controlled": StrategyConfig("ratio_controlled", target_ratio=0.5, tau=0.5)}


def staged_pipeline(kind: str):
    """A pipeline under `kind`, multimodal for ratio_controlled, and its
    streams, a batch of four of six tokens."""
    multimodal = kind == "ratio_controlled"
    pipeline = Pipeline(RunConfig(dataset="unused", strategy=STRATEGIES[kind],
                                  model=PIPELINE_MODEL, seed=3),
                        {"d": 5, "multimodal": multimodal, "num_classes": 3})
    streams = [ad.constant(SeededRng(40 + i).normals(4 * 6 * 5).reshape(4, 6, 5))
               for i in range(2 if multimodal else 1)]
    return pipeline, streams


@pytest.mark.parametrize("selector", ["sampler", "ranker"])
@pytest.mark.parametrize("kind", list(STRATEGIES))
def test_pipeline_stages_are_forward_batch(kind, selector):
    """Every stage of `Pipeline.stages` in turn gives `forward_batch`'s
    logits byte for byte, after selection the task model's input under
    `forward_batch`'s mask, and on an active tape records the same ops in
    the same order."""
    pipeline, streams = staged_pipeline(kind)

    def select():
        return pipeline.sampler(SeededRng(7)) if selector == "sampler" else pipeline.ranker()

    stages = pipeline.stages(select())
    after_selection = [stage.name for stage in stages].index("selection") + 1
    with Tape() as tape:
        logits, mask = pipeline.forward_batch(tape, streams, select())
        ops = [kind for kind, _, _ in tape._nodes]
    with Tape() as tape:
        states = [streams]
        for stage in pipeline.stages(select()):
            states.append(stage.run(tape, states[-1]))
        assert [kind for kind, _, _ in tape._nodes] == ops
    assert state_bytes(states[-1]) == state_bytes(logits)
    kept, positions = states[after_selection]
    assert kept.lengths == tuple(len(streams) * mask.kept_count)
    assert np.array_equal(positions, reencode_positions(mask, len(streams)))
    assert (pipeline.scorer is not None) == any(stage.name.startswith("scorer.") for stage in stages)
    assert (pipeline.context is not None) == any(stage.name == "context.attention"
                                                 for stage in stages)


@pytest.mark.parametrize("kind", list(STRATEGIES))
def test_each_pipeline_stage_reads_only_the_parameters_it_names(kind):
    """The same for the pipeline's stages, under the sampler at fixed noise:
    the keep-probability stages, selection and the task model's. Only the
    task model's null stage names a parameter it need not read, here where
    every example keeps a token."""
    pipeline, streams = staged_pipeline(kind)
    stages = pipeline.stages(lambda s: pipeline.sampler(SeededRng(7))(s))
    named = [p for stage in stages for p in stage.parameters]
    assert {id(p) for p in named} == {id(p) for p in pipeline.parameters()}
    state = streams
    for stage in stages:
        if stage.name == "task.null_token":
            assert min(state[0].lengths) > 0
            stage = stage._replace(parameters=())
        assert_stages_read_what_they_name([stage], pipeline.parameters(), state)
        state = stage.run(Tape(), state)


@pytest.mark.parametrize("multimodal", [False, True], ids=["one_stream", "two_streams"])
@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_each_pipeline_parameter_is_named_by_one_stage(kind, multimodal):
    """Every strategy, over one stream or two: each parameter of the
    pipeline is named by exactly one of its stages, so a finite difference
    of any of them reruns one span, mostly one op."""
    strategy = StrategyConfig.for_fraction(kind, 0.5, 6, tau=0.1, lam=1.0)
    pipeline = Pipeline(RunConfig(dataset="unused", strategy=strategy, model=PIPELINE_MODEL),
                        {"d": 5, "multimodal": multimodal, "num_classes": 3})
    stages = pipeline.stages(pipeline.ranker())
    for p in pipeline.parameters():
        naming = [stage.name for stage in stages if any(q is p for q in stage.parameters)]
        assert len(naming) == 1, (p.name, naming)


def reference_forward(model, kept_rows, lengths, positions):
    """Numpy transcription of the task model on packed rows where every
    example keeps a token: input projection plus positions, each pre-norm
    block with its two residual sublayers, final norm, each sequence's mean
    and the head."""
    def norm(x, gain, bias):
        centred = x - x.mean(axis=1, keepdims=True)
        return centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + 1e-5) * gain + bias

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))

    x = kept_rows @ model.in_w.value + model.in_b.value + positions
    for block in model.blocks:
        x = x + per_head_attention(block.attn, norm(x, block.ln1_g.value, block.ln1_b.value),
                                   lengths)
        h = gelu(norm(x, block.ln2_g.value, block.ln2_b.value) @ block.ff_w1.value
                 + block.ff_b1.value)
        x = x + h @ block.ff_w2.value + block.ff_b2.value
    x = norm(x, model.ln_f_g.value, model.ln_f_b.value)
    ends = np.cumsum(lengths)
    pooled = np.stack([x[end - length:end].mean(axis=0) for end, length in zip(ends, lengths)])
    return pooled @ model.head_w.value + model.head_b.value


def test_forward_matches_a_numpy_transcription():
    """The stages compute the model they describe: logits of three packed
    sequences of 4, 1 and 2 rows agree with the plain-numpy forward."""
    model = init_parameters(replace(PACKED, init_std=0.5), SeededRng(38))
    for p in model.parameters():  # move the biases and gains off their initial 0 and 1
        p.value = p.value + 0.1 * SeededRng(39).normals(p.value.size).reshape(p.shape)
    rows = SeededRng(40).normals(7 * 5).reshape(7, 5)
    positions = np.array([0, 1, 2, 3, 0, 1, 0])
    logits = model.forward(Tape(), Packed(ad.constant(rows), (4, 1, 2)), positions)
    expected = reference_forward(model, rows, (4, 1, 2), model.pos_table.value[positions])
    np.testing.assert_allclose(logits.data, expected, rtol=1e-12, atol=1e-13)


def test_capacity_error():
    model = init_parameters(SMALL, SeededRng(9))
    with Tape() as tape:
        tokens = one_sequence(ad.constant(np.zeros((11, 5))))
        with pytest.raises(CapacityError, match="sequence of 11 exceeds max_len 10"):
            model.forward(tape, tokens, np.arange(11))


def test_input_token_gradient_matches_finite_differences():
    model = init_parameters(replace(SMALL, init_std=0.4), SeededRng(10))
    point = SeededRng(11).normals(15).reshape(3, 5)

    def build(x):
        tape = ad.active_tape() or Tape()
        logits = model.forward(tape, one_sequence(x), np.arange(3))
        return ad.cross_entropy_loss(logits, 2)

    worst, _ = central_difference_check([catalog_case("tokens", point, build, None)])
    assert worst <= 1e-4


def per_head_attention(attn, x, lengths):
    """Numpy reference: each example and head on its own, from the head's
    column slices of wqkv (q | k | v blocks) and row slice of wo; x holds
    sequences of `lengths` rows packed one after another."""
    d, heads = attn.d, attn.heads
    dk = d // heads
    wqkv, wo = attn.wqkv.value, attn.wo.value
    out = np.tile(attn.bo.value, (x.shape[0], 1))
    ends = np.cumsum(lengths)
    for end, length in zip(ends, lengths):
        rows = slice(end - length, end)
        for h in range(heads):
            q, k, v = (x[rows] @ wqkv[:, role * d + h * dk: role * d + (h + 1) * dk]
                       for role in range(3))
            logits = q @ k.T / np.sqrt(dk)
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            out[rows] += probs @ v @ wo[h * dk:(h + 1) * dk]
    return out


@pytest.mark.parametrize("padded", [False, True])
def test_fused_attention_matches_per_head_reference(padded):
    """Three sequences of five rows, or with padding of three, five and one
    row, packed one after another."""
    attn = MultiHeadAttention("attn", 8, 2)
    attn.init(SeededRng(20), 0.5)
    attn.bo.value = SeededRng(21).normals(8)
    x = SeededRng(22).normals(3 * 5 * 8).reshape(15, 8)
    lengths = (3, 5, 1) if padded else (5, 5, 5)
    x = x[np.flatnonzero(np.arange(5) < np.array(lengths)[:, None])]
    out = run_stages(Tape(), attn.stages(), Packed(ad.constant(x), lengths)).rows.data
    expected = per_head_attention(attn, x, lengths)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_fused_init_keeps_the_per_head_draws():
    """Stream i fills the i-th [d, dk] column block of wqkv (q heads, k heads,
    v heads), then stream 3*heads + h the h-th [dk, d] row block of wo."""
    d, heads, dk = 8, 2, 4
    attn = MultiHeadAttention("attn", d, heads)
    rng = SeededRng(23)
    attn.init(rng, 0.3)

    def draw(i, shape):
        return rng.split(i).normals(d * dk, 0.0, 0.3).reshape(shape)

    for i in range(3 * heads):
        assert np.array_equal(attn.wqkv.value[:, i * dk:(i + 1) * dk], draw(i, (d, dk)))
    for h in range(heads):
        assert np.array_equal(attn.wo.value[h * dk:(h + 1) * dk], draw(3 * heads + h, (dk, d)))
    assert [p.name for p in attn.parameters()] == ["attn.wqkv", "attn.wo", "attn.bias"]


def test_attention_is_three_tape_ops_whatever_the_head_count():
    for heads in (1, 2, 4):
        attn = MultiHeadAttention("attn", 8, heads)
        with Tape() as tape:
            run_stages(tape, attn.stages(), Packed(tape.leaf(np.ones((5, 8))), (2, 3)))
        # x, wqkv, wo, bias leaves + matmul, attention, linear
        ops = [kind for kind, _, _ in tape._nodes if kind != "leaf"]
        assert ops == ["matmul", "attention", "linear"]
        assert len(tape) == 4 + 3


def test_d_model_heads_divisibility():
    with pytest.raises(ContractError):
        TaskPerformerConfig(d_model=30, heads=4)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_parameters(SMALL, SeededRng(12))
        path = tmp_path / "model.stkn"
        save_checkpoint(str(path), model.parameters())
        arrays = load_checkpoint(str(path))
        for p in model.parameters():
            assert np.array_equal(arrays[p.name], p.value)
        # byte-identical re-serialization
        clone = init_parameters(SMALL, SeededRng(99))
        restore_parameters(clone.parameters(), arrays)
        path2 = tmp_path / "model2.stkn"
        save_checkpoint(str(path2), clone.parameters())
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        model = init_parameters(SMALL, SeededRng(13))
        path = tmp_path / "m.stkn"
        save_checkpoint(str(path), model.parameters())
        raw = path.read_bytes()
        assert raw[:4] == b"STKN"
        assert int.from_bytes(raw[4:8], "little") == CHECKPOINT_VERSION == 2

    def test_version_1_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "old.stkn"
        save_checkpoint(str(path), init_parameters(SMALL, SeededRng(13)).parameters())
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:])
        with pytest.raises(ContractError, match="unsupported checkpoint version 1"):
            load_checkpoint(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.stkn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContractError):
            load_checkpoint(str(path))

    def test_missing_parameter_rejected(self, tmp_path):
        model = init_parameters(SMALL, SeededRng(14))
        path = tmp_path / "m.stkn"
        save_checkpoint(str(path), model.parameters()[:-1])
        arrays = load_checkpoint(str(path))
        with pytest.raises(ContractError):
            restore_parameters(model.parameters(), arrays)

    @pytest.mark.parametrize("cut,named", [(3000, "parameter 'task.in.w'"),
                                           (9, "the first parameter"),
                                           (-1, "parameter 'task.head.b'")])
    def test_truncated_checkpoint_names_parameter(self, tmp_path, cut, named):
        path = tmp_path / "m.stkn"
        save_checkpoint(str(path), init_parameters(TaskPerformerConfig(), SeededRng(15))
                        .parameters())
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(ContractError, match=f"truncated in {named}"):
            load_checkpoint(str(path))
