import inspect
import math
import tracemalloc

import numpy as np
import pytest

import sparsetok.autodiff as ad
import sparsetok.checks as checks
import sparsetok.data as data
import sparsetok.train as train
from sparsetok.autodiff import CENTRAL, Tape
from sparsetok.checks import (FD_STEP, MULTIMODAL_STENCIL, MULTIMODAL_STEP, SAMPLE_TOLERANCE,
                              ReplayedNoise, SuiteReport, catalog_case, check_catalog,
                              check_gumbel_max_frequencies, check_gumbel_mean,
                              check_multimodal_end_to_end, check_ste_soft_path,
                              check_topk_inclusion_frequencies, check_topk_selection_frequencies,
                              format_sample_report, frozen_selector, multimodal_point,
                              pipeline_cases, plackett_luce_inclusion, replica_losses,
                              run_gradcheck, run_sample_check, stack,
                              stacked_central_differences, ste_point)
from sparsetok.data import NeedleSpec, generate_dataset
from sparsetok.errors import ContractError
from sparsetok.gumbel import sample_standard_gumbel
from sparsetok.model import TaskPerformerConfig
from sparsetok.rng import SeededRng
from sparsetok.selection import (LAWS, Packed, StrategyConfig, deterministic_topk_select,
                                 ratio_controlled_gate)
from sparsetok.stages import run_stages
from sparsetok.train import Pipeline, RunConfig, train_step


def test_gradcheck_all_suites_pass():
    reports, ok = run_gradcheck()
    assert ok
    names = [r.name for r in reports]
    assert names == ["autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"]
    for r in reports:
        assert r.worst <= 1e-4, r.line()


def test_gradcheck_detects_injected_bad_adjoint():
    reports, ok = run_gradcheck(corrupt_op="gelu")
    assert not ok
    failing = [r for r in reports if not r.ok]
    assert failing
    assert any("gelu" in r.detail for r in failing)


def test_nested_corruption_hands_the_outer_one_back():
    with ad.corrupt_adjoint("gelu") as outer:
        with ad.corrupt_adjoint("exp"):
            pass
        report = check_catalog()
    assert not report.ok and "gelu" in report.detail, report.line()
    assert outer.count > 0


def test_corrupted_straight_through_fails_both_ste_suites():
    reports, ok = run_gradcheck(corrupt_op="straight_through")
    assert not ok
    failing = {r.name for r in reports if not r.ok}
    assert {"ste_soft_path", "multimodal_end_to_end"} <= failing


@pytest.mark.parametrize("op", ["attention", "transpose", "subtract"])
def test_corrupted_op_fails_catalog_and_multimodal(op):
    """`transpose` and `subtract` run outside the catalog only in the
    ratio-controlled gate, which the multimodal suite alone checks."""
    reports, ok = run_gradcheck(corrupt_op=op)
    assert not ok
    failing = {r.name for r in reports if not r.ok}
    assert {"autodiff_catalog", "multimodal_end_to_end"} <= failing
    assert op in reports[0].detail


def test_corrupted_linear_fails_catalog_and_multimodal():
    reports, ok = run_gradcheck(corrupt_op="linear")
    assert not ok
    failing = {r.name for r in reports if not r.ok}
    # the scorer's two layers are linear too, so the STE suite fails as well
    assert failing == {"autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"}
    assert "linear" in reports[0].detail


def test_corrupted_matmul_still_fails_every_suite():
    """With the biased projections fused into `linear`, matmul remains in the
    catalog, the q | k | v projection and the scorer's keep column."""
    reports, ok = run_gradcheck(corrupt_op="matmul")
    assert not ok
    assert [r.name for r in reports if not r.ok] == [
        "autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"]
    assert "matmul" in reports[0].detail


def test_corrupted_segment_mean_fails_catalog_and_multimodal():
    """The task model's pool is the only `segment_mean` outside the catalog,
    and both pipeline suites run the task model."""
    reports, ok = run_gradcheck(corrupt_op="segment_mean")
    assert not ok
    assert [r.name for r in reports if not r.ok] == [
        "autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"]
    assert "segment_mean" in reports[0].detail


# the tape kinds the catalog's ops record: every kind the package records
# but `straight_through`
CATALOG_KINDS = ("add", "subtract", "multiply", "matmul", "linear", "scale", "log", "exp",
                 "square", "gelu", "layer_norm", "concat_rows", "gather_rows",
                 "mask_multiply", "mean_all", "transpose", "reshape", "scale_rows",
                 "softmax_with_temperature", "attention", "segment_mean", "cross_entropy_loss")
# no pipeline op multiplies, exponentiates or masks, but perfbench's tracer
# patches `multiply`, `exp` and `mask_multiply` by name, and `mask_multiply`
# weights every catalog loss
CATALOG_ONLY_KINDS = {"multiply", "exp", "mask_multiply"}
# no finite difference sees the straight-through surrogate gradient; the
# two pipeline suites check it
PIPELINE_ONLY_KINDS = {"straight_through"}


def _recorded_forms(run) -> set[tuple[str, tuple[int, ...], int]]:
    """(tape kind, input ranks, output rank) of each node `run()` records."""
    forms = set()
    record = ad._record

    def recording(kind, out, inputs, vjp):
        tensor = record(kind, out, inputs, vjp)
        if tensor.node_id is not None:
            forms.add((kind, tuple(t.data.ndim for t in inputs), out.ndim))
        return tensor

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_record", recording)
        run()
    return forms


def _pipeline_forms() -> set[tuple[str, tuple[int, ...], int]]:
    """The op forms training records: one `train_step` per strategy on a
    unimodal and on a multimodal batch (`ratio_controlled` at lambda 1, so
    with its selection loss), and `Pipeline.loss` at both pipeline suites'
    points."""
    forms = set()
    model = TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=16, ff_mult=2)
    for multimodal in (False, True):
        batch = generate_dataset(NeedleSpec(n=8, d=6, multimodal=multimodal), 4, seed=3)
        for kind in LAWS:
            strategy = StrategyConfig.for_fraction(kind, 0.5, 8, tau=0.5, lam=1.0)
            pipeline = Pipeline(RunConfig(dataset="", strategy=strategy, model=model),
                                {"d": 6, "multimodal": multimodal, "num_classes": 4})
            forms |= _recorded_forms(lambda: train_step(
                pipeline, pipeline.parameters(), batch, SeededRng(1)))
    for pipeline, streams, labels, select in (ste_point(7), multimodal_point(8)):
        def loss():
            with Tape() as tape:
                pipeline.loss(tape, [tape.param(s) for s in streams], labels, select)
        forms |= _recorded_forms(loss)
    return forms


def _catalog_forms() -> set[tuple[str, tuple[int, ...], int]]:
    """The op forms of the catalog's cases, each case's op alone on a taped
    leaf."""
    forms = set()
    for _, point, op, _ in checks._catalog_cases(SeededRng(2024)):
        def run():
            with Tape() as tape:
                op(tape.leaf(point))
        forms |= _recorded_forms(run)
    return forms


def test_catalog_checks_exactly_the_op_forms_the_pipeline_records():
    """Every form training records has a catalog case, and the catalog has
    no case of a form training does not record, but for the named kinds."""
    pipeline, catalog = _pipeline_forms(), _catalog_forms()
    kinds = lambda forms: {kind for kind, _, _ in forms}
    assert ({f for f in catalog if f[0] not in CATALOG_ONLY_KINDS}
            == {f for f in pipeline if f[0] not in PIPELINE_ONLY_KINDS})
    assert kinds(catalog - pipeline) == CATALOG_ONLY_KINDS
    assert kinds(pipeline - catalog) == PIPELINE_ONLY_KINDS
    assert kinds(catalog) == set(CATALOG_KINDS)


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_a_corrupted_adjoint_of_each_catalog_kind_fails_the_catalog(kind):
    with ad.corrupt_adjoint(kind) as corruption:
        report = check_catalog()
    assert corruption.count > 0
    assert not report.ok, report.line()


def test_stacked_central_differences_match_the_per_coordinate_loop():
    """Every suite's stacked finite differences are those of the
    per-coordinate loop, which re-runs the whole loss at each point of the
    stencil: bit for bit for every catalog case of one repeat, and to 1e-9
    absolute for the four scorer parameters of the straight-through suite
    and every array of the multimodal suite at their default seeds, 7 and
    8, whose stacks batch the task model's BLAS products and attention
    differently."""
    for name, point, op, weights in checks._catalog_cases(SeededRng(2024).split(0)):
        loss = op if weights is None else lambda x: ad.mean_all(ad.mask_multiply(op(x), weights))
        reference = ad.central_differences(lambda: loss(ad.Tensor(point)).item(), point, FD_STEP)
        _, numeric, _ = catalog_case(name, point, op, weights)
        np.testing.assert_array_equal(numeric, reference, err_msg=name)

    ste, multimodal = ste_point(7), multimodal_point(8)
    suites = [(ste, ste[0].scorer.parameters(), FD_STEP, CENTRAL),
              (multimodal, [*multimodal[0].parameters(), multimodal[1][0]], MULTIMODAL_STEP,
               MULTIMODAL_STENCIL)]
    assert [len(arrays) for _, arrays, _, _ in suites] == [4, 27]
    for (pipeline, streams, labels, select), arrays, step, stencil in suites:
        # the taped pass, the selector's first call, fixes the kept set
        stacked = list(pipeline_cases(pipeline, streams, labels, select, arrays, step, stencil))

        def loss_at():
            tokens = [ad.constant(s.value) for s in streams]
            return pipeline.loss(Tape(), tokens, labels, select)[0].item()

        assert len(stacked) == len(arrays)
        for array, (name, numeric, _) in zip(arrays, stacked):
            reference = ad.central_differences(loss_at, array.value, step, stencil)
            assert numeric.shape == reference.shape == (array.value.size,)
            np.testing.assert_allclose(numeric, reference, rtol=0, atol=1e-9, err_msg=name)


def test_stacked_differences_run_every_stage_that_reads_the_array():
    """A base batch whose first example keeps nothing runs the task model's
    null stage, which reads `task.null_token` and gives the example table
    row 0; `task.pos_table` is read by one stage after it. So the null
    token's stacked points carry the packed rows' integer positions, and
    table row 0's finite differences hold the empty example's read. Both
    are those of the per-coordinate loop."""
    pipeline, streams, labels, _ = multimodal_point(8)
    streams = [ad.constant(s.value) for s in streams]
    noise = sample_standard_gumbel(SeededRng(55), 2 * 2 * 5).reshape(2, 2, 5)
    noise[0, 0] = -50.0  # example 0's keep logits: it keeps no token
    select = frozen_selector(lambda s: ratio_controlled_gate(
        s, np.tile(noise, (s.shape[0] // 2, 1, 1)), 0.5))

    def loss_at():
        return pipeline.loss(Tape(), streams, labels, select)[0].item()

    _, mask = pipeline.forward_batch(Tape(), streams, select)  # fixes the kept set
    assert mask.kept_count.tolist() == [0, 1]
    arrays = [pipeline.task.pos_table.value, pipeline.task.null_token.value]
    stages = pipeline.stages(select)
    readers = [[stage.name for stage in stages if any(p.value is a for p in stage.parameters)]
               for a in arrays]
    assert readers == [["task.positions"], ["task.null_token"]]
    stacked = stacked_central_differences(
        stages, streams, arrays, lambda logits: replica_losses(logits, labels),
        MULTIMODAL_STEP, MULTIMODAL_STENCIL)
    for array, numeric in zip(arrays, stacked):
        reference = ad.central_differences(loss_at, array, MULTIMODAL_STEP, MULTIMODAL_STENCIL)
        assert np.abs(reference).max() > 1e-3
        np.testing.assert_allclose(numeric, reference, rtol=0, atol=1e-9)


def test_stacked_suites_run_their_loss_once_per_stack(monkeypatch):
    """The straight-through suite runs `apply_ste` once taped, once at the
    base point and once per stack: w1's 144 points make 3 stacks, and b1's,
    w2's and b2's one each, so 8. It runs the scorer's and the task model's
    `gelu` once taped and once at the base point, both once per stack of w1
    and b1, the arrays read before the scorer's, and the task model's once
    per stack of w2 and b2: 14. Re-running the whole loss at each of the
    220 points made 221 of `apply_ste` and 442 of `gelu`. The catalog calls
    `mean_all` 41 times a repeat in its taped losses, once in each of the
    39 weighted losses and once as the op of each of the two `mean_all`
    cases (123), and as that op at each of their 14 points a repeat (42):
    165, where a mean at every point made 3,555."""
    calls = {"apply_ste": 0, "gelu": 0, "mean_all": 0}

    def counted(name, fn):
        return lambda *args, **kwargs: calls.__setitem__(name, calls[name] + 1) or fn(
            *args, **kwargs)

    monkeypatch.setattr(train, "apply_ste", counted("apply_ste", train.apply_ste))
    monkeypatch.setattr(ad, "gelu", counted("gelu", ad.gelu))
    monkeypatch.setattr(ad, "mean_all", counted("mean_all", ad.mean_all))
    report = check_ste_soft_path()
    assert report.ok, report.line()
    assert calls == {"apply_ste": 8, "gelu": 14, "mean_all": 1}
    calls.update(dict.fromkeys(calls, 0))
    report = check_catalog()
    assert report.ok, report.line()
    assert calls["mean_all"] == 165


def test_stacked_differences_refuse_a_point_that_keeps_other_rows():
    """Stacking assumes every perturbed point keeps the base point's rows;
    a selector that keeps other rows away from the base point is refused,
    and so is a batch that is no stack of copies of the base batch."""
    pipeline, streams, labels, select = multimodal_point(8)
    calls = []

    def drifting(s):  # the base point's rows in the taped pass and the base run
        calls.append(s)
        return select(s) if len(calls) <= 2 else deterministic_topk_select(s, 4)

    with pytest.raises(ContractError, match="keep rows"):
        list(pipeline_cases(pipeline, streams, labels, drifting, [streams[0]],
                            MULTIMODAL_STEP, MULTIMODAL_STENCIL))
    with pytest.raises(ContractError, match="does not stack copies"):
        select(ad.constant(np.full((3, 5), 0.5)))


def test_pipeline_cases_refuse_the_selection_loss():
    """At lambda > 0 the objective carries the selection loss, whose hard
    count the frozen kept set holds fixed: no difference could check it."""
    pipeline, streams, labels, select = multimodal_point(8)
    pipeline.cfg.strategy.lam = 1.0
    with pytest.raises(ContractError, match="selection loss"):
        pipeline_cases(pipeline, streams, labels, select, [streams[0]], MULTIMODAL_STEP,
                       MULTIMODAL_STENCIL)


@pytest.mark.parametrize("point", [ste_point, multimodal_point],
                         ids=["gumbel_topk", "ratio_controlled"])
def test_replayed_noise_gives_each_stacked_copy_the_base_mask(point):
    """Through the training sampler, a stack of three copies of the base
    batch gets three base masks, byte for byte; the draw is the seed's own."""
    pipeline, streams, _, _ = point(8)
    noise = ReplayedNoise(SeededRng(99))
    select = pipeline.sampler(noise)
    batch, n = streams[0].shape[:2]
    s = SeededRng(4).uniforms(batch * n).reshape(batch, n)
    base, stacked = select(ad.constant(s)), select(ad.constant(np.tile(s, (3, 1))))
    assert stacked.hard.tobytes() == 3 * base.hard.tobytes()
    assert stacked.soft.data.tobytes() == 3 * base.soft.data.tobytes()
    assert np.array_equal(noise.first, SeededRng(99).uniforms(noise.first.size))


def test_replica_losses_move_only_with_their_own_rows():
    """Stacked batches do not mix: new rows in one replica change its loss
    alone, and each loss is that of its batch run by itself."""
    pipeline, streams, labels, select = multimodal_point(8)
    stages, later = pipeline.stages(select), pipeline.task.stages()[3:]  # after the embedding
    state = run_stages(Tape(), stages[:-len(later)], [ad.constant(s.value) for s in streams])
    assert len(set(state.lengths)) > 1  # unequal lengths: attention groups them inside the stack
    moved = Packed(ad.constant(state.rows.data + SeededRng(3).normals(state.rows.data.size)
                               .reshape(state.rows.shape)), state.lengths)
    before = replica_losses(run_stages(Tape(), later, stack([state, state, state])), labels)
    after = replica_losses(run_stages(Tape(), later, stack([state, moved, state])), labels)
    assert after[0] == before[0] and after[2] == before[2]
    assert after[1] != before[1]
    alone = [replica_losses(run_stages(Tape(), later, s), labels)[0] for s in (state, moved)]
    assert before == pytest.approx([alone[0]] * 3, rel=0, abs=1e-14)
    assert after[1] == pytest.approx(alone[1], rel=0, abs=1e-14)


def test_stack_joins_states_component_by_component():
    """Packed rows end to end with their lengths in turn, tensors and index
    arrays along the first axis, tuples and lists part by part."""
    rows = [np.arange(6.0).reshape(3, 2), np.arange(6.0, 10.0).reshape(2, 2)]
    states = [(Packed(ad.constant(rows[0]), (1, 2)), [ad.constant(rows[0][:1])], np.arange(3)),
              (Packed(ad.constant(rows[1]), (2,)), [ad.constant(rows[1][:1])], np.arange(2))]
    packed, tensors, positions = stack(states)
    assert positions.tolist() == [0, 1, 2, 0, 1]
    assert packed.lengths == (1, 2, 2)
    assert np.array_equal(packed.rows.data, np.arange(10.0).reshape(5, 2))
    assert isinstance(tensors, list) and len(tensors) == 1
    assert np.array_equal(tensors[0].data, [[0.0, 1.0], [6.0, 7.0]])


@pytest.mark.parametrize("suite, op", [
    pytest.param(check_catalog, "exp", id="catalog-exp"),
    pytest.param(check_catalog, "gelu", id="catalog-gelu"),
    pytest.param(check_ste_soft_path, "gelu", id="ste_soft_path-gelu"),
    pytest.param(check_multimodal_end_to_end, "gelu", id="multimodal_end_to_end-gelu"),
])
def test_nan_adjoint_fails_the_suite(suite, op):
    """A NaN gradient must fail, however small the other errors are."""
    with ad.corrupt_adjoint(op, float("nan")):
        report = suite()
    assert math.isnan(report.worst) and not report.ok, report.line()


@pytest.mark.parametrize("seed", [1, 2, 3, *(pytest.param(seed, marks=pytest.mark.slow)
                                             for seed in (4, 5, 7, 8, 10, 11, 12))])
def test_multimodal_end_to_end_over_seeds(seed):
    report = check_multimodal_end_to_end(seed)
    assert report.ok, report.line()


@pytest.mark.parametrize("seed", [1, 2, 3, *(pytest.param(seed, marks=pytest.mark.slow)
                                             for seed in range(4, 13))])
def test_ste_soft_path_over_seeds(seed):
    report = check_ste_soft_path(seed)
    assert report.ok, report.line()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [6, 9])
def test_multimodal_end_to_end_refuses_equal_kept_counts(seed):
    with pytest.raises(ContractError, match="must differ and be non-zero"):
        check_multimodal_end_to_end(seed)


def test_gradcheck_is_deterministic():
    r1, _ = run_gradcheck()
    r2, _ = run_gradcheck()
    assert [r.line() for r in r1] == [r.line() for r in r2]


def test_sample_check_suites_individually():
    assert check_gumbel_mean(200_000).ok
    assert check_gumbel_max_frequencies(30_000).ok
    assert check_topk_selection_frequencies(20_000).ok


def test_sample_check_report_deterministic():
    r1, ok1 = run_sample_check()
    r2, ok2 = run_sample_check()
    assert ok1 and ok2
    assert format_sample_report(r1) == format_sample_report(r2)


def test_every_check_suite_runs_in_the_cli():
    """Each `check_*` suite is called, through the module's globals, by
    run_gradcheck or run_sample_check, so none is defined and left out."""
    suites = [name for name, fn in vars(checks).items()
              if name.startswith("check_") and inspect.isfunction(fn)
              and fn.__module__ == checks.__name__]
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for name in suites:
            mp.setattr(checks, name, lambda *a, name=name: ran.append(name)
                       or SuiteReport(name, 0.0, True))
        run_gradcheck()
        run_sample_check()
    assert len(suites) >= 7
    assert sorted(ran) == sorted(suites)


def test_topk_inclusion_suite_individually():
    assert check_topk_inclusion_frequencies(20_000).ok


def test_plackett_luce_inclusion_closed_forms():
    s = np.array([0.1, 0.2, 0.3, 0.4])
    assert plackett_luce_inclusion(s, 1) == pytest.approx(s / s.sum(), abs=1e-15)
    assert plackett_luce_inclusion(s, 2) == pytest.approx([0.2345, 0.4413, 0.6083, 0.7159],
                                                          abs=5e-5)
    assert plackett_luce_inclusion(s, 4) == pytest.approx(np.ones(4), abs=1e-15)
    # every order keeps exactly k items
    assert plackett_luce_inclusion(s, 3).sum() == pytest.approx(3.0, abs=1e-14)


def test_topk_inclusion_oracle_has_power():
    """The naive K s_i / sum(s) is off by more than the bound, and a
    selector that keeps the top K without noise fails the suite."""
    s = np.array([0.1, 0.2, 0.3, 0.4])
    naive_dev = np.abs(plackett_luce_inclusion(s, 2) - 2 * s / s.sum()).max()
    assert naive_dev == pytest.approx(0.084, abs=5e-4)
    assert naive_dev > SAMPLE_TOLERANCE
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "gumbel_topk_select",
                   lambda scores, k, tau, rng: deterministic_topk_select(scores, k))
        report = check_topk_inclusion_frequencies(2_000)
    assert not report.ok, report.line()


def _traced_peak_mib(suite) -> float:
    """The traced peak allocation of one passing run of `suite`, MiB."""
    tracemalloc.start()
    try:
        report = suite()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok, report.line()
    return peak / 2**20


# traced peak allocation at the default trial count, MiB: about twice the
# chunked driver's peaks (1.50, 2.23, 4.24, 4.20 MiB with 2^16-value chunks)
# and below the peaks of one batch of all trials (22.89, 10.21, 19.36 MiB for
# the first three suites)
_PEAK_BOUNDS_MIB = {
    check_gumbel_mean: 3.0,
    check_gumbel_max_frequencies: 4.5,
    check_topk_selection_frequencies: 8.5,
    check_topk_inclusion_frequencies: 8.5,
}


@pytest.mark.parametrize("suite", _PEAK_BOUNDS_MIB, ids=lambda suite: suite.__name__)
def test_sampling_suite_memory_is_bounded(suite):
    assert _traced_peak_mib(suite) < _PEAK_BOUNDS_MIB[suite]


# traced peak allocation of one run, MiB, at most STACK_REPLICAS = 64 points
# a stack: 0.17, 0.33 and 0.94 MiB. The straight-through and multimodal
# bounds fail at 128 points a stack (0.60 and 1.74 MiB) and with no bound
# (0.66 and 8.91 MiB); the catalog's stacks are small at any size (0.24 MiB
# with no bound)
_GRADIENT_PEAK_BOUNDS_MIB = {
    check_catalog: 0.35,
    check_ste_soft_path: 0.45,
    check_multimodal_end_to_end: 1.5,
}


@pytest.mark.parametrize("suite", _GRADIENT_PEAK_BOUNDS_MIB, ids=lambda suite: suite.__name__)
def test_gradient_suite_memory_is_bounded(suite):
    assert _traced_peak_mib(suite) < _GRADIENT_PEAK_BOUNDS_MIB[suite]


@pytest.mark.parametrize("suite, n", [
    (check_gumbel_mean, 200_000),
    (check_gumbel_max_frequencies, 20_000),
    (check_topk_selection_frequencies, 20_000),
    (check_topk_inclusion_frequencies, 20_000),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_chunk_bound_does_not_change_the_draws(suite, n, monkeypatch):
    """Chunks continue one stream: an odd chunk bound, the default one and
    one batch of all trials give the same frequencies, and means within
    summation-order rounding."""
    devs = []
    for chunk_values in (1001, data._CHUNK_VALUES, 4 * n):
        monkeypatch.setattr(data, "_CHUNK_VALUES", chunk_values)
        devs.append(suite(n).worst)
    if suite is check_gumbel_mean:
        assert devs == pytest.approx([devs[-1]] * 3, abs=1e-15, rel=0)
    else:
        assert devs == [devs[-1]] * 3
