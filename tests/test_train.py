import numpy as np
import pytest

from metrics_csv import read_metrics_csv
from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape
from sparsetok.data import STREAMS, NeedleSpec, generate_dataset, write_dataset
from sparsetok.errors import ConfigError
from sparsetok.model import TaskPerformerConfig
from sparsetok.rng import SeededRng
from sparsetok.selection import Packed, StrategyConfig, k_for_fraction
from sparsetok.train import (Pipeline, RunConfig, evaluate, retain_heap, train_run,
                             train_step)

TINY_MODEL = TaskPerformerConfig(d_model=8, heads=2, layers=1, max_len=16,
                                 ff_mult=2, init_std=0.2)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    spec = NeedleSpec(n=8, d=6, num_informative=2, noise_std=0.3)
    write_dataset(generate_dataset(spec, 80, seed=5), str(path), spec, 5)
    return str(path)


@pytest.fixture(scope="module")
def tiny_mm_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny_mm.jsonl"
    spec = NeedleSpec(n=8, d=6, num_informative=2, textual_informative=2,
                      noise_std=0.3, multimodal=True)
    write_dataset(generate_dataset(spec, 80, seed=6), str(path), spec, 6)
    return str(path)


def tiny_cfg(dataset, strategy, **kw):
    defaults = dict(model=TINY_MODEL, lr=0.1, epochs=2, batch_size=16, seed=3)
    defaults.update(kw)
    return RunConfig(dataset=dataset, strategy=strategy, **defaults)


def test_k_for_fraction_rule():
    assert k_for_fraction(0.1, 32) == 3
    assert k_for_fraction(0.125, 32) == 4
    assert k_for_fraction(0.01, 32) == 1  # never zero tokens
    assert k_for_fraction(1.0, 32) == 32


def test_metrics_rows_per_epoch(tiny_dataset):
    res = train_run(tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5)))
    assert len(res.rows) == 2
    assert [r.epoch for r in res.rows] == [0, 1]
    for r in res.rows:
        assert 0 <= r.eval_accuracy <= 1
        assert 0 <= r.selection_recall <= 1
        assert r.strategy == "gumbel_topk"
        assert r.keep_fraction == 2 / 8


def test_rerun_is_bit_identical(tiny_dataset, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        train_run(tiny_cfg(tiny_dataset, StrategyConfig("ratio_controlled", target_ratio=0.4),
                           out_dir=str(out)))
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "checkpoint.stkn").read_bytes() == (out2 / "checkpoint.stkn").read_bytes()


def test_multimodal_rerun_is_bit_identical(tiny_mm_dataset, tmp_path, monkeypatch):
    """Two streams under ratio control: the packed kept sequences have
    unequal lengths, and a rerun writes the same bytes."""
    unequal = []
    classify = Pipeline.classify

    def recording(self, tape, kept, mask):
        unequal.append(len(set(kept.lengths)) > 1)
        return classify(self, tape, kept, mask)

    monkeypatch.setattr(Pipeline, "classify", recording)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        train_run(tiny_cfg(tiny_mm_dataset, StrategyConfig("ratio_controlled", target_ratio=0.4),
                           out_dir=str(out)))
    assert any(unequal)
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "checkpoint.stkn").read_bytes() == (out2 / "checkpoint.stkn").read_bytes()


def test_uniform_full_matches_no_selection_baseline(tiny_dataset):
    """uniform_fixed with K = n must equal a manually assembled run with the
    selection stage removed, loss for loss."""
    from sparsetok.data import load_dataset
    cfg = tiny_cfg(tiny_dataset, StrategyConfig("uniform_fixed", k=8))
    res = train_run(cfg)

    examples, header = load_dataset(tiny_dataset)
    pipeline = Pipeline(cfg, header)  # fresh params, same seed derivation
    tape = Tape()
    ex = examples[0]
    logits_pipeline, mask = pipeline.forward_example(tape, ex, noise_rng=None)
    assert mask.kept_count == 8

    kept = Packed(ad.constant(ex.tokens), (8,))
    pos = ad.gather_rows(tape.param(pipeline.task.pos_table), np.arange(8))
    logits_direct = pipeline.task.forward(tape, kept, pos)
    assert np.array_equal(logits_pipeline.data, logits_direct.data[0])


def test_lambda_zero_total_equals_task_loss(tiny_dataset):
    res = train_run(tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=2,
                                                          tau=0.5, lam=0.0)))
    res2 = train_run(tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=2,
                                                           tau=0.5, lam=7.0)))
    # selection loss only exists for ratio control; lambda is inert for top-K
    assert [r.train_loss for r in res.rows] == [r.train_loss for r in res2.rows]


def test_metrics_csv_embeds_config(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    train_run(tiny_cfg(tiny_dataset, StrategyConfig("deterministic_topk", k=3),
                       out_dir=str(out)))
    rows, config = read_metrics_csv(str(out / "metrics.csv"))
    assert config["strategy"] == "deterministic_topk"
    assert config["seed"] == "3"
    assert len(rows) == 2
    assert rows[0]["strategy"] == "deterministic_topk"
    assert float(rows[0]["wall_seconds"]) == 0.0  # deterministic placeholder


def test_timing_fills_only_wall_seconds(tiny_dataset, tmp_path, monkeypatch):
    """STKN_TIMING=1 writes each epoch's measured time; every other column
    keeps the bytes of the untimed run."""
    def rows_of(out):
        train_run(tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5),
                           out_dir=str(out)))
        return read_metrics_csv(str(out / "metrics.csv"))

    untimed, untimed_config = rows_of(tmp_path / "untimed")
    monkeypatch.setenv("STKN_TIMING", "1")
    timed, timed_config = rows_of(tmp_path / "timed")
    assert timed_config == untimed_config
    assert len(timed) == len(untimed) == 2
    for t, u in zip(timed, untimed):
        assert float(t.pop("wall_seconds")) > 0.0
        assert float(u.pop("wall_seconds")) == 0.0
        assert t == u


def test_multimodal_run_and_channels(tiny_mm_dataset):
    res = train_run(tiny_cfg(tiny_mm_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5)))
    assert res.pipeline.streams == STREAMS
    res_v = train_run(tiny_cfg(tiny_mm_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5),
                               channel="visual"))
    assert res_v.pipeline.streams == STREAMS[:1]
    res_t = train_run(tiny_cfg(tiny_mm_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5),
                               channel="textual"))
    assert res_t.pipeline.streams == STREAMS[1:]
    assert res.final.eval_accuracy != res_v.final.eval_accuracy or True  # both valid runs


def test_uniform_fixed_keeps_the_same_grid_in_both_streams(tiny_mm_dataset):
    res = train_run(tiny_cfg(tiny_mm_dataset, StrategyConfig("uniform_fixed", k=4)))
    assert res.pipeline.streams == STREAMS and res.pipeline.context is None
    assert res.final.mean_keep_ratio == 0.5


def test_textual_channel_requires_multimodal(tiny_dataset):
    with pytest.raises(ConfigError):
        train_run(tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5),
                           channel="textual"))


@pytest.mark.parametrize("channel", ["both", "visual", "textual"])
def test_recall_counts_the_needles_of_the_channels_read(tiny_mm_dataset, channel):
    """evaluate's selection recall against sets built by hand: each example's
    kept indices on the inference path, and the needles of the streams the
    channel reads (both streams' under "both")."""
    from sparsetok.data import load_dataset
    examples, header = load_dataset(tiny_mm_dataset)
    pipeline = Pipeline(tiny_cfg(tiny_mm_dataset, StrategyConfig("gumbel_topk", k=3, tau=0.5),
                                 channel=channel), header)
    _, recall = evaluate(pipeline, examples)
    shares = []
    for ex in examples:
        visual = set(ex.informative_indices.tolist())
        textual = set(ex.textual_informative_indices.tolist())
        needles = {"both": visual | textual, "visual": visual, "textual": textual}[channel]
        _, mask = pipeline.forward_example(Tape(), ex, noise_rng=None)
        shares.append(len(needles & set(np.flatnonzero(mask.hard).tolist())) / len(needles))
    assert recall == pytest.approx(sum(shares) / len(shares), rel=1e-12)


@pytest.mark.parametrize("field,value", [("epochs", 0), ("epochs", -1), ("batch_size", 0)])
def test_non_positive_epochs_or_batch_size_rejected(tiny_dataset, field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=2), **{field: value})


def test_empty_train_split_rejected(tmp_path):
    path = tmp_path / "one.jsonl"
    spec = NeedleSpec(n=8, d=6, num_informative=2)
    write_dataset(generate_dataset(spec, 1, seed=5), str(path), spec, 5)
    with pytest.raises(ConfigError, match="no training example"):
        train_run(tiny_cfg(str(path), StrategyConfig("gumbel_topk", k=2)))


def test_k_exceeding_sequence_rejected(tiny_dataset):
    with pytest.raises(ConfigError):
        train_run(tiny_cfg(tiny_dataset, StrategyConfig("gumbel_topk", k=9, tau=0.5)))


def test_positions_original_mode_runs(tiny_dataset):
    res = train_run(tiny_cfg(tiny_dataset, StrategyConfig("deterministic_topk", k=3),
                             positions="original"))
    assert len(res.rows) == 2


def test_checkpoint_contains_all_pipeline_parameters(tiny_mm_dataset, tmp_path):
    from sparsetok.model import load_checkpoint
    out = tmp_path / "mm"
    res = train_run(tiny_cfg(tiny_mm_dataset, StrategyConfig("gumbel_topk", k=2, tau=0.5),
                             out_dir=str(out)))
    arrays = load_checkpoint(str(out / "checkpoint.stkn"))
    names = set(arrays)
    assert any(n.startswith("task.") for n in names)
    assert any(n.startswith("scorer.") for n in names)
    assert any(n.startswith("context.") for n in names)
    for p in res.pipeline.parameters():
        assert np.array_equal(arrays[p.name], p.value)


def test_needle_training_converges(tmp_path):
    """Loss must drop by at least half within the first 5 epochs with
    compacted positional re-encoding (enough data for real learning)."""
    path = tmp_path / "needle.jsonl"
    spec = NeedleSpec(n=8, d=6, num_informative=2, noise_std=0.15)
    write_dataset(generate_dataset(spec, 600, seed=11), str(path), spec, 11)
    cfg = RunConfig(dataset=str(path),
                    strategy=StrategyConfig("ratio_controlled", target_ratio=0.5,
                                            tau=0.3, lam=0.3),
                    model=TaskPerformerConfig(max_len=16, init_std=0.2),
                    lr=0.2, epochs=5, batch_size=32, seed=3)
    res = train_run(cfg)
    assert res.rows[-1].train_loss <= 0.5 * res.rows[0].train_loss


def test_steady_state_training_steps_do_not_page_fault():
    """Once the heap has grown to a step's working set, further steps reuse
    it: 10 steps at B=32, K=32 (n=32, default model) take fewer than 500
    minor page faults, where handing freed memory back to the kernel costs
    thousands a step."""
    if not retain_heap():
        pytest.skip("the heap policy needs glibc's mallopt")
    import resource

    batch = generate_dataset(NeedleSpec(), 32, seed=7)
    cfg = RunConfig(dataset="", strategy=StrategyConfig("gumbel_topk", k=32), seed=7)
    pipeline = Pipeline(cfg, {"d": 16, "multimodal": False, "num_classes": 4})
    params = pipeline.parameters()

    def steps(count: int) -> None:
        for i in range(count):
            train_step(pipeline, params, batch, SeededRng(7).split(i))

    steps(3)  # warm-up: the heap grows to the step's working set
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps(10)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500
