import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from metrics_csv import read_metrics_csv
from sparsetok.cli import main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "data.jsonl")
    rc = main(["gen-data", "--out", path, "--seed", "5", "--count", "80",
               "--n", "8", "--d", "6", "--num-informative", "2", "--noise-std", "0.3"])
    assert rc == 0
    return path


def run_train(dataset, out, *extra):
    return main(["train", "--dataset", dataset, "--out", out,
                 "--strategy", "gumbel_topk", "--keep-fraction", "0.25",
                 "--tau", "0.5", "--epochs", "1", "--batch-size", "16",
                 "--seed", "2", *extra])


def test_gen_data_is_byte_deterministic(tmp_path, dataset):
    other = str(tmp_path / "again.jsonl")
    rc = main(["gen-data", "--out", other, "--seed", "5", "--count", "80",
               "--n", "8", "--d", "6", "--num-informative", "2", "--noise-std", "0.3"])
    assert rc == 0
    assert Path(dataset).read_bytes() == Path(other).read_bytes()


def test_gen_data_multimodal_flag(tmp_path):
    path = str(tmp_path / "mm.jsonl")
    rc = main(["gen-data", "--out", path, "--seed", "1", "--count", "4",
               "--n", "8", "--d", "6", "--num-informative", "2", "--multimodal"])
    assert rc == 0
    with open(path) as fh:
        header = fh.readline()
        record = fh.readline()
    assert '"multimodal":true' in header
    assert "textual_tokens" in record


def test_gen_data_defaults_echoed_in_header(tmp_path):
    path = str(tmp_path / "default.jsonl")
    assert main(["gen-data", "--out", path, "--seed", "1", "--count", "2"]) == 0
    with open(path) as fh:
        assert fh.readline().startswith('{"format_version":2,"n":32,"d":16,"num_classes":4')


@pytest.mark.parametrize("flag, value, message", [
    ("--num-informative", "-2", "num_informative must be at least 1, got -2"),
    ("--d", "0", "d must be at least 1, got 0"),
    ("--d", "-3", "d must be at least 1, got -3"),
    ("--count", "-5", "count must not be negative, got -5"),
    ("--classes", "1", "num_classes must be at least 2, got 1"),
    ("--noise-std", "nan", "noise_std must be finite and at least 0, got nan"),
    ("--noise-std", "-1", "noise_std must be finite and at least 0, got -1.0"),
    ("--decoy-scale", "-1", "decoy_scale must be finite and at least 0, got -1.0"),
])
def test_gen_data_size_it_cannot_build_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_writes_metrics_and_checkpoint(tmp_path, dataset):
    out = str(tmp_path / "run")
    assert run_train(dataset, out) == 0
    rows, config = read_metrics_csv(os.path.join(out, "metrics.csv"))
    assert len(rows) == 1
    assert config["strategy"] == "gumbel_topk"
    assert os.path.exists(os.path.join(out, "checkpoint.stkn"))


def test_train_rerun_byte_identical(tmp_path, dataset):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_train(dataset, out1) == 0
    assert run_train(dataset, out2) == 0
    for name in ("metrics.csv", "checkpoint.stkn"):
        assert (Path(out1) / name).read_bytes() == (Path(out2) / name).read_bytes(), name


def test_config_file_and_flag_precedence(tmp_path, dataset):
    conf = tmp_path / "run.conf"
    conf.write_text("strategy=deterministic_topk\nkeep-fraction=0.5\nepochs=1\n"
                    f"dataset={dataset}\nbatch-size=16\nseed=4\n")
    out = str(tmp_path / "fromconf")
    assert main(["train", "--config", str(conf), "--out", out]) == 0
    _, config = read_metrics_csv(os.path.join(out, "metrics.csv"))
    assert config["strategy"] == "deterministic_topk"
    assert config["k"] == "4"  # 0.5 of 8 tokens
    # explicit flag beats the file
    out2 = str(tmp_path / "flagwins")
    assert main(["train", "--config", str(conf), "--out", out2,
                 "--strategy", "uniform_fixed"]) == 0
    _, config2 = read_metrics_csv(os.path.join(out2, "metrics.csv"))
    assert config2["strategy"] == "uniform_fixed"


def test_unknown_config_key_is_usage_error(tmp_path, dataset):
    conf = tmp_path / "bad.conf"
    conf.write_text("no_such_option=1\n")
    assert main(["train", "--config", str(conf), "--out", str(tmp_path / "x"),
                 "--dataset", dataset]) == 1


def test_config_file_numbers_are_typed_like_flags(tmp_path, dataset):
    """int keys (epochs, seed) and float keys (tau, lambda) read from a file
    give the bytes of the same values given as flags."""
    conf = tmp_path / "run.conf"
    conf.write_text(f"dataset={dataset}\nstrategy=ratio_controlled\nkeep-fraction=0.5\n"
                    "epochs=2\nseed=4\ntau=0.5\nlambda=0.25\nbatch-size=16\n")
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert main(["train", "--config", str(conf), "--out", str(from_file)]) == 0
    assert main(["train", "--dataset", dataset, "--out", str(from_flags),
                 "--strategy", "ratio_controlled", "--keep-fraction", "0.5", "--epochs", "2",
                 "--seed", "4", "--tau", "0.5", "--lambda", "0.25", "--batch-size", "16"]) == 0
    for name in ("metrics.csv", "checkpoint.stkn"):
        assert (from_file / name).read_bytes() == (from_flags / name).read_bytes(), name
    rows, config = read_metrics_csv(str(from_file / "metrics.csv"))
    assert len(rows) == 2
    assert (config["seed"], config["tau"], config["lambda"]) == ("4", "0.5", "0.25")
    assert config["target_ratio"] == "0.5"  # the keep fraction is ratio control's target


def test_keep_fraction_is_the_one_budget_flag(tmp_path, dataset, capsys):
    """No second budget flag that a strategy could silently ignore."""
    with pytest.raises(SystemExit) as exc:
        run_train(dataset, str(tmp_path / "run"), "--target-ratio", "0.9")
    assert exc.value.code == 1
    assert "--target-ratio" in capsys.readouterr().err


@pytest.mark.parametrize("lines, flags", [
    ("multimodal=true\n", ["--multimodal"]),
    ("multimodal=false\n", []),
    ("distractor-mode=decoy_prototypes\n", ["--distractor-mode", "decoy_prototypes"]),
])
def test_gen_data_config_file_matches_flags(tmp_path, lines, flags):
    conf = tmp_path / "data.conf"
    conf.write_text("count=4\nn=8\nd=6\nnum-informative=2\n" + lines)
    from_file, from_flags = tmp_path / "file.jsonl", tmp_path / "flags.jsonl"
    assert main(["gen-data", "--config", str(conf), "--out", str(from_file)]) == 0
    assert main(["gen-data", "--out", str(from_flags), "--count", "4", "--n", "8",
                 "--d", "6", "--num-informative", "2", *flags]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    header = from_file.read_text().splitlines()[0]
    assert f'"multimodal":{"true" if "--multimodal" in flags else "false"}' in header


def test_sweep_config_file_grid_and_strategies(tmp_path, dataset):
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"dataset={dataset}\ngrid=0.25,1.0\nstrategies=gumbel_topk,uniform_fixed\n"
                    "epochs=1\nbatch-size=16\ntau=0.5\n")
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert main(["sweep", "--config", str(conf), "--out", str(from_file)]) == 0
    assert main(["sweep", "--dataset", dataset, "--out", str(from_flags), "--grid", "0.25,1.0",
                 "--strategies", "gumbel_topk,uniform_fixed", "--epochs", "1",
                 "--batch-size", "16", "--tau", "0.5"]) == 0
    for name in ("sweep_sparsity.csv", "sweep_sparsity.svg"):
        assert (from_file / name).read_bytes() == (from_flags / name).read_bytes(), name
    rows, _ = read_metrics_csv(str(from_file / "sweep_sparsity.csv"))
    assert [(r["strategy"], r["keep_fraction"]) for r in rows] == [
        ("gumbel_topk", "0.25"), ("uniform_fixed", "0.25"),
        ("gumbel_topk", "1"), ("uniform_fixed", "1")]


def test_config_value_is_read_with_its_flags_type(tmp_path, dataset, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"dataset={dataset}\nepochs=abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(conf), "--out", str(tmp_path / "run")])
    assert exc.value.code == 1
    assert "argument --epochs: invalid int value: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_key_of_another_command_is_accepted(tmp_path, dataset):
    conf = tmp_path / "run.conf"
    conf.write_text(f"dataset={dataset}\ncount=80\nepochs=1\nbatch-size=16\n")
    assert main(["train", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0


def test_config_block_names_the_dataset_class_count(tmp_path):
    """The task head has the dataset's class count, and so does the CSV
    config block of `train` and of `sweep`."""
    path = str(tmp_path / "six.jsonl")
    assert main(["gen-data", "--out", path, "--seed", "1", "--count", "60", "--n", "8",
                 "--d", "6", "--num-informative", "2", "--classes", "6"]) == 0
    flags = ["--dataset", path, "--epochs", "1", "--batch-size", "16"]
    assert main(["train", *flags, "--out", str(tmp_path / "run")]) == 0
    _, config = read_metrics_csv(str(tmp_path / "run" / "metrics.csv"))
    assert config["num_classes"] == "6"
    assert main(["sweep", *flags, "--grid", "0.5", "--strategies", "uniform_fixed",
                 "--out", str(tmp_path / "sweep")]) == 0
    _, config = read_metrics_csv(str(tmp_path / "sweep" / "sweep_sparsity.csv"))
    assert config["num_classes"] == "6"


def test_missing_dataset_is_usage_error(tmp_path):
    assert main(["train", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
def test_zero_epochs_or_batch_size_is_usage_error(tmp_path, dataset, capsys, flag):
    assert run_train(dataset, str(tmp_path / "x"), flag, "0") == 1
    assert "must be at least 1" in capsys.readouterr().err


def test_non_finite_train_loss_is_verification_failure(tmp_path, dataset, capsys):
    out = str(tmp_path / "run")
    with pytest.warns(RuntimeWarning):  # overflow in the diverging updates
        rc = run_train(dataset, out, "--lr", "1e200", "--epochs", "2")
    assert rc == 2
    err = capsys.readouterr().err
    assert "train loss is nan at epoch 0" in err
    rows, _ = read_metrics_csv(os.path.join(out, "metrics.csv"))
    assert len(rows) == 2  # the artifacts are still written for inspection


def test_finite_divergence_is_verification_failure(tmp_path, dataset, capsys):
    out = str(tmp_path / "run")
    rc = run_train(dataset, out, "--lr", "5", "--epochs", "2")
    assert rc == 2
    rows, _ = read_metrics_csv(os.path.join(out, "metrics.csv"))
    first, last = (float(row["train_loss"]) for row in rows)
    assert 10 * first < last < float("inf")
    err = capsys.readouterr().err
    named = re.search(r"diverged from (\S+) at epoch 0 to (\S+) at epoch 1, more than 10x", err)
    assert named, err
    assert float(named[1]) == pytest.approx(first, rel=1e-5)
    assert float(named[2]) == pytest.approx(last, rel=1e-5)
    assert os.path.exists(os.path.join(out, "checkpoint.stkn"))


def test_original_positions_beyond_max_len_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "long.jsonl")
    assert main(["gen-data", "--out", path, "--count", "64", "--n", "80"]) == 0
    rc = main(["train", "--dataset", path, "--out", str(tmp_path / "run"),
               "--keep-fraction", "0.25", "--positions", "original", "--epochs", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: positions=original reads the positional table at each token's index, "
        "so n=80 must not exceed max_len=64\n")
    assert not os.path.exists(tmp_path / "run")


def test_unreadable_dataset_is_io_error(tmp_path):
    rc = main(["train", "--dataset", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "x")])
    assert rc == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis", "bogus"])
    assert exc.value.code == 1


def test_gradcheck_passes_and_negative_control():
    assert main(["gradcheck"]) == 0
    assert main(["gradcheck", "--corrupt-op", "matmul"]) == 2


def test_gradcheck_negative_control_names_op(capsys):
    main(["gradcheck", "--corrupt-op", "matmul"])
    out = capsys.readouterr().out
    assert "fail" in out and "matmul" in out


@pytest.mark.parametrize("kind", ["natural_log", "nosuchop"])
def test_gradcheck_corrupt_op_that_corrupts_nothing_is_usage_error(kind, capsys):
    """No op records under these kinds: corrupting one breaks no adjoint, so
    its suites would pass and prove nothing."""
    assert main(["gradcheck", "--corrupt-op", kind]) == 1
    captured = capsys.readouterr()
    assert repr(kind) in captured.err
    assert "pass" not in captured.out


def test_sample_check_report_format(capsys):
    assert main(["sample-check"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 4
    for line in lines:
        name, value, verdict = line.split()
        float(value)
        assert len(value.split(".")[1]) == 4  # four decimals
        assert verdict == "pass"


# Gumbel top-K against the ratio gate at one keep fraction: 0.25 of the
# dataset's 8 tokens is K=2
BOTH_SELECTORS = ("--strategies", "gumbel_topk,ratio_controlled", "--grid", "0.25")


class TestSweep:
    def test_both_selectors_emit_two_groups(self, tmp_path, dataset):
        out = str(tmp_path / "sweep")
        rc = main(["sweep", "--dataset", dataset, "--out", out, *BOTH_SELECTORS,
                   "--epochs", "1", "--batch-size", "16", "--seeds", "1", "--seed", "3",
                   "--tau", "0.5"])
        assert rc == 0
        rows, _ = read_metrics_csv(os.path.join(out, "sweep_sparsity.csv"))
        assert sorted({r["strategy"] for r in rows}) == ["gumbel_topk", "ratio_controlled"]

    def test_sparsity_sweep_shares_full_input_cell(self, tmp_path, dataset):
        out = str(tmp_path / "sweep2")
        rc = main(["sweep", "--dataset", dataset, "--out", out, "--axis", "sparsity",
                   "--grid", "0.25,1.0", "--epochs", "1", "--batch-size", "16",
                   "--seeds", "1", "--seed", "3", "--tau", "0.5"])
        assert rc == 0
        rows, _ = read_metrics_csv(os.path.join(out, "sweep_sparsity.csv"))
        full = [r for r in rows if r["keep_fraction"] == "1"]
        assert len(full) == 3  # one shared run reported per strategy
        assert len({r["eval_accuracy"] for r in full}) == 1
        sparse = [r for r in rows if r["keep_fraction"] != "1"]
        assert len(sparse) == 3

    def test_svg_is_valid_xml_with_polylines(self, tmp_path, dataset):
        out = str(tmp_path / "sweep3")
        rc = main(["sweep", "--dataset", dataset, "--out", out, *BOTH_SELECTORS,
                   "--epochs", "1", "--batch-size", "16", "--seeds", "1", "--seed", "3",
                   "--tau", "0.5"])
        assert rc == 0
        svg = os.path.join(out, "sweep_sparsity.svg")
        root = ET.parse(svg).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_cells_reproducible_in_isolation(self, tmp_path, dataset):
        """Running one cell by hand with its derived seed matches the sweep row."""
        from sparsetok.sweep import cell_seed
        from sparsetok.selection import StrategyConfig
        from sparsetok.train import RunConfig, train_run
        from sparsetok.model import TaskPerformerConfig

        out = str(tmp_path / "sweep4")
        rc = main(["sweep", "--dataset", dataset, "--out", out, *BOTH_SELECTORS,
                   "--epochs", "1", "--batch-size", "16", "--seeds", "1", "--seed", "3",
                   "--tau", "0.5"])
        assert rc == 0
        rows, _ = read_metrics_csv(os.path.join(out, "sweep_sparsity.csv"))
        gumbel_row = next(r for r in rows if r["strategy"] == "gumbel_topk")

        cfg = RunConfig(dataset=dataset,
                        strategy=StrategyConfig("gumbel_topk", k=2, tau=0.5),
                        model=TaskPerformerConfig(),
                        epochs=1, batch_size=16,
                        seed=cell_seed(3, 0, 0))
        res = train_run(cfg)
        assert f"{res.final.eval_accuracy:.10g}" == gumbel_row["eval_accuracy"]
        assert f"{res.final.train_loss:.10g}" == gumbel_row["train_loss"]

    def test_non_finite_cell_loss_is_verification_failure(self, tmp_path, dataset, capsys):
        out = str(tmp_path / "sweep5")
        with pytest.warns(RuntimeWarning):  # overflow in the diverging updates
            rc = main(["sweep", "--dataset", dataset, "--out", out, "--axis", "sparsity",
                       "--grid", "0.5", "--strategies", "gumbel_topk", "--epochs", "1",
                       "--batch-size", "16", "--lr", "1e200"])
        assert rc == 2
        assert "train loss is nan at epoch 0 in the gumbel_topk cell at keep_fraction 0.5" in (
            capsys.readouterr().err)
        rows, _ = read_metrics_csv(os.path.join(out, "sweep_sparsity.csv"))
        assert [r["train_loss"] for r in rows] == ["nan"]  # still written for inspection
        assert os.path.exists(os.path.join(out, "sweep_sparsity.svg"))

    def test_finite_cell_divergence_is_verification_failure(self, tmp_path, dataset, capsys):
        out = str(tmp_path / "sweep6")
        with pytest.warns(RuntimeWarning):  # the divergent lr overflows float64
            rc = main(["sweep", "--dataset", dataset, "--out", out, "--lr", "5",
                       "--epochs", "2", "--grid", "0.25", "--strategies", "gumbel_topk",
                       "--tau", "0.5", "--batch-size", "16", "--seed", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        named = re.search(r"diverged from (\S+) at epoch 0 to (\S+) at epoch 1, "
                          r"more than 10x in the gumbel_topk cell at keep_fraction 0.25", err)
        assert named, err
        rows, _ = read_metrics_csv(os.path.join(out, "sweep_sparsity.csv"))
        last = float(rows[0]["train_loss"])  # the CSV keeps only the last epoch
        assert 10 * float(named[1]) < last < float("inf")
        assert float(named[2]) == pytest.approx(last, rel=1e-5)
        assert os.path.exists(os.path.join(out, "sweep_sparsity.svg"))


@pytest.mark.parametrize("argv, message", [
    pytest.param(["train", "--strategy", "deterministic_topk", "--keep-fraction", "-3"],
                 "keep fraction must lie in (0, 1], got -3", id="negative-keep-fraction"),
    pytest.param(["train", "--strategy", "ratio_controlled", "--keep-fraction", "1.5"],
                 "keep fraction must lie in (0, 1], got 1.5", id="target-ratio-above-1"),
    pytest.param(["sweep", "--grid=-0.5,0.25"], "keep fraction must lie in (0, 1], got -0.5",
                 id="negative-grid-value"),
    pytest.param(["sweep", "--grid=0.25,1.5"], "keep fraction must lie in (0, 1], got 1.5",
                 id="grid-value-above-1"),
    pytest.param(["sweep", "--seeds", "0"], "a sweep needs at least one seed, got 0",
                 id="zero-seeds"),
    pytest.param(["train", "--strategy", "ratio_controlled", "--tau", "nan"],
                 "tau must be positive and finite, got nan", id="nan-tau"),
    pytest.param(["train", "--strategy", "ratio_controlled", "--tau", "inf"],
                 "tau must be positive and finite, got inf", id="inf-tau"),
    pytest.param(["train", "--strategy", "ratio_controlled", "--lambda", "nan"],
                 "lambda must be non-negative and finite, got nan", id="nan-lambda"),
    pytest.param(["sweep", "--axis", "tau", "--grid", "nan"],
                 "tau must be positive and finite, got nan", id="nan-tau-grid"),
    pytest.param(["train", "--lr", "nan"], "lr must be positive and finite, got nan",
                 id="nan-lr"),
    pytest.param(["train", "--lr", "inf"], "lr must be positive and finite, got inf",
                 id="inf-lr"),
    pytest.param(["train", "--lr", "0"], "lr must be positive and finite, got 0.0",
                 id="zero-lr"),
    pytest.param(["train", "--lr", "-1"], "lr must be positive and finite, got -1.0",
                 id="negative-lr"),
])
def test_out_of_range_run_inputs_are_usage_errors(tmp_path, dataset, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--dataset", dataset, "--out", str(out), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("error:") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--axis", "tau", "--strategies", "uniform_fixed"],
                 "only the sparsity axis takes strategies, not the tau axis",
                 id="strategies-on-tau"),
    pytest.param(["--axis", "lambda", "--strategies", "gumbel_topk"],
                 "only the sparsity axis takes strategies, not the lambda axis",
                 id="strategies-on-lambda"),
    pytest.param(["--strategies", "gumbel_topk,gumbel_topk", "--grid", "0.25"],
                 "grid values 0.25 and 0.25 train the same gumbel_topk cell",
                 id="repeated-strategy"),
    pytest.param(["--grid", "0.5,0.5"], "grid values 0.5 and 0.5 train the same uniform_fixed cell",
                 id="repeated-grid-value"),
    pytest.param(["--axis", "tau", "--grid", "0.1,0.1"],
                 "grid values 0.1 and 0.1 train the same gumbel_topk cell",
                 id="repeated-tau"),
    pytest.param(["--axis", "lambda", "--grid", "1,1"],
                 "grid values 1 and 1 train the same ratio_controlled cell",
                 id="repeated-lambda"),
    # 0.25 and 0.2501 of the 8 tokens both keep K=2
    pytest.param(["--grid", "0.25,0.2501"],
                 "grid values 0.25 and 0.2501 train the same uniform_fixed cell",
                 id="grid-values-of-one-k"),
])
def test_sweep_flag_the_axis_ignores_is_usage_error(tmp_path, dataset, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["sweep", *argv, "--dataset", dataset, "--out", str(out), "--epochs", "1"]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_block_records_what_the_tau_cells_ran(tmp_path, dataset):
    """The tau axis runs gumbel_topk at the run's keep fraction whatever
    --strategy says; the block names that, and each cell's tau in order."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", dataset, "--out", str(out), "--axis", "tau",
                 "--strategy", "ratio_controlled", "--grid", "0.1,0.5", "--epochs", "1",
                 "--batch-size", "16"]) == 0
    _, config = read_metrics_csv(str(out / "sweep_tau.csv"))
    assert (config["strategy"], config["k"], config["target_ratio"]) == ("gumbel_topk", "2", "None")
    assert config["tau"] == config["grid"] == "0.1,0.5"


def test_sweep_config_block_records_the_k_the_sparsity_cells_ran(tmp_path, dataset):
    """The sparsity axis takes its budgets from the grid, not --keep-fraction."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", dataset, "--out", str(out), "--keep-fraction", "0.9",
                 "--grid", "0.25", "--strategies", "gumbel_topk", "--epochs", "1",
                 "--batch-size", "16"]) == 0
    rows, config = read_metrics_csv(str(out / "sweep_sparsity.csv"))
    assert (config["strategy"], config["k"]) == ("gumbel_topk", "2")  # 0.25 of 8 tokens
    assert [r["mean_keep_ratio"] for r in rows] == ["0.25"]


def test_sweep_runs_cells_in_order_then_seeds(tmp_path, dataset, monkeypatch):
    """Each cell's seeds run before the next cell, through `sweep.train_run`."""
    import sparsetok.sweep as sweep

    seeds = []

    def recording(cfg):
        seeds.append(cfg.seed)
        return train_run(cfg)

    train_run = sweep.train_run
    monkeypatch.setattr(sweep, "train_run", recording)
    assert main(["sweep", "--dataset", dataset, "--out", str(tmp_path / "sweep"),
                 *BOTH_SELECTORS, "--epochs", "1", "--seeds", "2", "--seed", "3"]) == 0
    assert seeds == [sweep.cell_seed(3, cell, s) for cell in range(2) for s in range(2)]
