"""Fast checks of the benchmark itself, at tiny input sizes.

They show that the benchmark's own checks fire (a corrupted adjoint, a
diverging learning rate), that every metric it prints is declared in
BENCHMARK.json and every declared metric is printed, that reruns with one
seed write identical bytes, and that it refuses to run outside a checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import sparsetok.autodiff as ad  # noqa: E402
import sparsetok.checks as checks  # noqa: E402
from sparsetok.checks import SuiteReport  # noqa: E402

import harness  # noqa: E402
from instruments import Probe  # noqa: E402
from workloads import TrainMultimodalRatio, Verify  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

TINY = {
    "sparsity_sweep": {"count": 40, "epochs": 2},
    "train_multimodal_ratio": {"count": 40, "epochs": 2},
    "verify": {},
}


def _passing_sample_check():
    return [SuiteReport(name, 0.0, True) for name in
            ("gumbel_mean_dev", "gumbel_max_freq_dev", "topk_k1_freq_dev")], True


@pytest.fixture
def probe():
    p = Probe().install()
    yield p
    p.uninstall()


@pytest.fixture
def fast_checks(monkeypatch):
    """Replace the slow check entry points by tiny stand-ins.

    gradcheck keeps only the primitive catalog at one repeat (the corrupted
    adjoint still fails it); the sampling suites draw a hundred values each.
    """
    catalog = checks.check_catalog

    def run_gradcheck(corrupt_op=None):
        if corrupt_op is not None:
            with ad.corrupt_adjoint(corrupt_op):
                reports = [catalog(repeats=1)]
        else:
            reports = [catalog(repeats=1)]
        return reports, all(r.ok for r in reports)

    monkeypatch.setattr(checks, "run_gradcheck", run_gradcheck)
    monkeypatch.setattr(checks, "run_sample_check", _passing_sample_check)
    for name in ("check_gumbel_max_frequencies", "check_topk_selection_frequencies",
                 "check_gumbel_mean"):
        fn = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda n=None, fn=fn: fn(100))


def test_corrupted_adjoint_makes_verify_count_failures(tmp_path, probe, monkeypatch):
    monkeypatch.setattr(checks, "run_sample_check", _passing_sample_check)
    workload = Verify(1, str(tmp_path))
    with ad.corrupt_adjoint("matmul"):
        r = workload.round(0, probe.take_runs)
    assert r.attempted == 7
    # the three clean gradcheck suites now fail; the control still fails as it must
    assert r.failed == 3


def test_diverging_learning_rate_fails_finiteness(tmp_path, probe):
    workload = TrainMultimodalRatio(1, str(tmp_path), count=40, epochs=2, lr=1e200)
    workload.setup(0)
    with pytest.warns(RuntimeWarning):
        r = workload.round(0, probe.take_runs)
    assert r.failed >= 1
    assert any("non-finite" in p for p in r.problems)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_printed_metrics_are_exactly_the_declared_ones(tmp_path, fast_checks, name, trace):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    out = harness.execute(name, 1, 0.0, trace, str(tmp_path), workload_args=TINY[name],
                          import_probes=1, setup_repeats=1, min_traced_steps=0)
    result = out["result"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_writes_identical_bytes(tmp_path, probe):
    digests = []
    for _ in range(2):  # same work directory: metrics.csv records the dataset path
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
        workload = TrainMultimodalRatio(3, str(tmp_path / "run"), count=40, epochs=2)
        os.makedirs(workload.workdir)
        workload.setup(0)
        digests.append(workload.round(0, probe.take_runs).digests)
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"csv", "checkpoint"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
