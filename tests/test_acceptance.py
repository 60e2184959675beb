"""The paper's claims at desk scale. Slow and opt-in: run with --runslow.

Each bound was set from recorded runs, with room for a noisy host, and is
never tuned to make a test pass.
"""
import statistics
import time

import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape
from sparsetok.cli import main
from sparsetok.data import NeedleSpec, generate_dataset
from sparsetok.model import TaskPerformerConfig, init_parameters
from sparsetok.rng import SeededRng
from sparsetok.selection import SelectionMask, StrategyConfig, apply_ste, reencode_positions
from sparsetok.train import Pipeline, RunConfig, retain_heap, train_run, train_step

# median step time at K=8 over the median at K=32; ten runs on a 2-vCPU
# Intel Xeon gave 0.283-0.287 with one BLAS thread and 0.298-0.304 with two
COMPUTE_RATIO_BOUND = 0.5


@pytest.mark.slow
def test_dropping_tokens_saves_task_model_compute():
    """A `uniform_fixed` training step keeping K=8 of n=32 tokens takes well
    under the time of one keeping all 32 (B=32, default model). The two
    sizes take turns, so drift in the host's speed hits both alike."""
    retain_heap()
    batch = generate_dataset(NeedleSpec(), 32, seed=11)
    steps = {}
    for k in (8, 32):
        cfg = RunConfig(dataset="", strategy=StrategyConfig("uniform_fixed", k=k), seed=11)
        pipeline = Pipeline(cfg, {"d": 16, "multimodal": False, "num_classes": 4})
        steps[k] = (pipeline, pipeline.parameters())
    times = {8: [], 32: []}
    for i in range(45):
        for k, (pipeline, params) in steps.items():
            t0 = time.perf_counter()
            train_step(pipeline, params, batch, SeededRng(11).split(i))
            if i >= 5:  # the first steps grow the heap
                times[k].append(time.perf_counter() - t0)
    ratio = statistics.median(times[8]) / statistics.median(times[32])
    assert ratio < COMPUTE_RATIO_BOUND, f"K=8 / K=32 step time {ratio:.3f}"


# median task-model step time of the batch where 31 examples keep 8 rows and
# one keeps 32, over the median where all 32 keep 32; ten runs on a 2-vCPU
# Intel Xeon gave 0.483-0.508 with one BLAS thread and 0.493-0.522 with two,
# and 1.025-1.043 (six runs, one thread) for a model that computed every
# padded row; with `apply_ste` packing the rows inside the step, two runs on
# the same host gave 0.557 and 0.572, where the step without it gave 0.532
# and 0.559
PACKED_RATIO_BOUND = 0.7


@pytest.mark.slow
def test_task_model_step_pays_for_the_rows_kept():
    """A task-model training step (forward and backward, B=32, n=32, default
    model) on a batch where 31 examples keep 8 rows and one keeps all 32
    takes well under the time of one where all 32 keep 32: it pays for the
    280 rows kept, not for 32 sequences of the longest kept length. The
    step packs the kept rows with `apply_ste`, as training does. The two
    batches take turns, so drift in the host's speed hits both alike."""
    retain_heap()
    model = init_parameters(TaskPerformerConfig(), SeededRng(12))
    tokens = SeededRng(13).normals(32 * 32 * 16).reshape(32, 32, 16)
    labels = np.arange(32) % 4
    counts = {"mixed": np.where(np.arange(32) == 0, 32, 8), "full": np.full(32, 32)}
    masks = {}
    for name, kept_counts in counts.items():
        keep = np.arange(32) < kept_counts[:, None]
        masks[name] = SelectionMask(keep.astype(float), ad.constant(np.ones((32, 32))))

    def step(mask):
        with Tape() as tape:
            kept = apply_ste([tape.leaf(tokens)], mask)
            positions = reencode_positions(mask, tape.param(model.pos_table), 1)
            logits = model.forward(tape, kept, positions)
            tape.backward(ad.mean_all(ad.cross_entropy_loss(logits, labels)))

    times = {name: [] for name in counts}
    for i in range(45):
        for name, mask in masks.items():
            t0 = time.perf_counter()
            step(mask)
            if i >= 5:  # the first steps grow the heap
                times[name].append(time.perf_counter() - t0)
    ratio = statistics.median(times["mixed"]) / statistics.median(times["full"])
    assert ratio < PACKED_RATIO_BOUND, f"mixed / full task-model step time {ratio:.3f}"


def gen_data(folder, *flags) -> str:
    """A `gen-data --seed 1` file (2000 examples, n=32) with extra flags."""
    path = str(folder / "data.jsonl")
    assert main(["gen-data", "--out", path, "--seed", "1", *flags]) == 0
    return path


def last_epochs(dataset: str, kind: str, fraction: float, seeds) -> list:
    """The last epoch's metrics row of a 10-epoch run per seed (lr 0.1,
    batch 32, tau 0.1, lambda 1)."""
    strategy = StrategyConfig.for_fraction(kind, fraction, 32, tau=0.1, lam=1.0)
    return [train_run(RunConfig(dataset=dataset, strategy=strategy, epochs=10, seed=seed)).final
            for seed in seeds]


# the multimodal benchmark holds a ratio_controlled run within 0.06 of its
# 0.3 target; the same 20% of the target here
KEEP_RATIO_TOLERANCE = 0.05


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: seeds 0-2 trained at mean keep ratios of 0.500, 0.293 and 0.289 "
    "in their last epoch; seed 0 keeps twice its target"))
def test_ratio_controlled_keeps_its_target_fraction(tmp_path):
    """`ratio_controlled` at target 0.25 (lambda 1, 10 epochs) on the
    `pure_noise` file keeps, in its last epoch, a mean share of tokens within
    KEEP_RATIO_TOLERANCE of 0.25 on every seed."""
    rows = last_epochs(gen_data(tmp_path), "ratio_controlled", 0.25, range(3))
    ratios = [row.mean_keep_ratio for row in rows]
    assert all(abs(r - 0.25) <= KEEP_RATIO_TOLERANCE for r in ratios), ratios


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: on this file deterministic top-K beat Gumbel top-K on all 5 seeds, "
    "mean recall 0.461 against 0.330"))
def test_gumbel_topk_recalls_at_least_deterministic_topk(tmp_path):
    """Gumbel top-K selects the needles at least as well as noise-free top-K:
    mean eval selection recall over seeds 0-4 at K=8 of 32, 10 epochs, on
    the file where selection has room to win (decoy prototypes, noise 0.3)."""
    dataset = gen_data(tmp_path, "--distractor-mode", "decoy_prototypes", "--noise-std", "0.3")
    recall = {kind: statistics.mean(row.selection_recall
                                    for row in last_epochs(dataset, kind, 0.25, range(5)))
              for kind in ("gumbel_topk", "deterministic_topk")}
    assert recall["gumbel_topk"] >= recall["deterministic_topk"], recall
