"""The paper's claims at desk scale. Slow and opt-in: run with --runslow.

Each bound was set from recorded runs, with room for a noisy host, and is
never tuned to make a test pass.
"""
import statistics
import time

import pytest

from sparsetok.data import NeedleSpec, generate_dataset
from sparsetok.rng import SeededRng
from sparsetok.selection import StrategyConfig
from sparsetok.train import Pipeline, RunConfig, retain_heap, train_step

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
