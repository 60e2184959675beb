"""Reduce a traced run's spans and counts to the per-layer metrics.

Every workload reports every metric; a layer the workload never enters reads
0 (no spans, no calls). Times are self times (a span's duration minus its
child spans) unless the name says otherwise; `_per_example` metrics divide by
the training examples of the traced rounds, `_per_step` by their steps.

The first four metrics are the workload-level rates and check times. They
come from the untraced rounds of the traced run, and exist on one or two
workloads only, so they are not end-to-end metrics (those are printed, and
never 0, on every workload).
"""
from __future__ import annotations

import statistics

from instruments import CHECK_SUITES, PRIMITIVES, Tracer

KEEP_FRACTIONS = (0.25, 0.5, 1.0)  # the sparsity sweep's grid
_KF = tuple(f"kf{f}" for f in KEEP_FRACTIONS)

# name -> unit, in report order
PER_LAYER = {
    "train_examples_per_s": "1/s", "eval_examples_per_s": "1/s",
    "gradcheck_s": "s", "sample_check_s": "s",
    "data.generate_s": "s", "data.write_s": "s", "data.load_s": "s",
    "autodiff.nodes_per_train_example": "count",
    **{f"autodiff.nodes.{p}_per_train_example": "count" for p in PRIMITIVES},
    "autodiff.matmul_flops_per_train_example": "flop",
    **{f"autodiff.matmul_flops_per_train_example.{kf}": "flop" for kf in _KF},
    "autodiff.backward_ms_per_step": "ms",
    "selection.score_ms_per_example": "ms", "selection.select_ms_per_example": "ms",
    "selection.ste_ms_per_example": "ms", "selection.loss_ms_per_step": "ms",
    "multimodal.fuse_ms_per_example": "ms",
    "model.forward_ms_per_example": "ms",
    **{f"model.forward_ms_per_example.{kf}": "ms" for kf in _KF},
    "model.eval_forward_ms_per_example": "ms",
    "model.checkpoint_write_ms": "ms", "model.checkpoint_bytes": "B",
    "train.step_ms_p50": "ms", "train.step_ms_p90": "ms", "train.sgd_ms_per_step": "ms",
    "train.kept_tokens_per_example": "count",
    "sweep.overhead_s": "s",
    **{f"checks.{stem}_s": "s" for stem in CHECK_SUITES.values()},
    "rng.uniforms_calls": "count", "rng.values_drawn": "count", "gumbel.sample_calls": "count",
    "trace.overhead_s": "s",
}

# counters reported per round; they exclude what set-up drew
_PER_ROUND_COUNTS = ("rng.uniforms_calls", "rng.values_drawn", "gumbel.sample_calls")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload, tracer: Tracer, traced: list, untraced: list,
                      counts_after_setup: dict) -> dict[str, tuple[float, str]]:
    c = tracer.counts
    train_self = tracer.self_times(phase="train")
    durations: dict[str, list[float]] = {}
    for span in tracer.spans:
        durations.setdefault(span[2], []).append(span[4] - span[3])
    examples = c["train.examples"]
    steps = len(durations.get("train.step", []))

    def per_example(name: str) -> float:
        return _ratio(sum(train_self.get(name, [])) * 1e3, examples)

    m: dict[str, float] = {
        "train_examples_per_s": 0.0, "eval_examples_per_s": 0.0,
        "gradcheck_s": 0.0, "sample_check_s": 0.0,
        **workload.throughput(untraced),
        "data.generate_s": _median(durations.get("data.generate")),
        "data.write_s": _median(durations.get("data.write")),
        "data.load_s": _median(durations.get("data.load")),
        "autodiff.nodes_per_train_example": _ratio(c["autodiff.nodes"], examples),
        "autodiff.matmul_flops_per_train_example": _ratio(c["matmul_flops"], examples),
        "autodiff.backward_ms_per_step": _median(train_self.get("autodiff.backward")) * 1e3,
        "selection.score_ms_per_example": per_example("selection.score"),
        "selection.select_ms_per_example": per_example("selection.select"),
        "selection.ste_ms_per_example": per_example("selection.ste"),
        "selection.loss_ms_per_step": _ratio(sum(train_self.get("selection.loss", [])) * 1e3,
                                             steps),
        "multimodal.fuse_ms_per_example": per_example("multimodal.fuse"),
        "model.forward_ms_per_example": per_example("model.forward"),
        "model.eval_forward_ms_per_example": _ratio(
            sum(tracer.self_times(phase="eval").get("model.eval_forward", [])) * 1e3,
            len(tracer.self_times(phase="eval").get("model.eval_forward", []))),
        "model.checkpoint_write_ms": _median(durations.get("model.checkpoint_write")) * 1e3,
        "model.checkpoint_bytes": c["model.checkpoint_bytes"],
        "train.step_ms_p50": _median(durations.get("train.step")) * 1e3,
        "train.step_ms_p90": (statistics.quantiles(durations["train.step"], n=10)[-1] * 1e3
                              if steps >= 2 else 0.0),
        "train.sgd_ms_per_step": _ratio(
            sum(tracer.self_times().get("train.step", [])) * 1e3, steps),
        "train.kept_tokens_per_example": _ratio(c["train.kept_tokens"], examples),
        "sweep.overhead_s": _median(tracer.self_times().get("sweep.run_sweep")),
        "trace.overhead_s": (_median([r.wall_s for r in traced])
                             - _median([r.wall_s for r in untraced])),
    }
    for p in PRIMITIVES:
        m[f"autodiff.nodes.{p}_per_train_example"] = _ratio(c[f"nodes.{p}"], examples)
    n = getattr(workload, "n", None) if hasattr(workload, "GRID") else None
    for f, kf in zip(KEEP_FRACTIONS, _KF):
        if n is None:  # not a sparsity sweep: no keep-fraction cells
            m[f"model.forward_ms_per_example.{kf}"] = 0.0
            m[f"autodiff.matmul_flops_per_train_example.{kf}"] = 0.0
            continue
        actual = max(1, round(f * n)) / n
        at_kf = tracer.self_times(phase="train", keep_fraction=actual)
        kf_examples = c[f"train.examples@{actual}"]
        m[f"model.forward_ms_per_example.{kf}"] = _ratio(
            sum(at_kf.get("model.forward", [])) * 1e3, kf_examples)
        m[f"autodiff.matmul_flops_per_train_example.{kf}"] = _ratio(
            c[f"matmul_flops@{actual}"], kf_examples)
    for fn_name, stem in CHECK_SUITES.items():
        m[f"checks.{stem}_s"] = _median(durations.get(f"checks.{fn_name}"))
    for key in _PER_ROUND_COUNTS:
        m[key] = _ratio(c[key] - counts_after_setup.get(key, 0.0), len(traced))
    return {name: (m[name], unit) for name, unit in PER_LAYER.items()}
