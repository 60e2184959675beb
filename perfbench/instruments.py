"""Hooks the benchmark installs on sparsetok's public names.

Two levels:

- `Probe` (always on): times each training step and each `train.evaluate`
  call and keeps every `TrainResult`, which is what the end-to-end rates and
  the output checks need. It costs two clock reads per step.
- `Tracer` (traced mode only): records a span around the public function of
  each layer, keeps the spans in memory, counts tape nodes, matmul flops and
  random draws, and reduces them to per-layer self times and exact counts.

Every wrapper replaces a name where its caller looks it up (`train.py`
imports by name, so `sparsetok.train.compute_keep_probabilities` is patched,
not `sparsetok.selection.compute_keep_probabilities`). `uninstall` restores
the originals, so a test can install and remove the hooks in-process.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import sparsetok.autodiff as ad
import sparsetok.checks as checks
import sparsetok.data as data
import sparsetok.gumbel as gumbel
import sparsetok.model as model
import sparsetok.multimodal as multimodal
import sparsetok.rng as rng
import sparsetok.selection as selection
import sparsetok.sweep as sweep
import sparsetok.train as train

_clock = time.perf_counter

# public tape primitives whose recorded nodes are counted per training example
PRIMITIVES = ("add", "subtract", "multiply", "matmul", "scale", "log", "exp", "square",
              "gelu", "layer_norm", "concat_rows", "gather_rows", "mask_multiply",
              "mean_all", "transpose", "reshape", "scale_rows", "straight_through",
              "softmax_with_temperature", "cross_entropy_loss")

# checks suite function -> per-layer metric stem
CHECK_SUITES = {
    "check_catalog": "catalog",
    "check_ste_soft_path": "ste_soft_path",
    "check_multimodal_end_to_end": "multimodal_end_to_end",
    "check_gumbel_mean": "gumbel_mean",
    "check_gumbel_max_frequencies": "gumbel_max_frequencies",
    "check_topk_selection_frequencies": "topk_selection_frequencies",
}


@dataclass
class RunRecord:
    """What one `train_run` call did: its step and evaluate wall times."""

    keep_fraction: float
    step_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_examples: list[int] = field(default_factory=list)
    result: object = None  # the TrainResult, once the run returns


class _Patcher:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                            else getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Probe:
    """Step and evaluate timers plus TrainResult capture (untraced and traced)."""

    def __init__(self):
        self.tracer: Tracer | None = None  # set while a traced phase runs
        self.runs: list[RunRecord] = []
        self._current: RunRecord | None = None
        self._patcher = _Patcher()

    def take_runs(self) -> list[RunRecord]:
        runs, self.runs = self.runs, []
        return runs

    def install(self) -> "Probe":
        probe = self
        base_tape = train.Tape

        class StepTape(base_tape):
            """The `with Tape()` block of one training step, timed."""

            def __enter__(self):
                self._bench_t0 = _clock()
                if probe.tracer is not None:
                    probe.tracer.begin("train.step")
                    probe.tracer.in_step = True
                return super().__enter__()

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                if probe.tracer is not None:
                    probe.tracer.in_step = False
                    probe.tracer.end()
                if probe._current is not None:
                    probe._current.step_s.append(_clock() - self._bench_t0)
                return out

        evaluate = train.evaluate

        def timed_evaluate(pipeline, examples):
            t0 = _clock()
            out = evaluate(pipeline, examples)
            if probe._current is not None:
                probe._current.eval_s.append(_clock() - t0)
                probe._current.eval_examples.append(len(examples))
            return out

        def capture(train_run):
            @functools.wraps(train_run)
            def captured(cfg):
                n = _header_n(cfg.dataset)
                record = RunRecord(train.keep_fraction_of(cfg.strategy, n))
                probe._current = record
                if probe.tracer is not None:
                    probe.tracer.keep_fraction = record.keep_fraction
                try:
                    record.result = train_run(cfg)
                finally:
                    probe._current = None
                    if probe.tracer is not None:
                        probe.tracer.keep_fraction = None
                probe.runs.append(record)
                return record.result
            return captured

        p = self._patcher
        p.patch(train, "Tape", StepTape)
        p.patch(train, "evaluate", timed_evaluate)
        p.patch(train, "train_run", capture(train.train_run))
        p.patch(sweep, "train_run", capture(sweep.train_run))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()


def _header_n(path: str) -> int:
    """Sequence length from a dataset's header line, read without sparsetok."""
    with open(path, "r", encoding="utf-8") as fh:
        return int(json.loads(fh.readline())["n"])


# ---------------------------------------------------------------------------
# traced mode


class Tracer:
    """In-memory spans at layer boundaries plus exact counts.

    A span is (id, parent id, name, start, end, self seconds, phase, keep
    fraction); self time is the span's duration minus the time its child
    spans cover. Spans are written out only by `write`, after the run.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.in_step = False
        self.in_eval = False
        self.keep_fraction: float | None = None
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._patcher = _Patcher()

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> None:
        self._open.append([self._next_id, name, _clock(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        t1 = _clock()
        span_id, name, t0, child = self._open.pop()
        duration = t1 - t0
        parent = None
        if self._open:
            self._open[-1][3] += duration
            parent = self._open[-1][0]
        phase = "train" if self.in_step else "eval" if self.in_eval else "other"
        self.spans.append((span_id, parent, name, t0, t1, duration - child, phase,
                           self.keep_fraction))

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
        return traced

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "self_s", "phase", "keep_fraction")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- install ---------------------------------------------------------------
    def install(self) -> "Tracer":
        p, tracer = self._patcher, self
        for name in ("generate_dataset", "write_dataset", "load_dataset"):
            p.patch(data, name, self.wrap(f"data.{name.split('_')[0]}", getattr(data, name)))
        p.patch(train, "compute_keep_probabilities",
                self.wrap("selection.score", train.compute_keep_probabilities))
        p.patch(train, "run_strategy", self.wrap("selection.select", train.run_strategy))
        p.patch(train, "inference_rank_topk",
                self.wrap("selection.select", train.inference_rank_topk))
        # train.py imports uniform_fixed_select inside the function body
        p.patch(selection, "uniform_fixed_select",
                self.wrap("selection.select", selection.uniform_fixed_select))
        p.patch(train, "apply_ste", self.wrap("selection.ste", train.apply_ste))
        p.patch(train, "selection_loss", self.wrap("selection.loss", train.selection_loss))
        p.patch(train, "total_loss", self.wrap("selection.loss", train.total_loss))
        p.patch(multimodal.ContextModel, "fuse",
                self.wrap("multimodal.fuse", multimodal.ContextModel.fuse))
        p.patch(model.TaskPerformer, "forward",
                self._wrap_model_forward(model.TaskPerformer.forward))
        p.patch(train, "save_checkpoint", self._wrap_checkpoint(train.save_checkpoint))
        p.patch(train, "evaluate", self._wrap_evaluate(train.evaluate))
        p.patch(train.Pipeline, "forward_example",
                self._wrap_forward_example(train.Pipeline.forward_example))
        p.patch(train, "train_run", self.wrap("train.train_run", train.train_run))
        p.patch(sweep, "train_run", self.wrap("train.train_run", sweep.train_run))
        p.patch(sweep, "run_sweep", self.wrap("sweep.run_sweep", sweep.run_sweep))
        p.patch(ad.Tape, "backward", self._wrap_backward(ad.Tape.backward))
        for name in PRIMITIVES:
            p.patch(ad, name, self._count_nodes(name, getattr(ad, name)))
        for fn_name in CHECK_SUITES:
            p.patch(checks, fn_name, self.wrap(f"checks.{fn_name}", getattr(checks, fn_name)))
        p.patch(rng.SeededRng, "uniforms", self._count_uniforms(rng.SeededRng.uniforms))
        counted = self._count_gumbel(gumbel.sample_standard_gumbel)
        for owner in (gumbel, selection, checks):
            p.patch(owner, "sample_standard_gumbel", counted)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap_model_forward(self, forward):
        tracer = self

        @functools.wraps(forward)
        def traced(self_, tape, kept_tokens, positional_rows):
            name = "model.forward" if ad.active_tape() is not None else "model.eval_forward"
            tracer.begin(name)
            try:
                return forward(self_, tape, kept_tokens, positional_rows)
            finally:
                tracer.end()
        return traced

    def _wrap_evaluate(self, evaluate):
        tracer = self

        @functools.wraps(evaluate)
        def traced(pipeline, examples):
            tracer.begin("train.evaluate")
            tracer.in_eval = True
            try:
                return evaluate(pipeline, examples)
            finally:
                tracer.in_eval = False
                tracer.end()
        return traced

    def _wrap_checkpoint(self, save):
        tracer = self

        @functools.wraps(save)
        def traced(path, parameters):
            tracer.begin("model.checkpoint_write")
            try:
                return save(path, parameters)
            finally:
                tracer.end()
                tracer.counts["model.checkpoint_bytes"] = os.path.getsize(path)
        return traced

    def _wrap_forward_example(self, forward_example):
        tracer = self

        @functools.wraps(forward_example)
        def traced(self_, tape, ex, noise_rng):
            tracer.begin("train.forward_example")
            try:
                logits, mask = forward_example(self_, tape, ex, noise_rng)
            finally:
                tracer.end()
            if tracer.in_step:
                tracer.counts["train.examples"] += 1
                tracer.counts["train.kept_tokens"] += mask.kept_count
                if tracer.keep_fraction is not None:
                    tracer.counts[f"train.examples@{tracer.keep_fraction}"] += 1
            return logits, mask
        return traced

    def _wrap_backward(self, backward):
        tracer = self

        @functools.wraps(backward)
        def traced(self_, loss):
            if tracer.in_step:
                tracer.counts["autodiff.nodes"] += len(self_)
            tracer.begin("autodiff.backward")
            try:
                return backward(self_, loss)
            finally:
                tracer.end()
        return traced

    def _count_nodes(self, name: str, fn):
        tracer = self
        is_matmul = name == "matmul"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tape = ad.active_tape() if tracer.in_step else None
            if tape is None:
                return fn(*args, **kwargs)
            before = len(tape)
            out = fn(*args, **kwargs)
            tracer.counts[f"nodes.{name}"] += len(tape) - before
            if is_matmul:
                (m, k), n = args[0].shape, args[1].shape[1]
                flops = 2 * m * k * n
                tracer.counts["matmul_flops"] += flops
                if tracer.keep_fraction is not None:
                    tracer.counts[f"matmul_flops@{tracer.keep_fraction}"] += flops
            return out
        return counted

    def _count_uniforms(self, uniforms):
        tracer = self

        @functools.wraps(uniforms)
        def counted(self_, count):
            tracer.counts["rng.uniforms_calls"] += 1
            tracer.counts["rng.values_drawn"] += count
            return uniforms(self_, count)
        return counted

    def _count_gumbel(self, sample):
        tracer = self

        @functools.wraps(sample)
        def counted(rng_, count):
            tracer.counts["gumbel.sample_calls"] += 1
            return sample(rng_, count)
        return counted

    # -- reduction -------------------------------------------------------------
    def self_times(self, phase: str | None = None, keep_fraction=None) -> dict[str, list[float]]:
        """Span name -> self seconds of each span, optionally filtered."""
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if phase is not None and span[6] != phase:
                continue
            if keep_fraction is not None and span[7] != keep_fraction:
                continue
            out[span[2]].append(span[5])
        return out
