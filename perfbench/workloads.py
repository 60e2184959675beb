"""The three benchmark workloads: inputs, one timed round, and output checks.

A workload makes its inputs from the seed in `setup`, then the harness runs
whole rounds of the same operations until the run length is used up. Every
round checks the program's outputs against computations made here or against
properties the method must have, never against a stored copy, and returns the
number of operations it attempted and how many of them failed.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import sparsetok.checks as checks
import sparsetok.data as data
import sparsetok.model as model
import sparsetok.sweep as sweep
import sparsetok.train as train
from sparsetok.selection import StrategyConfig

from instruments import RunRecord

_clock = time.perf_counter

BATCH = 32
GRAD_TOLERANCE = 1e-4     # gradcheck bound the README of sparsetok promises
SAMPLE_TOLERANCE = 0.01   # sample-check bound on |frequency - exact probability|
CORRUPT_OP = "matmul"     # adjoint broken on purpose by the negative control


@dataclass
class Round:
    """Outcome of one round: wall time, operation counts, problems, digests."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    runs: list[RunRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def op(self, problems: list[str]) -> None:
        """Count one operation; it failed if any of its checks found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def k_for(fraction: float, n: int) -> int:
    """K = max(1, round(f * n)), computed here independently of sparsetok."""
    return max(1, round(fraction * n))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def rate(groups: list[tuple[list[float], int]]) -> float:
    """Items per second from (durations, items per duration) groups.

    Each group's duration is its median, which keeps one slow call from
    moving the figure; groups are weighted by how many calls they hold.
    """
    items = sum(len(d) * per for d, per in groups if d)
    seconds = sum(len(d) * statistics.median(d) for d, _ in groups if d)
    return items / seconds if seconds > 0 else 0.0


def _train_size(count: int, eval_fraction: float = 0.2) -> int:
    """Train split size as train_run makes it; it must fill whole batches."""
    size = count - max(1, round(count * eval_fraction))
    if size % BATCH:
        raise ValueError(f"train split of {size} is not a whole number of batches")
    return size


def _write_dataset(spec: data.NeedleSpec, count: int, seed: int, path: str) -> dict:
    """Generate, write and parse one dataset; returns the parsed header."""
    examples = data.generate_dataset(spec, count, seed)
    data.write_dataset(examples, path, spec, seed)
    _, header = data.load_dataset(path)
    return header


def rates_from_runs(runs: list[RunRecord], groups_of) -> tuple[float, float]:
    """(train, eval) examples per second; runs sharing a group key pool their calls."""
    steps: dict = {}
    evals: dict = {}
    for run in runs:
        key = groups_of(run)
        steps.setdefault(key, []).extend(run.step_s)
        evals.setdefault(key, ([], run.eval_examples[0] if run.eval_examples else 0))
        evals[key][0].extend(run.eval_s)
    return (rate([(d, BATCH) for d in steps.values()]),
            rate(list(evals.values())))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, rep: int) -> None:
        """One set-up of the inputs; the harness repeats it and keeps the last."""

    def round(self, index: int, take_runs) -> Round:
        """One timed round; take_runs() hands over the train_run records it made."""
        raise NotImplementedError

    def throughput(self, rounds: list[Round]) -> dict[str, float]:
        """The workload's own rate or check-time figures, from untraced rounds."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sparsity_sweep


class SparsitySweep(Workload):
    """`sweep.run_sweep` on the sparsity axis with the default curve strategies."""

    name = "sparsity_sweep"
    GRID = (0.25, 0.5, 1.0)

    def __init__(self, seed: int, workdir: str, count: int = 240, epochs: int = 5,
                 lr: float = 0.1):
        super().__init__(seed, workdir)
        self.count, self.epochs, self.lr = count, epochs, lr
        _train_size(count)  # the rates count BATCH examples per step
        self.spec = data.NeedleSpec()  # gen-data defaults: n=32, d=16, 4 classes, pure_noise

    def setup(self, rep: int) -> None:
        path = os.path.join(self.workdir, f"dataset-{rep}.jsonl")
        header = _write_dataset(self.spec, self.count, self.seed, path)
        self.n = header["n"]
        self.base = train.RunConfig(
            dataset=path, strategy=StrategyConfig("gumbel_topk", k=k_for(0.3, self.n)),
            epochs=self.epochs, lr=self.lr, seed=self.seed)
        train.Pipeline(self.base, header)

    def expected_cells(self) -> list[tuple[float, str]]:
        cells = []
        for f in self.GRID:
            kinds = ("uniform_fixed",) if f >= 1.0 else sweep.CURVE_STRATEGIES
            cells.extend((f, kind) for kind in kinds)
        return cells

    def round(self, index: int, take_runs) -> Round:
        out_dir = os.path.join(self.workdir, f"round-{index}")
        shutil.rmtree(out_dir, ignore_errors=True)
        r = Round()
        t0 = _clock()
        rows, csv_path, svg_path = sweep.run_sweep("sparsity", self.base, self.n, 1,
                                                   out_dir, grid=self.GRID)
        r.wall_s = _clock() - t0
        r.runs = take_runs()
        r.digests = {"csv": digest(csv_path), "svg": digest(svg_path)}
        file_problems = self._check_csv(csv_path, len(rows))
        cells = self.expected_cells()
        if len(r.runs) != len(cells):
            file_problems.append(f"{len(r.runs)} cells ran, expected {len(cells)}")
        for i, (f, kind) in enumerate(cells):
            run = r.runs[i] if i < len(r.runs) else None
            r.op(file_problems + self._check_cell(run, f, kind))
        return r

    def _check_cell(self, run: RunRecord | None, f: float, kind: str) -> list[str]:
        where = f"cell f={f} {kind}"
        if run is None:
            return [f"{where}: did not run"]
        rows = run.result.rows
        problems = []
        strategy = run.result.pipeline.cfg.strategy
        k = k_for(f, self.n)
        if strategy.kind != kind or strategy.k != k:
            problems.append(f"{where}: ran {strategy.kind} K={strategy.k}, expected K={k}")
        if len(rows) != self.epochs:
            problems.append(f"{where}: {len(rows)} epochs, expected {self.epochs}")
        if any(abs(row.mean_keep_ratio - k / self.n) > 1e-12 for row in rows):
            problems.append(f"{where}: keep ratio {rows[-1].mean_keep_ratio} != K/n = {k / self.n}")
        if not _finite(v for row in rows for v in (row.train_loss, row.eval_accuracy)):
            problems.append(f"{where}: non-finite loss or accuracy")
        elif rows[-1].train_loss >= rows[0].train_loss:
            problems.append(f"{where}: last-epoch loss {rows[-1].train_loss} "
                            f"not below first {rows[0].train_loss}")
        return problems

    def _check_csv(self, path: str, row_count: int) -> list[str]:
        """Read the written CSV back with the csv module and check every row."""
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        table = list(csv.DictReader(lines))
        problems = []
        expected = sum(3 if f >= 1.0 else len(sweep.CURVE_STRATEGIES) for f in self.GRID)
        if len(table) != expected or row_count != expected:
            problems.append(f"csv has {len(table)} rows, expected {expected}")
        for row in table:
            f = float(row["keep_fraction"])
            if abs(float(row["mean_keep_ratio"]) - k_for(f, self.n) / self.n) > 1e-9:
                problems.append(f"csv row {row['strategy']} f={f}: keep ratio "
                                f"{row['mean_keep_ratio']} != K/n")
            if not _finite([row["train_loss"], row["eval_accuracy"]]):
                problems.append(f"csv row {row['strategy']} f={f}: non-finite value")
        return problems

    def throughput(self, rounds: list[Round]) -> dict[str, float]:
        runs = [run for r in rounds for run in r.runs]
        # the same cell in different rounds does the same work, so pool it
        cell_of = {id(run): i for r in rounds for i, run in enumerate(r.runs)}
        train_rate, eval_rate = rates_from_runs(runs, lambda run: cell_of[id(run)])
        return {"train_examples_per_s": train_rate, "eval_examples_per_s": eval_rate}


# ---------------------------------------------------------------------------
# train_multimodal_ratio


class TrainMultimodalRatio(Workload):
    """`train.train_run` with ratio control on multimodal decoy data, plus the
    checkpoint read back with `model.load_checkpoint`."""

    name = "train_multimodal_ratio"
    TARGET_RATIO = 0.3
    # |final mean keep ratio - target| allowed: seeds 1-40 landed in
    # [0.297, 0.339], worst gap 0.039; the bound is 1.5x that (README)
    KEEP_RATIO_TOLERANCE = 0.06

    def __init__(self, seed: int, workdir: str, count: int = 640, epochs: int = 4,
                 lr: float = 0.1):
        super().__init__(seed, workdir)
        self.count, self.epochs, self.lr = count, epochs, lr
        _train_size(count)  # the rates count BATCH examples per step
        self.spec = data.NeedleSpec(multimodal=True, distractor_mode="decoy_prototypes")

    def setup(self, rep: int) -> None:
        path = os.path.join(self.workdir, f"dataset-{rep}.jsonl")
        header = _write_dataset(self.spec, self.count, self.seed, path)
        self.cfg = train.RunConfig(
            dataset=path,
            strategy=StrategyConfig("ratio_controlled", target_ratio=self.TARGET_RATIO,
                                    tau=0.1, lam=1.0),
            epochs=self.epochs, lr=self.lr, seed=self.seed)
        train.Pipeline(self.cfg, header)

    def round(self, index: int, take_runs) -> Round:
        out_dir = os.path.join(self.workdir, f"round-{index}")
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = train.RunConfig(**{**self.cfg.__dict__, "out_dir": out_dir})
        r = Round()
        t0 = _clock()
        result = train.train_run(cfg)
        loaded = model.load_checkpoint(result.checkpoint_path)
        r.wall_s = _clock() - t0
        r.runs = take_runs()
        r.digests = {"csv": digest(result.metrics_path),
                     "checkpoint": digest(result.checkpoint_path)}
        csv_rows = self._read_csv(result.metrics_path)
        for epoch in range(self.epochs):
            r.op(self._check_epoch(result.rows, csv_rows, epoch))
        r.op(self._check_checkpoint(result.pipeline.parameters(), loaded))
        return r

    @staticmethod
    def _read_csv(path: str) -> list[dict]:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))

    def _check_epoch(self, rows, csv_rows, epoch: int) -> list[str]:
        if epoch >= len(rows) or epoch >= len(csv_rows):
            return [f"epoch {epoch}: missing from the result or metrics.csv"]
        row, written = rows[epoch], csv_rows[epoch]
        values = (row.train_loss, row.eval_accuracy, row.mean_keep_ratio,
                  written["train_loss"], written["mean_keep_ratio"])
        if not _finite(values):
            return [f"epoch {epoch}: non-finite loss, accuracy or keep ratio"]
        problems = []
        if abs(float(written["train_loss"]) - row.train_loss) > 1e-9 * max(1.0, abs(row.train_loss)):
            problems.append(f"epoch {epoch}: metrics.csv loss {written['train_loss']} "
                            f"!= returned {row.train_loss}")
        if epoch == self.epochs - 1:
            gap = abs(row.mean_keep_ratio - self.TARGET_RATIO)
            if gap > self.KEEP_RATIO_TOLERANCE:
                problems.append(f"final keep ratio {row.mean_keep_ratio:.4f} is {gap:.4f} "
                                f"from target {self.TARGET_RATIO}")
        return problems

    @staticmethod
    def _check_checkpoint(params, loaded: dict) -> list[str]:
        names = [p.name for p in params]
        if sorted(names) != sorted(loaded):
            return ["checkpoint parameter names differ from the trained ones"]
        for p in params:
            got = loaded[p.name]
            if got.shape != p.value.shape or got.tobytes() != p.value.astype("<f8").tobytes():
                return [f"checkpoint value of {p.name} is not bit-identical"]
        return []

    def throughput(self, rounds: list[Round]) -> dict[str, float]:
        runs = [run for r in rounds for run in r.runs]
        train_rate, eval_rate = rates_from_runs(runs, lambda run: 0)
        return {"train_examples_per_s": train_rate, "eval_examples_per_s": eval_rate}


# ---------------------------------------------------------------------------
# verify


def _suite_problems(reports, bound: float) -> list[list[str]]:
    return [[] if rep.worst <= bound else [f"{rep.name}: {rep.worst:.3e} > {bound}"]
            for rep in reports]


class Verify(Workload):
    """gradcheck, a corrupted-adjoint gradcheck that must fail, sample-check."""

    name = "verify"

    def round(self, index: int, take_runs) -> Round:
        r = Round()
        t0 = _clock()
        reports, _ = checks.run_gradcheck()
        t1 = _clock()
        control, control_ok = checks.run_gradcheck(corrupt_op=CORRUPT_OP)
        t2 = _clock()
        samples, _ = checks.run_sample_check()
        t3 = _clock()
        r.wall_s = t3 - t0
        r.timings = {"gradcheck_s": t1 - t0, "sample_check_s": t3 - t2}
        for problems in _suite_problems(reports, GRAD_TOLERANCE):
            r.op(problems)
        caught = not control_ok and any(rep.worst > GRAD_TOLERANCE for rep in control)
        r.op([] if caught else [f"corrupted {CORRUPT_OP} adjoint passed gradcheck"])
        for problems in _suite_problems(samples, SAMPLE_TOLERANCE):
            r.op(problems)
        lines = "\n".join(rep.line() for rep in reports + control + samples)
        r.digests = {"reports": hashlib.sha256(lines.encode()).hexdigest()[:16]}
        return r

    def throughput(self, rounds: list[Round]) -> dict[str, float]:
        return {key: statistics.median(r.timings[key] for r in rounds)
                for key in ("gradcheck_s", "sample_check_s")}


WORKLOADS = {w.name: w for w in (SparsitySweep, TrainMultimodalRatio, Verify)}
