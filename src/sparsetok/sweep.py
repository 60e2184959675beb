"""Experiment grids: sparsity curves, temperature/weight ablations, variant
comparison. Every (cell, seed) pair derives its own run seed from the master
seed via a documented hash, so cells are reproducible in isolation and safe
to run in parallel (STKN_THREADS caps the worker count).
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .errors import ConfigError
from .metrics import MetricsRow, write_line_plot, write_metrics_csv
from .rng import mix_words
from .selection import StrategyConfig
from .train import RunConfig, k_for_fraction, train_run

SWEEP_AXES = ("sparsity", "tau", "lambda", "variant")
SPARSITY_GRID = (0.1, 0.3, 0.5, 0.7, 1.0)
TAU_GRID = (0.01, 0.1, 0.5)
LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)
CURVE_STRATEGIES = ("uniform_fixed", "deterministic_topk", "gumbel_topk")
# the CSV column each axis varies, and the curve's x axis
X_COLUMNS = {"sparsity": "keep_fraction", "tau": "tau", "lambda": "lambda",
             "variant": "keep_fraction"}


def cell_seed(master_seed: int, cell_index: int, seed_index: int) -> int:
    """Child seed for one sweep cell replicate: mix(master, cell, replicate)."""
    return mix_words(master_seed, cell_index, seed_index) & 0x7FFFFFFF


@dataclass
class SweepCell:
    index: int
    x_value: float
    cfg: RunConfig
    emit_as: tuple[str, ...]  # strategy labels this cell's rows are reported under


def _strategy_for(kind: str, fraction: float, n: int, tau: float, lam: float) -> StrategyConfig:
    if kind == "ratio_controlled":
        return StrategyConfig(kind, target_ratio=fraction, tau=tau, lam=lam)
    return StrategyConfig(kind, k=k_for_fraction(fraction, n), tau=tau, lam=lam)


def build_cells(axis: str, base: RunConfig, n_tokens: int,
                grid: tuple[float, ...] | None = None,
                strategies: tuple[str, ...] = CURVE_STRATEGIES) -> list[SweepCell]:
    """Cells in deterministic order; the 1.0 sparsity cell is shared across
    strategies (one full-input run reported once per strategy)."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    tau, lam = base.strategy.tau, base.strategy.lam
    base_fraction = (base.strategy.target_ratio if base.strategy.kind == "ratio_controlled"
                     else base.strategy.k / n_tokens)
    cells: list[SweepCell] = []

    def push(x_value: float, strategy: StrategyConfig, emit_as: tuple[str, ...]):
        cfg = replace(base, strategy=strategy, out_dir=None)
        cells.append(SweepCell(len(cells), x_value, cfg, emit_as))

    if axis == "sparsity":
        for fraction in grid or SPARSITY_GRID:
            if fraction >= 1.0:
                push(1.0, _strategy_for("uniform_fixed", 1.0, n_tokens, tau, lam),
                     tuple(strategies))
            else:
                for kind in strategies:
                    push(fraction, _strategy_for(kind, fraction, n_tokens, tau, lam), (kind,))
    elif axis == "tau":
        for t in grid or TAU_GRID:
            push(t, _strategy_for("gumbel_topk", base_fraction, n_tokens, t, lam),
                 ("gumbel_topk",))
    elif axis == "lambda":
        for l in grid or LAMBDA_GRID:
            push(l, _strategy_for("ratio_controlled", base_fraction, n_tokens, tau, l),
                 ("ratio_controlled",))
    else:  # variant
        for kind in ("gumbel_topk", "ratio_controlled"):
            push(base_fraction, _strategy_for(kind, base_fraction, n_tokens, tau, lam), (kind,))
    return cells


def _run_cell(payload: tuple[SweepCell, int, int]) -> tuple[int, int, MetricsRow]:
    cell, seed_index, master_seed = payload
    cfg = replace(cell.cfg, seed=cell_seed(master_seed, cell.index, seed_index))
    final = train_run(cfg).final
    return cell.index, seed_index, final


def _worker_count() -> int:
    """STKN_THREADS as a positive worker count; unset or empty means 1."""
    raw = os.environ.get("STKN_THREADS", "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"STKN_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_sweep(axis: str, base: RunConfig, n_tokens: int, num_seeds: int,
              out_dir: str, grid: tuple[float, ...] | None = None,
              strategies: tuple[str, ...] = CURVE_STRATEGIES,
              ) -> tuple[list[MetricsRow], str, str]:
    """Run the grid, write the combined CSV and the accuracy curve SVG."""
    workers = _worker_count()
    cells = build_cells(axis, base, n_tokens, grid, strategies)
    payloads = [(cell, s, base.seed) for cell in cells for s in range(num_seeds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, payloads))
    else:
        outcomes = [_run_cell(p) for p in payloads]
    outcomes.sort(key=lambda item: (item[0], item[1]))  # deterministic merge order

    by_cell: dict[int, SweepCell] = {c.index: c for c in cells}
    rows: list[MetricsRow] = []
    series: dict[str, dict[float, list[float]]] = {}
    for cell_index, _seed_index, final in outcomes:
        cell = by_cell[cell_index]
        for label in cell.emit_as:
            rows.append(replace(final, strategy=label))
            series.setdefault(label, {}).setdefault(cell.x_value, []).append(
                final.eval_accuracy)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"sweep_{axis}.csv")
    svg_path = os.path.join(out_dir, f"sweep_{axis}.svg")
    config = base.config_dict()
    config.update({"axis": axis, "num_seeds": num_seeds,
                   "grid": ",".join(str(c.x_value) for c in cells)})
    write_metrics_csv(csv_path, rows, config)
    plot = {label: [(x, sum(vals) / len(vals)) for x, vals in sorted(pts.items())]
            for label, pts in series.items()}
    write_line_plot(svg_path, plot, X_COLUMNS[axis], "mean eval accuracy",
                    f"{axis} sweep ({num_seeds} seed{'s' if num_seeds != 1 else ''})")
    return rows, csv_path, svg_path
