"""Experiment grids: sparsity curves, temperature/weight ablations, variant
comparison. Cells run one after another, each cell's seeds in order. Every
(cell, seed) pair derives its own run seed from the master seed via a
documented hash, so a cell is reproducible in isolation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .data import load_dataset
from .errors import ConfigError
from .metrics import MetricsRow, write_line_plot, write_metrics_csv
from .rng import mix_words
from .selection import StrategyConfig
from .train import RunConfig, keep_fraction_of, train_run

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


def build_cells(axis: str, base: RunConfig, n_tokens: int,
                grid: tuple[float, ...] | None = None,
                strategies: tuple[str, ...] | None = None) -> list[SweepCell]:
    """Cells in deterministic order; the 1.0 sparsity cell is shared across
    strategies (one full-input run reported once per strategy). None means
    the axis's default grid and CURVE_STRATEGIES; a setting the axis would
    ignore (a variant grid, strategies off the sparsity axis) is a ConfigError."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if axis == "variant" and grid is not None:
        raise ConfigError("the variant axis takes no grid: it runs both variants "
                          "at the run's keep fraction")
    if axis != "sparsity" and strategies is not None:
        raise ConfigError(f"only the sparsity axis takes strategies, not the {axis} axis")
    tau, lam = base.strategy.tau, base.strategy.lam
    base_fraction = keep_fraction_of(base.strategy, n_tokens)
    cells: list[SweepCell] = []

    def push(x_value: float, kind: str, fraction: float, tau: float, lam: float,
             emit_as: tuple[str, ...]):
        strategy = StrategyConfig.for_fraction(kind, fraction, n_tokens, tau, lam)
        cfg = replace(base, strategy=strategy, out_dir=None)
        cells.append(SweepCell(len(cells), x_value, cfg, emit_as))

    if axis == "sparsity":
        strategies = strategies or CURVE_STRATEGIES
        for fraction in grid or SPARSITY_GRID:
            if fraction == 1.0:
                push(1.0, "uniform_fixed", 1.0, tau, lam, tuple(strategies))
            else:
                for kind in strategies:
                    push(fraction, kind, fraction, tau, lam, (kind,))
    elif axis == "tau":
        for t in grid or TAU_GRID:
            push(t, "gumbel_topk", base_fraction, t, lam, ("gumbel_topk",))
    elif axis == "lambda":
        for l in grid or LAMBDA_GRID:
            push(l, "ratio_controlled", base_fraction, tau, l, ("ratio_controlled",))
    else:  # variant
        for kind in ("gumbel_topk", "ratio_controlled"):
            push(base_fraction, kind, base_fraction, tau, lam, (kind,))
    return cells


def _cells_config(configs: list[dict]) -> dict:
    """The config block of a sweep, from its cells' run settings: a setting
    every cell shares is written once, one the cells vary as its values in
    cell order, as the grid is; so the block records what the cells ran,
    never a flag the axis overrides."""
    out = {}
    for key in configs[0]:
        values = [str(c[key]) for c in configs]
        out[key] = values[0] if len(set(values)) == 1 else ",".join(values)
    return out


@dataclass
class SweepRow(MetricsRow):
    """A cell's final-epoch row plus its run's `TrainResult.problem`, which
    the CSV leaves out."""
    problem: str | None = None


def _run_cell(cell: SweepCell, seed_index: int, master_seed: int) -> SweepRow:
    cfg = replace(cell.cfg, seed=cell_seed(master_seed, cell.index, seed_index))
    result = train_run(cfg)
    return SweepRow(**vars(result.final), problem=result.problem)


def run_sweep(axis: str, base: RunConfig, n_tokens: int, num_seeds: int,
              out_dir: str, grid: tuple[float, ...] | None = None,
              strategies: tuple[str, ...] | None = None,
              ) -> tuple[list[SweepRow], str, str]:
    """Run the grid cell by cell, num_seeds runs a cell, and write the
    combined CSV and the accuracy curve SVG."""
    if num_seeds < 1:
        raise ConfigError(f"a sweep needs at least one seed, got {num_seeds}")
    cells = build_cells(axis, base, n_tokens, grid, strategies)
    rows: list[SweepRow] = []
    series: dict[str, dict[float, list[float]]] = {}
    for cell in cells:
        for seed_index in range(num_seeds):
            final = _run_cell(cell, seed_index, base.seed)
            for label in cell.emit_as:
                rows.append(replace(final, strategy=label))
                series.setdefault(label, {}).setdefault(cell.x_value, []).append(
                    final.eval_accuracy)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"sweep_{axis}.csv")
    svg_path = os.path.join(out_dir, f"sweep_{axis}.svg")
    _, header = load_dataset(base.dataset)  # parsed by the cells' runs already
    config = _cells_config([c.cfg.config_dict(header["num_classes"]) for c in cells])
    config.update({"axis": axis, "num_seeds": num_seeds,
                   "grid": ",".join(str(c.x_value) for c in cells)})
    write_metrics_csv(csv_path, rows, config)
    plot = {label: [(x, sum(vals) / len(vals)) for x, vals in sorted(pts.items())]
            for label, pts in series.items()}
    write_line_plot(svg_path, plot, X_COLUMNS[axis], "mean eval accuracy",
                    f"{axis} sweep ({num_seeds} seed{'s' if num_seeds != 1 else ''})")
    return rows, csv_path, svg_path
