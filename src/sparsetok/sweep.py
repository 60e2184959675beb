"""Experiment grids: sparsity curves and temperature/weight ablations,
one row of `AXES` each. Cells run one after another, each cell's seeds in
order. Every (cell, seed) pair derives its own run seed from the master seed
via a documented hash, so a cell is reproducible in isolation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import NamedTuple

from .data import load_dataset
from .errors import ConfigError
from .metrics import MetricsRow, write_line_plot, write_metrics_csv
from .rng import mix_words
from .selection import StrategyConfig
from .train import RunConfig, train_run

CURVE_STRATEGIES = ("uniform_fixed", "deterministic_topk", "gumbel_topk")


class Axis(NamedTuple):
    """What one sweep axis varies."""
    setting: str  # the `StrategyConfig.for_fraction` keyword the grid sets
    column: str  # the CSV column the grid values fill, and the curve's x label
    grid: tuple[float, ...]  # the default grid
    strategies: tuple[str, ...]  # the default strategies, one cell each per grid value


# the sparsity axis alone takes strategies; the others hold the keep fraction
# at the base run's, `base.strategy.keep_fraction(n)`
AXES = {
    "sparsity": Axis("fraction", "keep_fraction", (0.1, 0.3, 0.5, 0.7, 1.0), CURVE_STRATEGIES),
    "tau": Axis("tau", "tau", (0.01, 0.1, 0.5), ("gumbel_topk",)),
    "lambda": Axis("lam", "lambda", (0.01, 0.1, 1.0, 10.0), ("ratio_controlled",)),
}


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
    """Cells in deterministic order: for each grid value, one per strategy.
    None means the axis's default grid and strategies. At sparsity 1.0 the
    strategies that keep K = n share one full-input `uniform_fixed` run,
    reported once per strategy; `ratio_controlled` gates tokens in training
    even at target 1.0, so it trains its own. Strategies off the sparsity
    axis are a ConfigError, and so are two cells of equal strategy configs
    (a repeated grid value or strategy, or two keep fractions that round to
    one K), which would train one cell twice."""
    if axis not in AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if axis != "sparsity" and strategies is not None:
        raise ConfigError(f"only the sparsity axis takes strategies, not the {axis} axis")
    spec = AXES[axis]
    tau, lam = base.strategy.tau, base.strategy.lam
    base_fraction = base.strategy.keep_fraction(n_tokens)
    cells: list[SweepCell] = []
    full_input = StrategyConfig.for_fraction("uniform_fixed", 1.0, n_tokens, tau, lam)
    for x_value in grid or spec.grid:
        settings = {"fraction": base_fraction, "tau": tau, "lam": lam, spec.setting: x_value}
        first = len(cells)  # this grid value's first cell
        for kind in strategies or spec.strategies:
            strategy = StrategyConfig.for_fraction(kind, n=n_tokens, **settings)
            shared = axis == "sparsity" and x_value == 1.0 and strategy.k == n_tokens
            strategy = full_input if shared else strategy
            same = next((c for c in cells if c.cfg.strategy == strategy), None)
            if same is None:
                cfg = replace(base, strategy=strategy, out_dir=None)
                cells.append(SweepCell(len(cells), x_value, cfg, (kind,)))
            elif shared and same.index >= first:
                same.emit_as += (kind,)
            else:
                raise ConfigError(f"grid values {same.x_value:g} and {x_value:g} train the "
                                  f"same {strategy.kind} cell; a sweep trains each cell once")
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
    """A cell's final-epoch row plus its grid value and its run's
    `TrainResult.problem`, which the CSV leaves out."""
    x_value: float = 0.0
    problem: str | None = None


def _run_cell(cell: SweepCell, seed_index: int, master_seed: int) -> SweepRow:
    cfg = replace(cell.cfg, seed=cell_seed(master_seed, cell.index, seed_index))
    result = train_run(cfg)
    return SweepRow(**vars(result.final), x_value=cell.x_value, problem=result.problem)


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
    write_line_plot(svg_path, plot, AXES[axis].column, "mean eval accuracy",
                    f"{axis} sweep ({num_seeds} seed{'s' if num_seeds != 1 else ''})")
    return rows, csv_path, svg_path
