import inspect

import pytest

from sparsetok import cli, sweep
from sparsetok.metrics import CSV_COLUMNS
from sparsetok.selection import STRATEGY_KINDS, StrategyConfig
from sparsetok.train import RunConfig

BASE = RunConfig(dataset="unused", strategy=StrategyConfig("gumbel_topk", k=8, tau=0.5))


def summary(cells):
    """(x value, kind, K, target ratio, labels) of each cell, in order."""
    return [(c.x_value, c.cfg.strategy.kind, c.cfg.strategy.k, c.cfg.strategy.target_ratio,
             c.emit_as) for c in cells]


def test_ratio_gate_at_full_keep_fraction_trains_its_own_cell():
    """A ratio gate at target 1.0 still drops tokens in training, so it is
    not the shared K = n run."""
    cells = sweep.build_cells("sparsity", BASE, 32, (0.25, 1.0),
                              ("gumbel_topk", "ratio_controlled"))
    assert summary(cells) == [
        (0.25, "gumbel_topk", 8, None, ("gumbel_topk",)),
        (0.25, "ratio_controlled", None, 0.25, ("ratio_controlled",)),
        (1.0, "uniform_fixed", 32, None, ("gumbel_topk",)),
        (1.0, "ratio_controlled", None, 1.0, ("ratio_controlled",))]
    assert [c.index for c in cells] == [0, 1, 2, 3]


@pytest.mark.parametrize("axis, kind, setting", [("tau", "gumbel_topk", "tau"),
                                                 ("lambda", "ratio_controlled", "lam")])
def test_ablation_axes_hold_the_base_keep_fraction(axis, kind, setting):
    cells = sweep.build_cells(axis, BASE, 32, (0.5, 2.0))
    assert [c.cfg.strategy.keep_fraction(32) for c in cells] == [0.25, 0.25]
    assert [c.cfg.strategy.kind for c in cells] == [kind, kind]
    assert [getattr(c.cfg.strategy, setting) for c in cells] == [0.5, 2.0]


def test_the_axes_table_drives_the_cli():
    _, commands = cli._build_parser()
    axis_flag, = (a for a in commands["sweep"]._actions if a.dest == "axis")
    assert tuple(axis_flag.choices) == tuple(sweep.AXES)
    settings = inspect.signature(StrategyConfig.for_fraction).parameters
    for axis in sweep.AXES.values():
        assert set(axis.strategies) <= set(STRATEGY_KINDS)
        assert axis.column in CSV_COLUMNS
        assert axis.setting in settings
        assert axis.grid
