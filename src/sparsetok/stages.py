"""Forward passes as lists of one-op stages.

A stage is one step of a forward pass: `run(tape, state)` is the next
state. A stage that reads parameters names them, and reads them in its
first op, the only op of the stage that reads any; the ops after it are
cheap ones that read none (a reshape, a residual add). The costly ops that
read no parameter, `attention`, `gelu` and a softmax, are stages of their
own. So an array's finite differences need to run, at each perturbed point,
only the stages from the first to the last that name it, mostly one op,
and the stages after it once for a stack of points (`checks`).

A state is packed rows (`Packed`), a tensor, or a small tuple of them: a
sublayer's branch beside the residual stream, the streams carried beside
the keep probabilities to `apply_ste`.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor


class Packed(NamedTuple):
    """The rows of B sequences packed one after another, example by example:
    rows [R, d], R = sum(lengths)."""

    rows: Tensor
    lengths: tuple[int, ...]

    def empty_slots(self) -> np.ndarray:
        """Where each empty sequence's row goes: the `np.insert` indices of
        the rows."""
        counts = np.array(self.lengths)
        return (np.cumsum(counts) - counts)[counts == 0]

    def fill_empty(self, filler: Tensor) -> "Packed":
        """The same sequences, each empty one given the one row `filler`
        [1, d] in its place."""
        counts = np.array(self.lengths)
        rows = np.insert(np.arange(self.rows.shape[0]), self.empty_slots(), self.rows.shape[0])
        return Packed(ad.gather_rows(ad.concat_rows(self.rows, filler), rows),
                      tuple(np.maximum(counts, 1).tolist()))


class Stage(NamedTuple):
    """One step of a forward pass: run(tape, state) is the next state,
    reading no parameter but `parameters`, and those in its first op."""

    name: str
    parameters: tuple[Parameter, ...]
    run: Callable


def run_stages(tape: ad.Tape, stages: list[Stage], state):
    """The state after every stage in turn."""
    for stage in stages:
        state = stage.run(tape, state)
    return state


def projection(name: str, w: Parameter, b: Parameter) -> Stage:
    """x @ w + b on packed rows, one `linear`."""
    return Stage(name, (w, b), lambda tape, x: Packed(
        ad.linear(x.rows, tape.param(w), tape.param(b)), x.lengths))


def norm(name: str, gain: Parameter, bias: Parameter) -> Stage:
    """The LayerNorm of packed rows."""
    return Stage(name, (gain, bias), lambda tape, x: Packed(
        ad.layer_norm(x.rows, tape.param(gain), tape.param(bias)), x.lengths))


def rowwise(name: str, op: Callable[[Tensor], Tensor]) -> Stage:
    """A parameter-free op on packed rows, row by row."""
    return Stage(name, (), lambda tape, x: Packed(op(x.rows), x.lengths))


def branch(stage: Stage) -> Stage:
    """`stage` on a stream, its output beside the stream: (stream, branch)."""
    name, parameters, run = stage
    return Stage(name, parameters, lambda tape, x: (x, run(tape, x)))


def beside(stage: Stage) -> Stage:
    """`stage` on the second part of a (carried, value) state; the first
    part rides along unchanged."""
    name, parameters, run = stage
    return Stage(name, parameters, lambda tape, state: (state[0], run(tape, state[1])))


def residual(stage: Stage) -> Stage:
    """`stage` on the branch of a (stream, branch) state, its output added
    to the stream: the end of a residual sublayer."""
    name, parameters, run = stage
    return Stage(name, parameters, lambda tape, state: Packed(
        ad.add(state[0].rows, run(tape, state[1]).rows), state[0].lengths))
