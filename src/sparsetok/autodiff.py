"""Minimal reverse-mode automatic differentiation on 64-bit numpy arrays.

A Tape records operations in construction order (inputs always precede the
node that uses them), so backward is a single reverse sweep with no explicit
topological sort. Tensors are immutable value holders; everything runs in
float64 because the package exists to be verified against finite differences,
not to be fast on real workloads.

Gradient-stopping is expressed structurally: tensors without a node id are
constants, and `gather_rows` indices / `mask_multiply` masks never receive
gradients. `matmul` and `linear` skip the adjoint product
of a constant operand and return None for it. Gradient flow through discrete
selection is routed explicitly by `straight_through`.

Op forms. Training and evaluation record one node per op for a whole
minibatch, not one per example. Each op takes the forms the pipeline
records, and the gradient catalog (`checks._catalog_cases`) checks each
of them; a test holds the catalog's forms to the pipeline's. `multiply`
and `exp` are no pipeline op: only the catalog runs them.

- Weight projections and row-wise ops run on the packed [R, d] rows of a
  batch: `matmul` and `linear` (a biased projection x @ w + b as one node)
  are 2-D, and so are `layer_norm` (each row), `transpose` and
  `cross_entropy_loss` ([B, C] logits give [B] losses). `attention` is all
  heads of self-attention in one node: [R, 3d] projected q | k | v rows
  in, [R, d] contexts out.
- `add`, `subtract` and the other elementwise ops take operands of one
  shape: [1] loss terms, [B, n] keep scores, [B, n, d] tokens or [R, d]
  rows. `softmax_with_temperature` normalises the last axis, and
  `scale_rows` / `concat_rows` take rows on the second-to-last axis, of
  [B, n, d] streams or [R, d] rows. `gather_rows` reads a [n, d] table by
  indices of any shape, so a batch gathers from its rows flattened, by
  flat index.
- Sequences of unequal length are packed, not padded: their R rows follow
  one another, example by example, so every row-wise op works on real rows
  only. Two ops see sequences and take their lengths: `attention`, which
  pads them inside the op, each group of similar lengths to its own
  longest, and gives padded keys exactly zero weight, and `segment_mean`,
  the mean of each sequence's rows.
- `Tape.backward` releases each node's closure (and the forward arrays it
  holds) as soon as that node's adjoint has run, so a tape supports exactly
  one backward; a second call raises ContractError.
- Kernels write into their own fresh buffers in place, but never into an
  input or into the incoming gradient `g`, which `add` hands to both of its
  inputs. Row and column sums run as BLAS matrix-vector products with a
  constant vector, not as numpy reductions along a short axis.
"""
from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715
_LN_EPS = 1e-5

_TAPE_STACK: list["Tape"] = []


class AdjointCorruption:
    """Test instrumentation: scales the input gradients of every adjoint of
    one op kind by `factor`, letting the gradient checker prove it detects a
    wrong adjoint. `count` is the number of adjoints it has scaled."""

    def __init__(self, kind: str, factor: float):
        self.kind = kind
        self.factor = factor
        self.count = 0


_CORRUPT_VJP: AdjointCorruption | None = None


@contextlib.contextmanager
def corrupt_adjoint(kind: str, factor: float = 1.01):
    """Deliberately break one op's adjoint inside the context (tests only).

    Yields the AdjointCorruption, whose `count` stays 0 when no adjoint of
    `kind` ran: a kind no op records under corrupts nothing. On exit the
    corruption it replaced, if any, is in force again.
    """
    global _CORRUPT_VJP
    outer = _CORRUPT_VJP
    _CORRUPT_VJP = corruption = AdjointCorruption(kind, factor)
    try:
        yield corruption
    finally:
        _CORRUPT_VJP = outer


class Tensor:
    """A dense float64 value, optionally recorded on the active tape."""

    __slots__ = ("data", "node_id")

    def __init__(self, data: np.ndarray, node_id: int | None = None):
        self.data = data
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = "" if self.node_id is None else f", node={self.node_id}"
        return f"Tensor(shape={list(self.shape)}{tag})"


class Parameter:
    """A named, trainable array that outlives any single tape."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Tape:
    """Append-only record of one forward computation plus its gradients."""

    def __init__(self):
        # node: (op kind, input node ids, vjp callable or None for leaves and
        # for nodes whose adjoint has already run)
        self._nodes: list[tuple[str, tuple, Callable | None]] = []
        self._param_nodes: dict[int, Tensor] = {}
        self._backward_done = False
        self.gradients: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)

    def _append(self, kind: str, input_ids: tuple, vjp: Callable | None) -> int:
        self._nodes.append((kind, input_ids, vjp))
        return len(self._nodes) - 1

    def leaf(self, value: np.ndarray) -> Tensor:
        return Tensor(np.asarray(value, dtype=np.float64), self._append("leaf", (), None))

    def param(self, p: Parameter) -> Tensor:
        """Fetch the tape tensor for a parameter, registering it on first use.

        Memoized by identity so that reusing a parameter accumulates into one
        gradient slot. A tape that is not the active one records nothing, so
        it hands out the bare value and registers nothing.
        """
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            return Tensor(p.value)
        t = self._param_nodes.get(id(p))
        if t is None:
            t = self.leaf(p.value)
            self._param_nodes[id(p)] = t
        return t

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Populate gradients of every recorded node reachable from `loss`.

        Runs once per tape: each node's closure is dropped after its adjoint
        has run, which frees the forward arrays it captured.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._backward_done:
            raise ContractError("backward already ran on this tape; record a new one")
        self._backward_done = True
        grads: dict[int, np.ndarray] = {}
        if loss.node_id is None:  # constant loss: nothing reachable, all grads zero
            self.gradients = grads
            return grads
        grads[loss.node_id] = np.ones_like(loss.data)
        for nid in range(loss.node_id, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            kind, input_ids, vjp = self._nodes[nid]
            if vjp is None:
                continue
            self._nodes[nid] = (kind, input_ids, None)
            input_grads = vjp(g)
            if _CORRUPT_VJP is not None and kind == _CORRUPT_VJP.kind:
                _CORRUPT_VJP.count += 1
                input_grads = tuple(
                    None if ig is None else ig * _CORRUPT_VJP.factor for ig in input_grads
                )
            for iid, ig in zip(input_ids, input_grads):
                if iid is None or ig is None:
                    continue
                acc = grads.get(iid)
                grads[iid] = ig if acc is None else acc + ig
        self.gradients = grads
        return grads

    def grad(self, ref: Tensor | Parameter) -> np.ndarray:
        """Gradient of the last backward wrt a tensor or parameter (zeros if unreached)."""
        if isinstance(ref, Parameter):
            t = self._param_nodes.get(id(ref))
            if t is None:
                return np.zeros_like(ref.value)
            ref = t
        g = self.gradients.get(ref.node_id) if ref.node_id is not None else None
        return np.zeros_like(ref.data) if g is None else g


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


# ---------------------------------------------------------------------------
# construction

def constant(array_like) -> Tensor:
    """Wrap a value as an off-tape constant tensor."""
    return Tensor(np.asarray(array_like, dtype=np.float64))


# ---------------------------------------------------------------------------
# primitive catalog

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _record(kind: str, out: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable | None) -> Tensor:
    # the tape stack is read inline: off-tape evaluations (every finite
    # difference) make most calls, 12,750 of a `run_gradcheck`'s 13,354
    if not _TAPE_STACK or vjp is None:
        return Tensor(out)
    ids = tuple([t.node_id for t in inputs])
    if ids.count(None) == len(ids):
        return Tensor(out)
    return Tensor(out, _TAPE_STACK[-1]._append(kind, ids, vjp))


@functools.lru_cache(maxsize=128)
def _filled(n: int, value: float) -> np.ndarray:
    """A read-only [n] vector of one value, kept for the most recent shapes:
    the operand that turns a row or column sum into a BLAS matrix-vector
    product."""
    v = np.full(n, value)
    v.flags.writeable = False
    return v


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Sums over the rows of a [m, n] array, as one matrix-vector product
    with a ones vector rather than a reduction along the row axis."""
    return _filled(len(rows), 1.0) @ rows


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _record("add", a.data + b.data, (a, b), lambda g: (g, g))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"subtract: shapes {a.shape} and {b.shape} differ")
    return _record("subtract", a.data - b.data, (a, b), lambda g: (g, -g))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. Only the gradcheck catalog runs it; it stays
    because perfbench's tracer counts its nodes by name."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"multiply: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return _record("multiply", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[m, k] @ [k, n]; 2-D only (flatten a batch of rows first)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data
    return _record("matmul", ad @ bd, (a, b),
                   lambda g: (None if a.node_id is None else g @ bd.T,
                              None if b.node_id is None else ad.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[m, k] @ [k, n] + a [n] bias as one node, the bias added in place;
    the bias gradient is g summed over the rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} do not conform")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    return _record("linear", out, (x, w, b),
                   lambda g: (None if x.node_id is None else g @ wd.T,
                              None if w.node_id is None else xd.T @ g,
                              None if b.node_id is None else _column_sums(g)))


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    return _record("scale_by_constant", x.data * c, (x,), lambda g: (g * c,))


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("natural_log of a non-positive value")
    xd = x.data
    return _record("natural_log", np.log(xd), (x,), lambda g: (g / xd,))


def exp(x: Tensor) -> Tensor:
    """Elementwise e^x. Only the gradcheck catalog runs it; it stays
    because perfbench's tracer counts its nodes by name."""
    x = _as_tensor(x)
    out = np.exp(x.data)
    return _record("exp", out, (x,), lambda g: (g * out,))


def square(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    return _record("square", xd * xd, (x,), lambda g: (g * (2.0 * xd),))


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation 0.5 x (1 + tanh u), u = c0 (x + c1 x^3),
    evaluated as x s with s = (1 + tanh u) / 2 = 1 / (1 + exp(-2u)): one
    exp and one reciprocal: 8 passes over the array. When the node is
    recorded, the forward also takes the derivative
    s + 2 c0 out (1 - s)(1 + 3 c1 x^2) in 6 more passes and keeps it alone
    for the adjoint, d * g; off the tape it takes none.
    Very negative x overflows exp(-2u) to inf, which gives s = 0 exactly."""
    x = _as_tensor(x)
    xd = x.data
    sq = xd * xd
    s = np.multiply(sq, -2.0 * _GELU_C0 * _GELU_C1)
    s -= 2.0 * _GELU_C0
    s *= xd
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    out = xd * s
    if not _TAPE_STACK or x.node_id is None:  # recorded nowhere: no derivative
        return Tensor(out)
    d = np.subtract(1.0, s)
    d *= out
    sq *= 6.0 * _GELU_C0 * _GELU_C1
    sq += 2.0 * _GELU_C0
    d *= sq
    d += s
    return _record("gelu", out, (x,), lambda g: (d * g,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalization of each row of a [R, d] tensor with learnable gain and
    bias. Every row mean is a matrix-vector product with a [d] vector of
    1/d, and the gain and bias gradients are products of a ones vector with
    the [R, d] arrays, so no reduction runs along the short last axis.
    Forward and adjoint each allocate two full-size arrays."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects [R, d] rows, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm gain/bias must match the row width")
    rows = x.data
    mean = _filled(d, 1.0 / d)
    xhat = rows - (rows @ mean)[:, None]
    out = np.multiply(xhat, xhat)  # the squares first, the output at the end
    inv = 1.0 / np.sqrt(out @ mean + _LN_EPS)
    xhat *= inv[:, None]
    gd = gain.data

    def vjp(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
        # dxhat = g * gain, so both row means are products of g and of
        # g * xhat with the vector gain / d
        buf = np.multiply(g, xhat)
        g_gain, g_bias = _column_sums(buf), _column_sums(g)
        gain_mean = gd * mean
        mean_dot, mean_dx = buf @ gain_mean, g @ gain_mean
        dx = np.multiply(g, gd)
        np.multiply(xhat, mean_dot[:, None], out=buf)
        dx -= buf
        dx -= mean_dx[:, None]
        dx *= inv[:, None]
        return dx, g_gain, g_bias

    np.multiply(xhat, gd, out=out)
    out += bias.data
    return _record("layer_norm", out, (x, gain, bias), vjp)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack b's rows under a's: [..., na, d] and [..., nb, d] -> [..., na+nb, d]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim not in (2, 3) or a.data.ndim != b.data.ndim
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-1]):
        raise ShapeError(f"concat_rows: shapes {a.shape} and {b.shape} do not conform")
    na = a.shape[-2]
    return _record("concat_rows", np.concatenate([a.data, b.data], axis=-2), (a, b),
                   lambda g: (g[..., :na, :], g[..., na:, :]))


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a [n, d] source by constant indices of any shape S,
    giving S + [d]; backward scatter-adds into the source."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows: source {x.shape} is not a [n, d] table of rows")
    (n, width), src = x.shape, x.data
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows index out of range for {n} rows")

    def vjp(g):
        # one bincount over flat cell indices: each cell sums its
        # contributions in gather order, as np.add.at would
        cells = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        out = np.bincount(cells, weights=g.reshape(-1), minlength=src.size)
        return (out.reshape(n, width),)

    return _record("gather_rows", src.take(idx, axis=0), (x,), vjp)


def mask_multiply(x: Tensor, mask) -> Tensor:
    """Elementwise product with a constant 0/1 (or float) mask."""
    x = _as_tensor(x)
    m = mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)
    if m.shape != x.shape:
        raise ShapeError(f"mask_multiply: mask shape {m.shape} != value shape {x.shape}")
    return _record("mask_multiply", x.data * m, (x,), lambda g: (g * m,))


def mean_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    size = x.data.size
    shape = x.shape
    return _record("mean_all", np.array([np.add.reduce(x.data, axis=None) / size]), (x,),
                   lambda g: (np.full(shape, g[0] / size),))


def transpose(x: Tensor) -> Tensor:
    """Swap the two axes of a [n, m] tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-dim input, got {x.shape}")
    return _record("transpose", x.data.T.copy(), (x,), lambda g: (g.T,))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    new = tuple(map(int, shape))
    if math.prod(new) != x.data.size:
        raise ShapeError(f"cannot reshape {x.shape} to {list(new)}")
    old = x.shape
    return _record("reshape", x.data.reshape(new), (x,), lambda g: (g.reshape(old),))


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Multiply row i of a [..., n, d] tensor by w[..., i]; both operands
    differentiable."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim < 2 or w.shape != x.shape[:-1]:
        raise ShapeError(f"scale_rows: shapes {x.shape} and {w.shape} do not conform")
    xd, wd = x.data, w.data
    return _record("scale_rows", xd * wd[..., None], (x, w),
                   lambda g: (g * wd[..., None], (g * xd).sum(axis=-1)))


def segment_mean(x: Tensor, lengths: Sequence[int]) -> Tensor:
    """The mean of each sequence's rows: x [R, d] holds B sequences of
    `lengths` rows (each at least 1, R their sum) packed one after another,
    and the result is [B, d]. Forward one `np.add.reduceat` over the rows,
    adjoint one `np.repeat` of g / length: R*d work each way, whatever B."""
    x = _as_tensor(x)
    counts = np.array(lengths, dtype=np.int64)
    if counts.ndim != 1 or not counts.size or counts.min() < 1:
        raise ShapeError(f"segment_mean: lengths {list(lengths)} are not sequences of rows")
    if x.data.ndim != 2 or x.shape[0] != counts.sum():
        raise ShapeError(f"segment_mean: rows {x.shape} do not split into sequences of "
                         f"{list(lengths)} rows")
    sizes = counts[:, None].astype(np.float64)
    out = np.add.reduceat(x.data, np.cumsum(counts) - counts, axis=0)
    out /= sizes
    return _record("segment_mean", out, (x,),
                   lambda g: (np.repeat(g / sizes, counts, axis=0),))


def straight_through(soft: Tensor, hard_values) -> Tensor:
    """Forward the hard values exactly; route gradients to the soft relaxation."""
    soft = _as_tensor(soft)
    hard = np.asarray(hard_values, dtype=np.float64)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through: shapes {soft.shape} and {hard.shape} differ")
    return _record("straight_through", hard.copy(), (soft,), lambda g: (g,))


def softmax_with_temperature(x: Tensor, tau: float) -> Tensor:
    """Numerically stable softmax of x / tau along the last axis."""
    x = _as_tensor(x)
    if tau <= 0:
        raise DomainError(f"softmax temperature must be positive, got {tau}")
    y = x.data / tau
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        return ((y * (g - (g * y).sum(axis=-1, keepdims=True))) / tau,)

    return _record("softmax", y, (x,), vjp)


# the most groups `attention` splits a batch of unequal lengths into, and
# the charge for each group's kernel call after the first, in logits of one
# head (`_length_groups`). A call's own cost is that of about 1,000 logits
# (15 us forward against 10-18 ns a logit, 30 us forward plus adjoint
# against 30 ns, one BLAS thread); the charge is a quarter of that, because
# a padded logit also costs memory the adjoint holds. 32 lengths drawn as
# 2 Binomial(32, 0.3), as a multimodal batch keeps, pad to 1.18 times their
# real logits on average, where one call pads to 2.33 times
_ATTENTION_GROUPS = 6
_GROUP_CALL_LOGITS = 256


class _Group(NamedTuple):
    """Sequences that `attention` pads to one length and runs in one kernel
    call: `count` of them, padded to `length`; `rows`, their packed rows (a
    slice when the group is the whole batch in order); `pos`, where those
    rows sit in the group's zeroed [count*length] buffer; and the
    [count, length] key bias, 0 on a real key and -inf on a padded one, or
    None when the group's lengths are equal."""

    count: int
    length: int
    rows: np.ndarray | slice
    pos: np.ndarray
    key_bias: np.ndarray | None


@functools.lru_cache(maxsize=8)
def _length_groups(lengths: tuple[int, ...], heads: int) -> tuple[_Group, ...] | None:
    """How `attention` pads sequences of these lengths: None when every
    length is the same, so nothing is padded, else the groups it runs.

    The sequences, sorted by length, are cut into 1 to `_ATTENTION_GROUPS`
    groups of equal count, each padded to its own longest. The cut taken
    has the fewest padded logits over all heads plus `_GROUP_CALL_LOGITS`
    for each call after the first (the fewest groups on a tie), so a batch
    whose groups would save few logits keeps one padded call. Inside a
    group the sequences keep their order. The arrays are read-only and kept
    for the few most recent length tuples."""
    if min(lengths) == max(lengths):
        return None
    sizes = np.asarray(lengths, dtype=np.int64)
    order, batch = np.argsort(sizes, kind="stable"), len(lengths)
    ranked = sizes[order]

    def bounds(groups: int) -> list[tuple[int, int]]:
        return [(i * batch // groups, (i + 1) * batch // groups) for i in range(groups)]

    def cost(groups: int) -> int:
        padded = sum((end - start) * int(ranked[end - 1]) ** 2 for start, end in bounds(groups))
        return heads * padded + (groups - 1) * _GROUP_CALL_LOGITS

    groups = min(range(1, min(_ATTENTION_GROUPS, batch) + 1), key=cost)
    sequence_of_row = np.repeat(np.arange(batch), sizes)
    plan = []
    for start, end in bounds(groups):
        member = np.zeros(batch, dtype=bool)
        member[order[start:end]] = True
        length = int(ranked[end - 1])
        real = np.arange(length) < sizes[member][:, None]
        rows = slice(None) if groups == 1 else np.flatnonzero(member[sequence_of_row])
        pos = np.flatnonzero(real)
        key_bias = None if real.all() else np.where(real, 0.0, -np.inf)
        for array in (rows, pos, key_bias):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        plan.append(_Group(end - start, length, rows, pos, key_bias))
    return tuple(plan)


def _attend(x: np.ndarray, batch: int, heads: int,
            key_bias: np.ndarray | None) -> tuple[np.ndarray, Callable]:
    """The attention kernel on `batch` sequences of one length L, their
    [batch*L, 3d] rows in x: the contexts [batch*L, d] and the adjoint
    from their gradient to x's. key_bias [batch, L] is added to the logits
    of each sequence's keys, or None to add nothing.

    The logits are laid out key-major, [B, heads, key, query] = k @ q^T, so
    the softmax's max and sum reduce across rows of the contiguous query
    axis, and the contexts are probs^T @ v through a transposed view. The
    1/sqrt(dk) scale is folded into the [L, dk] q operand, not the [L, L]
    logits. The softmax and its adjoint run in place: one [B, heads, L, L]
    buffer forward and one backward, whatever the head count."""
    rows, width = x.shape
    d, length = width // 3, rows // batch
    dk = d // heads
    scale = 1.0 / math.sqrt(dk)
    # [3, B, H, L, dk] views of q, k and v; every [L, dk] slice stays BLAS-ready
    q, k, v = x.reshape(batch, length, 3, heads, dk).transpose(2, 0, 3, 1, 4)
    probs = k @ (q * scale).transpose(0, 1, 3, 2)
    if key_bias is not None:
        probs += key_bias[:, None, :, None]
    probs -= np.maximum.reduce(probs, axis=-2, keepdims=True)
    np.exp(probs, out=probs)
    probs *= 1.0 / np.add.reduce(probs, axis=-2, keepdims=True)
    # the contexts are written straight into the [B*L, d] output's head blocks
    out = np.empty((batch, length, heads, dk))
    np.matmul(probs.transpose(0, 1, 3, 2), v, out=out.transpose(0, 2, 1, 3))
    out = out.reshape(rows, d)

    def vjp(g):
        g_context = g.reshape(batch, length, heads, dk).transpose(0, 2, 1, 3)
        grad = np.empty((batch, length, 3, heads, dk))
        g_q, g_k, g_v = grad.transpose(2, 0, 3, 1, 4)
        np.matmul(probs, g_context, out=g_v)
        g_logits = v @ g_context.transpose(0, 1, 3, 2)
        # softmax adjoint P * (dP - rowsum(dP * P)), where rowsum(dP * P) =
        # rowsum(dO * O) needs no second [L, L] array; it is one
        # matrix-vector product over the [B*L*heads, dk] rows of dO * O
        row_term = np.multiply(g, out).reshape(-1, dk) @ _filled(dk, 1.0)
        g_logits -= row_term.reshape(batch, length, heads).transpose(0, 2, 1).copy()[:, :, None]
        g_logits *= probs
        # the 1/sqrt(dk) of q: on the contiguous logit gradient, not the
        # strided g_q block
        g_logits *= scale
        np.matmul(g_logits, q, out=g_k)
        np.matmul(g_logits.transpose(0, 1, 3, 2), k, out=g_q)
        return grad.reshape(rows, width)

    return out, vjp


def attention(qkv: Tensor, lengths: Sequence[int], heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention as one tape node.

    qkv is [R, 3d]: the rows of B sequences packed one after another, row
    counts `lengths` (each at least 1, R their sum), columns q | k | v, each
    of the three head-major (head h owns columns h*dk .. (h+1)*dk - 1 of its
    block, dk = d / heads). Each row attends to the rows of its own sequence.
    Returns the heads' contexts [R, d], packed alike, head-major columns.

    With equal lengths the rows go to the kernel (`_attend`) as they are,
    no copy made. Otherwise the sequences are split into groups of similar
    length (`_length_groups`), and each group is padded to its own longest
    inside the op: its packed rows are written into a zeroed buffer by one
    indexed assignment, padded keys get a -inf logit, so their softmax
    weight is exactly 0, and the contexts and the adjoint's input gradient
    are written back to the packed rows. A padded query's output gradient
    is 0, so padded rows contribute nothing to any gradient. A padded key
    adds exact zeros to every sum over keys, so a sequence's values do not
    depend on the length it is padded to, except at dk = 1: there the
    contexts are matrix-vector products, whose sums BLAS splits by length,
    and they can move in the last bit. For the adjoint each group keeps its
    own padded rows, logits and contexts.
    """
    qkv = _as_tensor(qkv)
    lengths = tuple(map(int, lengths))
    rows, width = qkv.shape if qkv.data.ndim == 2 else (0, 0)
    if (not lengths or min(lengths) < 1 or sum(lengths) != rows or heads < 1
            or width % (3 * heads)):
        raise ShapeError(f"attention: qkv {qkv.shape} does not split into sequences of "
                         f"{list(lengths)} rows of q | k | v over {heads} heads")
    plan = _length_groups(lengths, heads)
    if plan is None:
        out, vjp_rows = _attend(qkv.data, len(lengths), heads, None)
        return _record("attention", out, (qkv,), lambda g: (vjp_rows(g),))
    d = width // 3
    recorded = bool(_TAPE_STACK) and qkv.node_id is not None
    pieces, adjoints = [], []
    for group in plan:
        x = np.zeros((group.count * group.length, width))
        x[group.pos] = qkv.data[group.rows]
        out_group, vjp_group = _attend(x, group.count, heads, group.key_bias)
        pieces.append(out_group.take(group.pos, axis=0))
        if recorded:  # else the group's buffers go before the next group's
            adjoints.append(vjp_group)

    def vjp(g):
        pieces = []
        for group, vjp_group in zip(plan, adjoints):
            g_group = np.zeros((group.count * group.length, d))
            g_group[group.pos] = g[group.rows]
            pieces.append(vjp_group(g_group).take(group.pos, axis=0))
        return (_packed(plan, pieces),)

    return _record("attention", _packed(plan, pieces), (qkv,), vjp)


def _packed(plan: tuple[_Group, ...], pieces: list[np.ndarray]) -> np.ndarray:
    """The rows of each group of `plan`, one array a group, put back in
    packed order."""
    if len(plan) == 1:
        return pieces[0]
    out = np.empty((sum(map(len, pieces)), pieces[0].shape[1]))
    for group, piece in zip(plan, pieces):
        out[group.rows] = piece
    return out


def cross_entropy_loss(logits: Tensor, target_class) -> Tensor:
    """-log softmax(logits)[target] of each row: [B, C] logits and B classes
    give the [B] per-example losses."""
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_loss expects [B, C] logits, got {logits.shape}")
    z = logits.data
    rows, c = z.shape
    t = np.asarray(target_class, dtype=np.int64).reshape(-1)
    if t.size != rows:
        raise ShapeError(f"cross_entropy_loss: {t.size} targets for {rows} logit rows")
    bad = (t < 0) | (t >= c)
    if bad.any():
        raise IndexError(f"target class {int(t[bad][0])} out of range for {c} classes")
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    at = np.arange(rows)

    def vjp(g):
        d = np.exp(z - lse)  # softmax(z), made only when the adjoint is taken
        d[at, t] -= 1.0
        return (d * g[:, None],)

    return _record("cross_entropy", lse[:, 0] - z[at, t], (logits,), vjp)


# ---------------------------------------------------------------------------
# finite differences

# one finite-difference case: (name, numeric derivative, analytic gradient),
# the two derivatives of one array's coordinates
Case = tuple[str, np.ndarray, np.ndarray]


class Stencil(NamedTuple):
    """A symmetric finite-difference rule: the losses at value + offset *
    step, one per offset, weighted by `weights` and divided by divisor *
    step, estimate the derivative."""

    offsets: tuple[int, ...]
    weights: tuple[int, ...]
    divisor: int


# (f(+h) - f(-h)) / 2h: truncation error h^2 f^(3) / 6
CENTRAL = Stencil((1, -1), (1, -1), 2)
# (-f(+2h) + 8 f(+h) - 8 f(-h) + f(-2h)) / 12h: truncation error h^4 f^(5) / 30,
# so it is as accurate as a central difference at a far larger step, whose
# rounding error, about eps |f| / h, is that much smaller
FOURTH_ORDER = Stencil((2, 1, -1, -2), (-1, 8, -8, 1), 12)


def perturb_each(array: np.ndarray, step: float,
                 stencil: Stencil = CENTRAL) -> Iterator[None]:
    """Move each coordinate of `array` in place to each of the stencil's
    offsets times step from its value in turn (+step, then -step, for a
    central difference), yielding after each move; the value is put back
    before the next coordinate, and on exit. The losses seen at the yields,
    in order, are what `difference_quotients` reduces. `array` must be
    contiguous float64, and whatever reads it must read it in place."""
    if array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ContractError("finite differences perturb contiguous float64 arrays in place")
    flat = array.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        try:
            for offset in stencil.offsets:
                flat[i] = orig + offset * step
                yield
        finally:
            flat[i] = orig


def difference_quotients(losses, step: float, stencil: Stencil = CENTRAL) -> np.ndarray:
    """The stencil's derivative estimates, one per coordinate, of the losses
    at the points `perturb_each` visits, in its order."""
    points = np.asarray(losses, dtype=np.float64).reshape(-1, len(stencil.offsets))
    return points @ np.array(stencil.weights, dtype=np.float64) / (stencil.divisor * step)


def central_differences(loss_at: Callable[[], float], array: np.ndarray, step: float,
                        stencil: Stencil = CENTRAL) -> np.ndarray:
    """The finite-difference derivative of `loss_at()` along each
    coordinate of `array`, one evaluation per stencil offset and coordinate:
    `loss_at` must read the array itself (a parameter value, a token array)
    and be deterministic, so freeze any noise first."""
    return difference_quotients([loss_at() for _ in perturb_each(array, step, stencil)],
                                step, stencil)


def central_difference_check(cases: Iterable[Case]) -> tuple[float, str]:
    """Worst relative error between analytic gradients and finite differences.

    Each case is (name, numeric, analytic), both derivatives of one array,
    however the case evaluated its numeric one: coordinate by coordinate
    (`central_differences`) or in stacked batches, with either stencil. Cases are consumed one at
    a time, so a generator may build each just before it is checked. The
    relative error denominator is max(|analytic|, |numeric|, 1e-8) per
    coordinate. Returns the worst error over all coordinates of all cases
    and where it is, "name[flat coordinate]"; the first one wins a tie, and
    a NaN error beats any number.
    """
    worst, where = -math.inf, ""
    for name, numeric, grad in cases:
        numeric = np.asarray(numeric, dtype=np.float64).reshape(-1)
        grad = np.asarray(grad, dtype=np.float64).reshape(-1)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
        err = np.abs(grad - numeric) / denom
        i = int(np.argmax(err))  # argmax ranks a NaN first, and a NaN fails any tolerance
        if not np.isnan(worst) and not worst >= err[i]:
            worst, where = float(err[i]), f"{name}[{i}]"
    return worst, where

