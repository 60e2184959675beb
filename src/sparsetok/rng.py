"""Deterministic counter-based random streams.

Every stochastic piece of the package draws from a SeededRng so that runs are
bit-reproducible across platforms. The generator is SplitMix64 used in counter
mode: draw i of stream (seed, stream_id) is a pure function of those three
integers, which makes stream splitting trivial and keeps parallel sweep cells
independent of execution order. For the same reason many streams can be drawn
at once: `SeededStreams` evaluates the same state formula over a
[streams, draws] grid, so its row s is bit for bit what stream s alone draws.
"""
from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# offset of the root stream; an arbitrary odd constant
_ROOT = 0x243F6A8885A308D3


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def mix_words(*words: int) -> int:
    """Hash a sequence of integers into one 64-bit value (order sensitive)."""
    acc = _ROOT
    for w in words:
        acc = mix64((acc + _GAMMA) ^ (w & _MASK64))
    return acc


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 element-wise. uint64 array arithmetic wraps silently; on numpy
    scalars it warns, so a caller passing one holds np.errstate(over="ignore")."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _as_words(w) -> np.ndarray:
    """An int or an integer array as uint64 words, modulo 2^64 like `w & _MASK64`."""
    if isinstance(w, int):
        return np.uint64(w & _MASK64)
    return np.asarray(w).astype(np.uint64)


def mix_words_array(*words) -> np.ndarray:
    """`mix_words` element-wise over ints and integer arrays, broadcast together."""
    acc = np.uint64(_ROOT)
    with np.errstate(over="ignore"):
        for w in words:
            acc = _mix64_array((acc + np.uint64(_GAMMA)) ^ _as_words(w))
    return acc


class _CounterDraws:
    """The draws of one stream (a uint64 key) or of many (a [streams, 1]
    column of keys): draw i of a stream is mix64(key + i * gamma), then the
    same uniform and Box-Muller transforms along the last axis."""

    _keys: np.uint64 | np.ndarray
    _counter: int

    def _raw(self, count: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        return _mix64_array(self._keys + idx * np.uint64(_GAMMA))

    def uniforms(self, count: int) -> np.ndarray:
        """count doubles strictly inside (0, 1), uniform on a 2^53 lattice."""
        bits = self._raw(count) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) * (2.0 ** -53)

    def normals(self, count: int, mean: float = 0.0, stddev: float = 1.0) -> np.ndarray:
        """count Box-Muller normal draws with the given mean and stddev."""
        return mean + stddev * _box_muller(self.uniforms(2 * ((count + 1) // 2)), count)


def _box_muller(u: np.ndarray, count: int) -> np.ndarray:
    """count standard normals from each row of 2 * ceil(count / 2) uniforms."""
    pairs = (count + 1) // 2
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    theta = (2.0 * math.pi) * u[..., pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :count]


class SeededRng(_CounterDraws):
    """A splittable deterministic stream of uniforms and normals.

    Identical (seed, stream_id, call sequence) produce identical outputs on
    every platform; `split` derives an independent child stream from integer
    labels without disturbing this stream's state.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        self._key = mix_words(self.seed, self.stream_id)
        self._counter = 0

    @property
    def _keys(self) -> np.uint64:
        # made per draw, not per stream: many streams only split
        return np.uint64(self._key)

    # bound in this class's own namespace, where perfbench's tracer wraps it
    uniforms = _CounterDraws.uniforms

    def split(self, *labels: int) -> "SeededRng":
        return SeededRng(self.seed, mix_words(self.stream_id, *labels))

    def streams(self, *labels) -> "SeededStreams":
        """`split(*labels)` for every entry of the broadcast integer labels
        (at least one of them a 1-D array), as one batch of streams."""
        return SeededStreams(self.seed, mix_words_array(self.stream_id, *labels))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def integer(self, bound: int) -> int:
        """One integer in [0, bound); exactly unbiased when bound divides 2^53."""
        return min(int(self.uniform() * bound), bound - 1)

    def normal_rows(self, rows: int, count: int) -> np.ndarray:
        """rows successive `normals(count)` draws as one [rows, count] array."""
        u = self.uniforms(rows * 2 * ((count + 1) // 2)).reshape(rows, -1)
        return _box_muller(u, count)

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.uniforms(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), unsorted."""
        if k > n:
            raise ValueError(f"cannot choose {k} of {n}")
        return self.permutation(n)[:k]


class SeededStreams(_CounterDraws):
    """Many SeededRng streams of one seed, drawn together as [streams, draws].

    Row s of every draw is bit for bit the same draw that
    SeededRng(seed, stream_ids[s]) makes at the same point of the same call
    sequence; one array call replaces a Python call per stream.
    """

    def __init__(self, seed: int, stream_ids):
        self.seed = seed & _MASK64
        self.stream_ids = np.asarray(stream_ids).astype(np.uint64).reshape(-1)
        self._keys = mix_words_array(self.seed, self.stream_ids)[:, None]
        self._counter = 0

    def __len__(self) -> int:
        return len(self.stream_ids)

    def split(self, *labels: int) -> "SeededStreams":
        """Every stream's `split(*labels)`."""
        return SeededStreams(self.seed, mix_words_array(self.stream_ids, *labels))

    def integers(self, bound: int) -> np.ndarray:
        """Each stream's `integer(bound)`."""
        return np.minimum((self.uniforms(1)[:, 0] * bound).astype(np.int64), bound - 1)

    def permutations(self, n: int) -> np.ndarray:
        """Each stream's `permutation(n)`, one a row."""
        return np.argsort(self.uniforms(n), axis=-1, kind="stable")
