"""Synthetic "needle" dataset: sequences whose label is recoverable only from
a few planted informative tokens, so selection quality is directly measurable.

Informative tokens carry a class prototype plus noise; distractors are either
pure noise or scaled decoy prototypes of wrong classes (the trap that makes
noise-free top-K selection latch onto local optima). In multimodal mode the
class signal is split across channels: the visual stream encodes label // 2
and the textual stream label % 2 at disjoint indices, so neither channel
alone can beat 50% accuracy while both together determine the label.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError
from .rng import SeededRng, SeededStreams

FORMAT_VERSION = 1
PROTOTYPE_MAX_COSINE = 0.3

DISTRACTOR_MODES = ("pure_noise", "decoy_prototypes")
# random values in one array draw of NeedleGenerator; bounds a chunk's memory
_CHUNK_VALUES = 1 << 16


@dataclass
class NeedleSpec:
    n: int = 32
    d: int = 16
    num_informative: int = 3
    num_classes: int = 4
    noise_std: float = 0.5
    distractor_mode: str = "pure_noise"
    decoy_scale: float = 0.3
    multimodal: bool = False
    textual_informative: int = 2

    def __post_init__(self):
        if self.num_classes < 2:
            raise SchemaError("need at least two classes")
        if self.distractor_mode not in DISTRACTOR_MODES:
            raise SchemaError(f"unknown distractor mode {self.distractor_mode!r}")
        planted = self.num_informative + (self.textual_informative if self.multimodal else 0)
        if planted > self.n:
            raise SchemaError("more informative tokens than sequence positions")
        if self.multimodal and self.num_classes % 2 != 0:
            raise SchemaError("multimodal signal splitting needs an even class count")


@dataclass
class Example:
    id: int
    tokens: np.ndarray                    # [n, d]
    label: int
    informative_indices: np.ndarray       # sorted, unique
    textual_tokens: np.ndarray | None = None
    textual_informative_indices: np.ndarray | None = None


def make_prototypes(rng: SeededRng, num_classes: int, d: int,
                    max_cosine: float = PROTOTYPE_MAX_COSINE) -> np.ndarray:
    """Unit-norm class prototypes with pairwise cosine <= max_cosine.

    Redrawn as a whole until separated; deterministic given the stream.
    """
    while True:
        p = rng.normals(num_classes * d).reshape(num_classes, d)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        cos = p @ p.T
        if cos[~np.eye(num_classes, dtype=bool)].max() <= max_cosine:
            return p


class NeedleGenerator:
    """Deterministic example factory for one (spec, seed) dataset.

    Example i draws only from its own stream SeededRng(seed).split(3, i), so
    it is the same whichever examples are made with it. `examples` draws a
    bounded chunk of examples at a time, each quantity as one
    [examples, draws] array of those streams.
    """

    def __init__(self, spec: NeedleSpec, seed: int):
        self.spec = spec
        self.seed = seed
        root = SeededRng(seed)
        self.prototypes = make_prototypes(root.split(1), spec.num_classes, spec.d)
        self.textual_prototypes = (make_prototypes(root.split(2), spec.num_classes, spec.d)
                                   if spec.multimodal else None)
        self.chunk_size = max(1, _CHUNK_VALUES // (spec.n * spec.d))

    def _fill_channel(self, streams: SeededStreams, classes: np.ndarray,
                      info_idx: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
        """[examples, n, d] tokens of one channel; example s encodes classes[s]
        at the positions info_idx[s]."""
        spec = self.spec
        shape = (len(streams), spec.n, spec.d)
        if spec.distractor_mode == "pure_noise":
            tokens = streams.normals(spec.n * spec.d).reshape(shape)
        else:
            wrong = spec.num_classes - 1
            picks = np.minimum((streams.uniforms(spec.n) * wrong).astype(np.int64), wrong - 1)
            picks += picks >= classes[:, None]  # the wrong classes in order, skipping classes[s]
            noise = streams.normals(spec.n * spec.d, 0.0, spec.noise_std).reshape(shape)
            tokens = spec.decoy_scale * prototypes[picks] + noise
        k = info_idx.shape[1]
        needles = streams.normals(k * spec.d, 0.0, spec.noise_std).reshape(len(streams), k, spec.d)
        tokens[np.arange(len(streams))[:, None], info_idx] = prototypes[classes][:, None] + needles
        return tokens

    def _chunk(self, ids: np.ndarray, labels: np.ndarray | None) -> list[Example]:
        spec = self.spec
        streams = SeededRng(self.seed).streams(3, ids)
        if labels is None:
            labels = streams.split(0).integers(spec.num_classes)
        slots = streams.split(1).permutations(spec.n)
        info_v = np.sort(slots[:, :spec.num_informative], axis=1)

        if not spec.multimodal:
            tokens = self._fill_channel(streams.split(2), labels, info_v, self.prototypes)
            return [Example(int(i), t, int(c), v)
                    for i, t, c, v in zip(ids, tokens, labels, info_v)]

        info_w = np.sort(slots[:, spec.num_informative:
                               spec.num_informative + spec.textual_informative], axis=1)
        tokens = self._fill_channel(streams.split(2), labels // 2, info_v, self.prototypes)
        textual = self._fill_channel(streams.split(3), labels % 2, info_w,
                                     self.textual_prototypes)
        return [Example(int(i), t, int(c), v, tt, w)
                for i, t, c, v, tt, w in zip(ids, tokens, labels, info_v, textual, info_w)]

    def examples(self, ids, labels=None) -> list[Example]:
        """The examples with the given ids; labels=None lets each draw its own."""
        ids = np.asarray(ids, dtype=np.int64)
        labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        out: list[Example] = []
        for at in range(0, len(ids), self.chunk_size):
            part = slice(at, at + self.chunk_size)
            out += self._chunk(ids[part], None if labels is None else labels[part])
        return out

    def example(self, example_id: int, label: int | None = None) -> Example:
        return self.examples([example_id], None if label is None else [label])[0]


def generate_dataset(spec: NeedleSpec, count: int, seed: int) -> list[Example]:
    """count examples with stratified labels (balanced within one example)."""
    order = SeededRng(seed).split(4).permutation(count)
    labels = np.empty(count, dtype=np.int64)
    labels[order] = np.arange(count) % spec.num_classes
    return NeedleGenerator(spec, seed).examples(np.arange(count), labels)


def nearest_prototype_oracle(example: Example, prototypes: np.ndarray) -> int:
    """Label the mean informative token by its nearest prototype (test oracle)."""
    mean = example.tokens[example.informative_indices].mean(axis=0)
    return int(np.argmax(prototypes @ mean))


# ---------------------------------------------------------------------------
# line-delimited decimal serialization (JSON records, 17 significant digits)

@functools.lru_cache(maxsize=8)
def _matrix_template(rows: int, cols: int) -> str:
    """printf template of a [rows, cols] matrix in JSON, one "%.17g" a value."""
    row = "[" + ",".join(["%.17g"] * cols) + "]"
    return "[" + ",".join([row] * rows) + "]"


def _fmt_matrix(m: np.ndarray) -> str:
    """JSON text of a 2-D float matrix, every value as format(x, ".17g")."""
    return _matrix_template(*m.shape) % tuple(m.ravel().tolist())


def _fmt_indices(idx: np.ndarray) -> str:
    return "[" + ",".join(str(int(i)) for i in idx) + "]"


def write_dataset(examples: list[Example], path: str, spec: NeedleSpec, seed: int) -> None:
    header = {"format_version": FORMAT_VERSION, "n": spec.n, "d": spec.d,
              "num_classes": spec.num_classes, "multimodal": spec.multimodal,
              "seed": seed}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for ex in examples:
            parts = [f'"id":{ex.id}', f'"label":{ex.label}',
                     f'"informative_indices":{_fmt_indices(ex.informative_indices)}',
                     f'"tokens":{_fmt_matrix(ex.tokens)}']
            if spec.multimodal:
                parts.append('"textual_informative_indices":'
                             f"{_fmt_indices(ex.textual_informative_indices)}")
                parts.append(f'"textual_tokens":{_fmt_matrix(ex.textual_tokens)}')
            fh.write("{" + ",".join(parts) + "}\n")


_NUMBER_TYPES = frozenset((float, int))  # type(True) is bool, so booleans are left out


def _json_int(value, line_no: int, fieldname: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"line {line_no}: {fieldname} must be a JSON integer, got {value!r}")
    return value


def _index_list(raw, line_no: int, fieldname: str) -> list:
    if type(raw) is not list or not set(map(type, raw)) <= {int}:
        raise SchemaError(f"line {line_no}: {fieldname} must be a list of JSON integers")
    return raw


def _fill_matrix(out: np.ndarray, raw, line_no: int, fieldname: str) -> None:
    """Copy a JSON [n, d] matrix of numbers into out, whose shape is [n, d].
    The element types are collected in C, not checked one value at a time."""
    n, d = out.shape
    try:
        kinds = set(map(type, itertools.chain.from_iterable(raw)))
        shaped = type(raw) is list and len(raw) == n and set(map(len, raw)) <= {d}
    except TypeError:  # raw, or one of its rows, is a number
        kinds, shaped = set(), False
    if not kinds <= _NUMBER_TYPES:
        raise SchemaError(f"line {line_no}: {fieldname} must hold JSON numbers only")
    if not shaped:
        raise SchemaError(f"line {line_no}: {fieldname} is not an [n, d] matrix with the "
                          f"header's (n={n}, d={d})")
    try:
        out[...] = raw
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"line {line_no}: {fieldname} holds a non-finite value") from None


_LOAD_CACHE: dict = {}


def load_dataset(path: str) -> tuple[list[Example], dict]:
    """Parse a dataset file; returns (examples, header).

    Parsed files are cached by (path, mtime, size) since sweeps reload the
    same dataset once per cell; treat the returned examples as read-only.
    """
    stat = os.stat(path)
    key = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
    hit = _LOAD_CACHE.get(key)
    if hit is not None:
        return list(hit[0]), dict(hit[1])
    examples, header = _parse_dataset(path)
    _LOAD_CACHE.clear()  # hold at most one dataset; they are large
    _LOAD_CACHE[key] = (examples, header)
    return list(examples), dict(header)


def _header_field(header: dict, key: str, kind: type) -> None:
    value = header[key]
    if type(value) is not kind or (kind is int and value <= 0):
        want = "a positive JSON integer" if kind is int else "a JSON boolean"
        raise SchemaError(f"line 1: header {key!r} must be {want}, got {value!r}")


def _parse_dataset(path: str) -> tuple[list[Example], dict]:
    """Two passes over the file, one line at a time: the first counts the
    records, the second parses each into preallocated arrays. The index and
    finiteness checks then run once over the whole file."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError("line 1: missing header")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ParseError(f"line 1: {e}") from None
        if type(header) is not dict:
            raise SchemaError("line 1: header is not a JSON object")
        for key in ("format_version", "n", "d", "num_classes", "multimodal", "seed"):
            if key not in header:
                raise SchemaError(f"line 1: header missing {key!r}")
        if header["format_version"] != FORMAT_VERSION:
            raise SchemaError(f"line 1: unsupported format_version {header['format_version']}")
        for key in ("n", "d", "num_classes"):
            _header_field(header, key, int)
        _header_field(header, "multimodal", bool)
        n, d, c = header["n"], header["d"], header["num_classes"]
        multimodal = header["multimodal"]

        count = sum(1 for line in fh if line.strip())
        fh.seek(0)
        fh.readline()
        channels = 2 if multimodal else 1
        tokens = np.empty((channels, count, n, d))
        ids, labels = [], []
        line_nos = np.empty(count, dtype=np.int64)
        indices: list[list] = [[] for _ in range(channels)]
        lengths = np.empty((channels, count), dtype=np.int64)
        index_fields = ("informative_indices", "textual_informative_indices")[:channels]
        token_fields = ("tokens", "textual_tokens")[:channels]
        i = 0
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"line {line_no}: {e}") from None
            if type(rec) is not dict:
                raise SchemaError(f"line {line_no}: record is not a JSON object")
            for key in ("id", "label") + index_fields + token_fields:
                if key not in rec:
                    kind = "multimodal record" if key.startswith("textual") else "record"
                    raise SchemaError(f"line {line_no}: {kind} missing {key!r}")
            ids.append(_json_int(rec["id"], line_no, "id"))
            labels.append(_json_int(rec["label"], line_no, "label"))
            if not 0 <= labels[-1] < c:
                raise SchemaError(f"line {line_no}: label {labels[-1]} out of range")
            line_nos[i] = line_no
            for ch in range(channels):
                raw = _index_list(rec[index_fields[ch]], line_no, index_fields[ch])
                indices[ch] += raw
                lengths[ch, i] = len(raw)
                _fill_matrix(tokens[ch, i], rec[token_fields[ch]], line_no, token_fields[ch])
            i += 1

    problems = []  # (line, message) of each failed file-wide check

    def check(bad: np.ndarray, lines: np.ndarray, message: str) -> None:
        if bad.any():
            problems.append((int(lines[np.argmax(bad)]), message))

    infos = []
    for ch in range(channels):
        check(~np.isfinite(tokens[ch]).all(axis=(1, 2)), line_nos,
              f"{token_fields[ch]} holds a non-finite value")
        try:
            idx = np.array(indices[ch], dtype=np.int64)
        except OverflowError:  # beyond int64 is out of range too; clip to keep it so
            idx = np.array([min(max(v, -1), n) for v in indices[ch]], dtype=np.int64)
        starts = np.cumsum(lengths[ch]) - lengths[ch]
        rises = np.diff(idx, prepend=-1) > 0
        rises[starts[lengths[ch] > 0]] = True  # each record's first index starts afresh
        check((idx < 0) | (idx >= n) | ~rises, np.repeat(line_nos, lengths[ch]),
              f"{index_fields[ch]} must be sorted, unique, in [0, {n})")
        infos.append(np.split(idx, starts[1:]))
    if problems:
        line_no, message = min(problems)
        raise SchemaError(f"line {line_no}: {message}")

    textual, textual_info = (tokens[1], infos[1]) if multimodal else ([None] * count,) * 2
    examples = [Example(e, t, y, v, tt, w) for e, t, y, v, tt, w
                in zip(ids, tokens[0], labels, infos[0], textual, textual_info)]
    return examples, header
