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

import base64
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParseError, SchemaError
from .rng import SeededRng, SeededStreams

FORMAT_VERSION = 2
PROTOTYPE_MAX_COSINE = 0.3
# prototype draws before make_prototypes gives up: about 90x the most that a
# separable spec took over 16 seeds (1,108: 10 classes in d=16), and about
# 0.2 s of block draws at 8 classes in d=2
PROTOTYPE_DRAWS = 100_000

DISTRACTOR_MODES = ("pure_noise", "decoy_prototypes")
# the (token field, informative-index field) of each stream of an Example,
# visual first; a unimodal dataset holds only the first
STREAMS = (("tokens", "informative_indices"),
           ("textual_tokens", "textual_informative_indices"))
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
        for name, least in (("n", 1), ("d", 1), ("num_informative", 1),
                            ("textual_informative", 0), ("num_classes", 2)):
            if getattr(self, name) < least:
                raise SchemaError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name, value in (("noise_std", self.noise_std), ("decoy_scale", self.decoy_scale)):
            if not 0 <= value < math.inf:
                raise SchemaError(f"{name} must be finite and at least 0, got {value}")
        if self.distractor_mode not in DISTRACTOR_MODES:
            raise SchemaError(f"unknown distractor mode {self.distractor_mode!r}")
        planted = self.num_informative + (self.textual_informative if self.multimodal else 0)
        if planted > self.n:
            raise SchemaError("more informative tokens than sequence positions")
        if self.multimodal and self.num_classes % 2 != 0:
            raise SchemaError("multimodal signal splitting needs an even class count")


@dataclass(frozen=True)
class Example:
    id: int
    tokens: np.ndarray                    # [n, d]
    label: int
    informative_indices: np.ndarray       # sorted, unique
    textual_tokens: np.ndarray | None = None
    textual_informative_indices: np.ndarray | None = None


def make_prototypes(rng: SeededRng, num_classes: int, d: int) -> np.ndarray:
    """Unit-norm class prototypes with pairwise cosine <= PROTOTYPE_MAX_COSINE.

    The first separated set among the stream's successive
    normals(num_classes * d) draws; deterministic given the stream. Draws are
    made in growing blocks, so the stream is left past the returned draw.
    Raises SchemaError when none of PROTOTYPE_DRAWS draws is separated.
    """
    off_diagonal = ~np.eye(num_classes, dtype=bool)
    most = max(1, _CHUNK_VALUES // (num_classes * d))
    drawn, block = 0, 1
    while drawn < PROTOTYPE_DRAWS:
        block = min(block, PROTOTYPE_DRAWS - drawn)
        p = rng.normal_rows(block, num_classes * d).reshape(block, num_classes, d)
        p /= np.linalg.norm(p, axis=2, keepdims=True)
        separated = (p @ p.transpose(0, 2, 1))[:, off_diagonal].max(axis=1) <= PROTOTYPE_MAX_COSINE
        if separated.any():
            return p[np.argmax(separated)]
        drawn += block
        block = min(2 * block, most)
    raise SchemaError(f"no {num_classes} class prototypes in d={d} have pairwise cosine "
                      f"<= {PROTOTYPE_MAX_COSINE} in {PROTOTYPE_DRAWS} draws; use fewer classes "
                      "or a larger d")


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
    if count < 0:
        raise SchemaError(f"count must not be negative, got {count}")
    order = SeededRng(seed).split(4).permutation(count)
    labels = np.empty(count, dtype=np.int64)
    labels[order] = np.arange(count) % spec.num_classes
    return NeedleGenerator(spec, seed).examples(np.arange(count), labels)


def nearest_prototype_oracle(example: Example, prototypes: np.ndarray) -> int:
    """Label the mean informative token by its nearest prototype (test oracle)."""
    mean = example.tokens[example.informative_indices].mean(axis=0)
    return int(np.argmax(prototypes @ mean))


# ---------------------------------------------------------------------------
# JSON Lines: a header, then one record per example whose token matrices are
# base64 strings of their little-endian float64 values, row-major

def _fmt_indices(idx: np.ndarray) -> str:
    return "[" + ",".join(str(int(i)) for i in idx) + "]"


def _b64_matrix(m: np.ndarray) -> str:
    return base64.b64encode(m.astype("<f8", copy=False).tobytes()).decode("ascii")


def _check_examples(examples: list[Example], spec: NeedleSpec) -> None:
    shape = (spec.n, spec.d)
    for ex in examples:
        for field, index_field in STREAMS[:2 if spec.multimodal else 1]:
            tokens = getattr(ex, field)
            if tokens is None or getattr(ex, index_field) is None:
                raise SchemaError(f"example {ex.id} has no {field.replace('_', ' ')} "
                                  "for a multimodal spec")
            if tokens.shape != shape:
                raise SchemaError(f"example {ex.id}: {field} have shape {tokens.shape}, "
                                  f"not the spec's (n, d) = {shape}")


def write_dataset(examples: list[Example], path: str, spec: NeedleSpec, seed: int) -> None:
    """Write the examples of spec; raises SchemaError before writing anything
    when an example does not fit the spec."""
    _check_examples(examples, spec)
    header = {"format_version": FORMAT_VERSION, "n": spec.n, "d": spec.d,
              "num_classes": spec.num_classes, "multimodal": spec.multimodal,
              "seed": seed, "count": len(examples), **asdict(spec)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for ex in examples:
            parts = [f'"id":{ex.id}', f'"label":{ex.label}']
            for field, index_field in STREAMS[:2 if spec.multimodal else 1]:
                parts.append(f'"{index_field}":{_fmt_indices(getattr(ex, index_field))}')
                parts.append(f'"{field}":"{_b64_matrix(getattr(ex, field))}"')
            fh.write("{" + ",".join(parts) + "}\n")


def _json_int(value, line_no: int, fieldname: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"line {line_no}: {fieldname} must be a JSON integer, got {value!r}")
    return value


def _index_list(raw, line_no: int, fieldname: str) -> list:
    if type(raw) is not list or not set(map(type, raw)) <= {int}:
        raise SchemaError(f"line {line_no}: {fieldname} must be a list of JSON integers")
    return raw


def _fill_matrix(out: np.ndarray, raw, line_no: int, fieldname: str) -> None:
    """Decode a base64 string of out.size float64 values into out."""
    if type(raw) is not str:
        raise SchemaError(f"line {line_no}: {fieldname} is not a JSON string of base64 "
                          "float64 values")
    try:
        buf = base64.b64decode(raw, validate=True)
    except ValueError as e:  # binascii.Error, or a character beyond ASCII
        raise SchemaError(f"line {line_no}: {fieldname} is not valid base64: {e}") from None
    if len(buf) != out.nbytes:
        n, d = out.shape
        raise SchemaError(f"line {line_no}: {fieldname} holds {len(buf)} bytes, not the "
                          f"{out.nbytes} of an [n, d] float64 matrix with the header's "
                          f"(n={n}, d={d})")
    out[...] = np.frombuffer(buf, dtype="<f8").reshape(out.shape)


_LOAD_CACHE: dict = {}


def load_dataset(path: str) -> tuple[list[Example], dict]:
    """Parse a dataset file; returns (examples, header).

    Parsed files are cached by (path, mtime, size) since sweeps reload the
    same dataset once per cell, so every load of a file shares its examples:
    they are frozen, and their arrays read-only.
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


def _header_field(header: dict, key: str, kind: type, least: int = 1) -> None:
    value = header[key]
    if type(value) is not kind or (kind is int and value < least):
        want = ("a JSON boolean" if kind is bool else
                "a positive JSON integer" if least else "a non-negative JSON integer")
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
        version = header.get("format_version")
        if version == 1:
            raise SchemaError("line 1: format_version 1 (decimal tokens) is no longer read; "
                              "regenerate the file with `sparsetok gen-data`")
        for key in ("format_version", "n", "d", "num_classes", "multimodal", "seed", "count"):
            if key not in header:
                raise SchemaError(f"line 1: header missing {key!r}")
        if version != FORMAT_VERSION:
            raise SchemaError(f"line 1: unsupported format_version {version}")
        for key in ("n", "d", "num_classes"):
            _header_field(header, key, int)
        _header_field(header, "multimodal", bool)
        _header_field(header, "count", int, least=0)
        n, d, c = header["n"], header["d"], header["num_classes"]
        token_fields, index_fields = zip(*STREAMS[:2 if header["multimodal"] else 1])

        count = sum(1 for line in fh if line.strip())
        if count != header["count"]:
            raise SchemaError(f"line 1: header 'count' is {header['count']}, but the file "
                              f"holds {count} records")
        fh.seek(0)
        fh.readline()
        channels = len(token_fields)
        tokens = np.empty((channels, count, n, d))
        ids, labels = [], []
        line_nos = np.empty(count, dtype=np.int64)
        indices: list[list] = [[] for _ in range(channels)]
        lengths = np.empty((channels, count), dtype=np.int64)
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
                    kind = "record" if key in ("id", "label") + STREAMS[0] else "multimodal record"
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

    # every load of the file shares the examples and the arrays they view
    # (`_LOAD_CACHE`), so the arrays are read-only
    tokens.flags.writeable = False
    infos = []
    for ch in range(channels):
        check(~np.isfinite(tokens[ch]).all(axis=(1, 2)), line_nos,
              f"{token_fields[ch]} holds a non-finite value")
        try:
            idx = np.array(indices[ch], dtype=np.int64)
        except OverflowError:  # beyond int64 is out of range too; clip to keep it so
            idx = np.array([min(max(v, -1), n) for v in indices[ch]], dtype=np.int64)
        idx.flags.writeable = False
        starts = np.cumsum(lengths[ch]) - lengths[ch]
        rises = np.diff(idx, prepend=-1) > 0
        rises[starts[lengths[ch] > 0]] = True  # each record's first index starts afresh
        check((idx < 0) | (idx >= n) | ~rises, np.repeat(line_nos, lengths[ch]),
              f"{index_fields[ch]} must be sorted, unique, in [0, {n})")
        infos.append(np.split(idx, starts[1:]))
    if problems:
        line_no, message = min(problems)
        raise SchemaError(f"line {line_no}: {message}")

    columns = {**dict(zip(token_fields, tokens)), **dict(zip(index_fields, infos))}
    examples = [Example(e, label=y, **{field: column[i] for field, column in columns.items()})
                for i, (e, y) in enumerate(zip(ids, labels))]
    return examples, header
