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
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError
from .rng import SeededRng

FORMAT_VERSION = 1
PROTOTYPE_MAX_COSINE = 0.3

DISTRACTOR_MODES = ("pure_noise", "decoy_prototypes")


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
    """Deterministic example factory for one (spec, seed) dataset."""

    def __init__(self, spec: NeedleSpec, seed: int):
        self.spec = spec
        self.seed = seed
        root = SeededRng(seed)
        self.prototypes = make_prototypes(root.split(1), spec.num_classes, spec.d)
        self.textual_prototypes = (make_prototypes(root.split(2), spec.num_classes, spec.d)
                                   if spec.multimodal else None)

    def _fill_channel(self, rng: SeededRng, label_proto: np.ndarray, info_idx: np.ndarray,
                      prototypes: np.ndarray, label: int) -> np.ndarray:
        spec = self.spec
        tokens = np.empty((spec.n, spec.d))
        if spec.distractor_mode == "pure_noise":
            tokens[:] = rng.normals(spec.n * spec.d).reshape(spec.n, spec.d)
        else:
            others = np.array([c for c in range(spec.num_classes) if c != label])
            picks = np.minimum((rng.uniforms(spec.n) * others.size).astype(np.int64),
                               others.size - 1)
            noise = rng.normals(spec.n * spec.d, 0.0, spec.noise_std).reshape(spec.n, spec.d)
            tokens[:] = spec.decoy_scale * prototypes[others[picks]] + noise
        tokens[info_idx] = label_proto + rng.normals(
            info_idx.size * spec.d, 0.0, spec.noise_std).reshape(info_idx.size, spec.d)
        return tokens

    def example(self, example_id: int, label: int | None = None) -> Example:
        spec = self.spec
        rng = SeededRng(self.seed).split(3, example_id)
        if label is None:
            label = rng.split(0).integer(spec.num_classes)
        slots = rng.split(1).permutation(spec.n)
        info_v = np.sort(slots[: spec.num_informative])

        if not spec.multimodal:
            tokens = self._fill_channel(rng.split(2), self.prototypes[label], info_v,
                                        self.prototypes, label)
            return Example(example_id, tokens, label, info_v)

        info_w = np.sort(slots[spec.num_informative:
                               spec.num_informative + spec.textual_informative])
        visual_class = label // 2
        textual_class = label % 2
        tokens = self._fill_channel(rng.split(2), self.prototypes[visual_class], info_v,
                                    self.prototypes, visual_class)
        textual = self._fill_channel(rng.split(3), self.textual_prototypes[textual_class],
                                     info_w, self.textual_prototypes, textual_class)
        return Example(example_id, tokens, label, info_v, textual, info_w)


def generate_dataset(spec: NeedleSpec, count: int, seed: int) -> list[Example]:
    """count examples with stratified labels (balanced within one example)."""
    gen = NeedleGenerator(spec, seed)
    order = SeededRng(seed).split(4).permutation(count)
    labels = np.empty(count, dtype=np.int64)
    labels[order] = np.arange(count) % spec.num_classes
    return [gen.example(i, int(labels[i])) for i in range(count)]


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


def _check_indices(raw, n: int, line_no: int, fieldname: str) -> np.ndarray:
    idx = np.asarray(raw, dtype=np.int64)
    if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= n):
        raise SchemaError(f"line {line_no}: {fieldname} must be sorted, unique, in [0, {n})")
    return idx


def _check_matrix(raw, n: int, d: int, line_no: int, fieldname: str) -> np.ndarray:
    m = np.asarray(raw, dtype=np.float64)
    if m.shape != (n, d):
        raise SchemaError(f"line {line_no}: {fieldname} shape {m.shape} does not match "
                          f"header (n={n}, d={d})")
    if not np.isfinite(m).all():
        raise SchemaError(f"line {line_no}: {fieldname} holds a non-finite value")
    return m


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


def _parse_dataset(path: str) -> tuple[list[Example], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("line 1: missing header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ParseError(f"line 1: {e}") from None
    for key in ("format_version", "n", "d", "num_classes", "multimodal", "seed"):
        if key not in header:
            raise SchemaError(f"line 1: header missing {key!r}")
    if header["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"line 1: unsupported format_version {header['format_version']}")
    n, d, c = header["n"], header["d"], header["num_classes"]
    multimodal = bool(header["multimodal"])

    examples: list[Example] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {line_no}: {e}") from None
        for key in ("id", "label", "informative_indices", "tokens"):
            if key not in rec:
                raise SchemaError(f"line {line_no}: record missing {key!r}")
        if not 0 <= rec["label"] < c:
            raise SchemaError(f"line {line_no}: label {rec['label']} out of range")
        info = _check_indices(rec["informative_indices"], n, line_no, "informative_indices")
        tokens = _check_matrix(rec["tokens"], n, d, line_no, "tokens")
        textual = textual_info = None
        if multimodal:
            for key in ("textual_informative_indices", "textual_tokens"):
                if key not in rec:
                    raise SchemaError(f"line {line_no}: multimodal record missing {key!r}")
            textual_info = _check_indices(rec["textual_informative_indices"], n, line_no,
                                          "textual_informative_indices")
            textual = _check_matrix(rec["textual_tokens"], n, d, line_no, "textual_tokens")
        examples.append(Example(int(rec["id"]), tokens, int(rec["label"]), info,
                                textual, textual_info))
    return examples, header
