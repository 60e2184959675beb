import base64
import collections
import dataclasses
import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsetok.data as data_module
from sparsetok.data import (Example, NeedleGenerator, NeedleSpec, generate_dataset,
                            load_dataset, make_prototypes, nearest_prototype_oracle,
                            write_dataset)
from sparsetok.errors import ParseError, SchemaError
from sparsetok.rng import SeededRng


def test_generation_is_deterministic():
    spec = NeedleSpec()
    a = generate_dataset(spec, 20, seed=3)
    b = generate_dataset(spec, 20, seed=3)
    for ea, eb in zip(a, b):
        assert ea.label == eb.label
        assert np.array_equal(ea.tokens, eb.tokens)
        assert np.array_equal(ea.informative_indices, eb.informative_indices)


def test_prototype_separation():
    protos = make_prototypes(SeededRng(1).split(1), 4, 16)
    assert np.allclose(np.linalg.norm(protos, axis=1), 1.0)
    cos = protos @ protos.T
    assert cos[~np.eye(4, dtype=bool)].max() <= 0.3


def test_noiseless_informative_tokens_recover_label():
    spec = NeedleSpec(noise_std=0.0)
    gen = NeedleGenerator(spec, 5)
    for i in range(40):
        ex = gen.example(i)
        for idx in ex.informative_indices:
            # with distractors silenced, any informative token alone decides
            assert int(np.argmax(gen.prototypes @ ex.tokens[idx])) == ex.label


def test_oracle_ceiling_at_default_noise():
    spec = NeedleSpec()
    gen = NeedleGenerator(spec, 1)
    examples = generate_dataset(spec, 2000, seed=1)
    acc = np.mean([nearest_prototype_oracle(ex, gen.prototypes) == ex.label
                   for ex in examples])
    assert acc >= 0.97


def test_label_balance():
    examples = generate_dataset(NeedleSpec(), 2000, seed=9)
    counts = collections.Counter(ex.label for ex in examples)
    for c in range(4):
        assert abs(counts[c] / 2000 - 0.25) <= 0.05


def test_multimodal_channels_disjoint_and_split():
    spec = NeedleSpec(multimodal=True, noise_std=0.0)
    examples = generate_dataset(spec, 50, seed=2)
    gen = NeedleGenerator(spec, 2)
    for ex in examples:
        assert ex.textual_tokens is not None
        overlap = set(ex.informative_indices) & set(ex.textual_informative_indices)
        assert not overlap
        # visual channel encodes label // 2, textual label % 2
        v_mean = ex.tokens[ex.informative_indices].mean(axis=0)
        assert int(np.argmax(gen.prototypes[:2] @ v_mean)) == ex.label // 2
        t_mean = ex.textual_tokens[ex.textual_informative_indices].mean(axis=0)
        assert int(np.argmax(gen.textual_prototypes[:2] @ t_mean)) == ex.label % 2


def test_multimodal_channel_bits_recoverable_at_default_noise():
    spec = NeedleSpec(multimodal=True)
    examples = generate_dataset(spec, 400, seed=2)
    gen = NeedleGenerator(spec, 2)
    v_ok = t_ok = 0
    for ex in examples:
        v_mean = ex.tokens[ex.informative_indices].mean(axis=0)
        v_ok += int(np.argmax(gen.prototypes[:2] @ v_mean)) == ex.label // 2
        t_mean = ex.textual_tokens[ex.textual_informative_indices].mean(axis=0)
        t_ok += int(np.argmax(gen.textual_prototypes[:2] @ t_mean)) == ex.label % 2
    assert v_ok / 400 >= 0.9
    assert t_ok / 400 >= 0.9


def test_multimodal_needs_even_classes():
    with pytest.raises(SchemaError):
        NeedleSpec(multimodal=True, num_classes=3)


@pytest.mark.parametrize("field, value, least", [
    ("n", 0, 1), ("d", 0, 1), ("d", -3, 1), ("num_informative", -2, 1), ("num_informative", 0, 1),
    ("textual_informative", -1, 0)])
def test_sizes_it_cannot_build_are_rejected_by_name(field, value, least):
    """A spec holds at least one token, one dimension and one visual needle,
    and no negative count of textual needles; anything less is a
    SchemaError naming the field, before any draw."""
    with pytest.raises(SchemaError, match=f"^{field} must be at least {least}, got {value}$"):
        NeedleSpec(multimodal=True, **{field: value})


def test_negative_count_is_rejected():
    with pytest.raises(SchemaError, match="^count must not be negative, got -5$"):
        generate_dataset(NeedleSpec(), -5, 1)


def test_too_many_informative_rejected():
    with pytest.raises(SchemaError):
        NeedleSpec(n=4, num_informative=3, multimodal=True, textual_informative=2)


def loop_prototypes(rng: SeededRng, num_classes: int, d: int) -> np.ndarray:
    """make_prototypes one draw at a time, without a cap: the reference."""
    while True:
        p = rng.normals(num_classes * d).reshape(num_classes, d)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        cos = p @ p.T
        if cos[~np.eye(num_classes, dtype=bool)].max() <= 0.3:
            return p


# (classes, d): one draw, a few, and 677 and 1082 at seed 1 and labels 1 and 2
@pytest.mark.parametrize("num_classes, d", [(4, 16), (2, 1), (4, 2), (6, 6), (5, 5)])
def test_block_drawn_prototypes_match_the_loop(num_classes, d):
    for seed, label in itertools.product(range(4), (1, 2)):
        want = loop_prototypes(SeededRng(seed).split(label), num_classes, d)
        got = make_prototypes(SeededRng(seed).split(label), num_classes, d)
        assert got.tobytes() == want.tobytes(), (seed, label)


@pytest.mark.parametrize("num_classes, d", [(8, 2), (3, 1), (6, 2)])
def test_prototypes_that_cannot_separate_are_refused(num_classes, d):
    message = (f"no {num_classes} class prototypes in d={d} have pairwise cosine <= 0.3 "
               f"in {data_module.PROTOTYPE_DRAWS} draws")
    with pytest.raises(SchemaError, match=re.escape(message)):
        make_prototypes(SeededRng(1).split(1), num_classes, d)


def test_gen_data_refuses_inseparable_prototypes_in_bounded_time(tmp_path):
    src = os.path.dirname(os.path.dirname(data_module.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "sparsetok.cli", "gen-data", "--out",
                           str(tmp_path / "d.jsonl"), "--d", "2", "--classes", "8",
                           "--count", "4"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 1
    assert "no 8 class prototypes in d=2 have pairwise cosine <= 0.3" in proc.stderr
    assert not (tmp_path / "d.jsonl").exists()


class PerExampleGenerator:
    """The needle generator written one example and one stream call at a time:
    the reference that the chunked NeedleGenerator must reproduce bit for bit."""

    def __init__(self, spec: NeedleSpec, seed: int):
        self.spec = spec
        self.seed = seed
        root = SeededRng(seed)
        self.prototypes = make_prototypes(root.split(1), spec.num_classes, spec.d)
        self.textual_prototypes = (make_prototypes(root.split(2), spec.num_classes, spec.d)
                                   if spec.multimodal else None)

    def _fill_channel(self, rng, label_proto, info_idx, prototypes, label):
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

    def example(self, example_id, label=None):
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
        tokens = self._fill_channel(rng.split(2), self.prototypes[label // 2], info_v,
                                    self.prototypes, label // 2)
        textual = self._fill_channel(rng.split(3), self.textual_prototypes[label % 2],
                                     info_w, self.textual_prototypes, label % 2)
        return Example(example_id, tokens, label, info_v, textual, info_w)

    def dataset(self, count):
        order = SeededRng(self.seed).split(4).permutation(count)
        labels = np.empty(count, dtype=np.int64)
        labels[order] = np.arange(count) % self.spec.num_classes
        return [self.example(i, int(labels[i])) for i in range(count)]


_IDENTITY_SPECS = {
    "pure_noise": NeedleSpec(),
    "decoy": NeedleSpec(distractor_mode="decoy_prototypes"),
    "multimodal_pure_noise": NeedleSpec(multimodal=True),
    "multimodal_decoy": NeedleSpec(multimodal=True, distractor_mode="decoy_prototypes"),
    "odd_nd": NeedleSpec(n=7, d=5, num_informative=2, num_classes=6, multimodal=True,
                         textual_informative=3, distractor_mode="decoy_prototypes"),
    "odd_nd_pure_noise": NeedleSpec(n=9, d=3, num_informative=1, num_classes=3),
}


@pytest.mark.parametrize("chunk_values", [None, 100])  # the default, and chunks of a few
@pytest.mark.parametrize("seed", [1, 2, 77])
@pytest.mark.parametrize("name", sorted(_IDENTITY_SPECS))
def test_written_datasets_match_the_per_example_generator(tmp_path, monkeypatch, name, seed,
                                                          chunk_values):
    if chunk_values is not None:
        monkeypatch.setattr(data_module, "_CHUNK_VALUES", chunk_values)
    spec = _IDENTITY_SPECS[name]
    reference = PerExampleGenerator(spec, seed)
    paths = [tmp_path / "chunked.jsonl", tmp_path / "reference.jsonl"]
    write_dataset(generate_dataset(spec, 37, seed), str(paths[0]), spec, seed)
    write_dataset(reference.dataset(37), str(paths[1]), spec, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # examples that draw their own labels
    gen = NeedleGenerator(spec, seed)
    ids = [0, 1, 5, 36, 1000, 2**40]
    write_dataset([gen.example(i) for i in ids], str(paths[0]), spec, seed)
    write_dataset([reference.example(i) for i in ids], str(paths[1]), spec, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    write_dataset(gen.examples(ids), str(paths[0]), spec, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def b64(rows) -> str:
    """A token matrix as a version-2 record writes it: a JSON string of base64
    little-endian float64 values."""
    return '"' + base64.b64encode(np.array(rows, dtype="<f8").tobytes()).decode() + '"'


GOOD_TOKENS = b64([[1, 1], [2, 2], [3, 3], [4, 4]])

_EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
_file_names = itertools.count()


class TestRoundTrip:
    def test_exact_field_round_trip(self, tmp_path):
        spec = NeedleSpec(multimodal=True, distractor_mode="decoy_prototypes", noise_std=0.25)
        examples = generate_dataset(spec, 10, seed=7)
        path = tmp_path / "data.jsonl"
        write_dataset(examples, str(path), spec, 7)
        back, header = load_dataset(str(path))
        assert header == {"format_version": 2, "n": 32, "d": 16, "num_classes": 4,
                          "multimodal": True, "seed": 7, "count": 10, "num_informative": 3,
                          "noise_std": 0.25, "distractor_mode": "decoy_prototypes",
                          "decoy_scale": 0.3, "textual_informative": 2}
        assert len(back) == 10
        for a, b in zip(examples, back):
            assert a.id == b.id and a.label == b.label
            assert a.tokens.tobytes() == b.tokens.tobytes()
            assert a.textual_tokens.tobytes() == b.textual_tokens.tobytes()
            assert np.array_equal(a.informative_indices, b.informative_indices)
            assert np.array_equal(a.textual_informative_indices,
                                  b.textual_informative_indices)

    @pytest.mark.parametrize("seed", [1, 2, 77])
    @pytest.mark.parametrize("name", ["pure_noise", "multimodal_decoy"])
    def test_loaded_tokens_are_the_generated_bytes(self, tmp_path, name, seed):
        spec = _IDENTITY_SPECS[name]
        examples = generate_dataset(spec, 37, seed)
        path = tmp_path / "data.jsonl"
        write_dataset(examples, str(path), spec, seed)
        back, _ = load_dataset(str(path))
        for a, b in zip(examples, back, strict=True):
            assert a.tokens.tobytes() == b.tokens.tobytes()
            if spec.multimodal:
                assert a.textual_tokens.tobytes() == b.textual_tokens.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_finite_matrices_round_trip_bit_for_bit(self, tmp_path_factory, rows, cols, draw):
        values = draw.draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                              st.sampled_from(_EXTREME_FLOATS)),
                                    min_size=2 * rows * cols, max_size=2 * rows * cols))
        m = np.array(values, dtype=np.float64).reshape(2, rows, cols)
        spec = NeedleSpec(n=rows, d=cols, num_informative=1, textual_informative=0,
                          multimodal=True)
        ex = Example(3, m[0], 1, np.array([0]), m[1], np.array([], dtype=np.int64))
        path = str(tmp_path_factory.getbasetemp() / f"round_trip_{next(_file_names)}.jsonl")
        write_dataset([ex], path, spec, 1)
        (back,), _ = load_dataset(path)
        assert back.tokens.tobytes() == m[0].tobytes()
        assert back.textual_tokens.tobytes() == m[1].tobytes()

    def test_write_is_byte_deterministic(self, tmp_path):
        spec = NeedleSpec()
        examples = generate_dataset(spec, 5, seed=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(examples, str(p1), spec, 3)
        write_dataset(examples, str(p2), spec, 3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_examples_cannot_be_written(self, tmp_path):
        """Every load of a file shares one parse, so a write to a loaded
        example is refused and a reload still returns the file's values."""
        spec = NeedleSpec(n=6, d=3, multimodal=True)
        path = str(tmp_path / "data.jsonl")
        examples = generate_dataset(spec, 4, seed=2)
        write_dataset(examples, path, spec, 2)
        first, _ = load_dataset(path)
        with pytest.raises(ValueError, match="read-only"):
            first[0].tokens[0, 0] = 99.0
        for field in ("textual_tokens", "informative_indices", "textual_informative_indices"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(first[0], field)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            first[1].label = 3
        again, _ = load_dataset(path)
        for a, b in zip(again, examples, strict=True):
            assert a.label == b.label
            assert a.tokens.tobytes() == b.tokens.tobytes()
            assert a.textual_tokens.tobytes() == b.textual_tokens.tobytes()

    def test_empty_dataset_with_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], str(path), NeedleSpec(), 1)
        examples, header = load_dataset(str(path))
        assert examples == []
        assert header["num_classes"] == 4 and header["count"] == 0

    def test_file_cut_at_a_line_boundary_is_refused(self, tmp_path):
        spec = NeedleSpec(n=8, d=4)
        path = tmp_path / "data.jsonl"
        write_dataset(generate_dataset(spec, 40, seed=1), str(path), spec, 1)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:25]), encoding="utf-8")
        with pytest.raises(SchemaError,
                           match="line 1: header 'count' is 40, but the file holds 24 records"):
            load_dataset(str(path))


class TestWriterChecks:
    def test_token_shape_other_than_the_spec_is_refused(self, tmp_path):
        examples = generate_dataset(NeedleSpec(), 3, seed=1)
        path = tmp_path / "d.jsonl"
        with pytest.raises(SchemaError, match=re.escape(
                "example 0: tokens have shape (32, 16), not the spec's (n, d) = (8, 16)")):
            write_dataset(examples, str(path), NeedleSpec(n=8), 1)
        assert not path.exists()

    def test_multimodal_spec_needs_textual_tokens(self, tmp_path):
        examples = generate_dataset(NeedleSpec(), 3, seed=1)
        path = tmp_path / "d.jsonl"
        with pytest.raises(SchemaError,
                           match="example 0 has no textual tokens for a multimodal spec"):
            write_dataset(examples, str(path), NeedleSpec(multimodal=True), 1)
        assert not path.exists()

    def test_textual_token_shape_other_than_the_spec_is_refused(self, tmp_path):
        spec = NeedleSpec(multimodal=True)
        examples = generate_dataset(spec, 3, seed=1)
        examples[2] = dataclasses.replace(examples[2],
                                          textual_tokens=examples[2].textual_tokens[:, :4])
        path = tmp_path / "d.jsonl"
        with pytest.raises(SchemaError, match=re.escape(
                "example 2: textual_tokens have shape (32, 4), not the spec's (n, d)")):
            write_dataset(examples, str(path), spec, 1)
        assert not path.exists()


class TestSchemaValidation:
    def header_line(self, count=1):
        return ('{"format_version":2,"n":4,"d":2,"num_classes":2,'
                f'"multimodal":false,"seed":1,"count":{count}}}')

    def record(self, informative="[1,2]", tokens=GOOD_TOKENS, label=0):
        return f'{{"id":0,"label":{label},"informative_indices":{informative},"tokens":{tokens}}}'

    def write(self, tmp_path, *lines):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_unsorted_informative_rejected(self, tmp_path):
        path = self.write(tmp_path, self.header_line(), self.record(informative="[2,1]"))
        with pytest.raises(SchemaError, match="line 2"):
            load_dataset(path)

    def test_width_mismatch_rejected(self, tmp_path):
        path = self.write(tmp_path, self.header_line(),
                          self.record(tokens=b64([[1], [2], [3], [4]])))
        with pytest.raises(SchemaError, match="line 2: tokens holds 32 bytes, not the 64"):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = self.write(tmp_path, self.header_line(), self.record(label=5))
        with pytest.raises(SchemaError, match="line 2"):
            load_dataset(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = self.write(tmp_path, self.header_line(2), self.record(),
                          '{"id": 1, not json')
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_names_line(self, tmp_path, value):
        path = self.write(tmp_path, self.header_line(2), self.record(),
                          self.record(tokens=b64([[1, 1], [2, float(value)], [3, 3], [4, 4]])))
        with pytest.raises(SchemaError, match="line 3: tokens holds a non-finite value"):
            load_dataset(path)

    def test_missing_header_key(self, tmp_path):
        path = self.write(tmp_path, '{"format_version":2,"n":4}')
        with pytest.raises(SchemaError, match="header"):
            load_dataset(path)
        path = self.write(tmp_path, self.header_line().replace(',"count":1', ""))
        with pytest.raises(SchemaError, match="line 1: header missing 'count'"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value, message", [
        ("informative_indices", "[[0,1]]", "informative_indices must be a list of JSON integers"),
        ("informative_indices", "2", "informative_indices must be a list of JSON integers"),
        ("informative_indices", "[0.7,1.2]",
         "informative_indices must be a list of JSON integers"),
        ("informative_indices", "[true,2]", "informative_indices must be a list of JSON integers"),
        ("label", "1.5", "label must be a JSON integer"),
        ("label", "true", "label must be a JSON integer"),
        ("label", '"1"', "label must be a JSON integer"),
        ("id", '"x"', "id must be a JSON integer"),
        ("id", "false", "id must be a JSON integer"),
        # decimal matrices as format_version 1 wrote them, and other non-strings
        ("tokens", '[["1","1"],["2","2"],["3","3"],["4","4"]]', "tokens is not a JSON string"),
        ("tokens", "[[true,false],[1,1],[2,2],[3,3]]", "tokens is not a JSON string"),
        ("tokens", "[[1.5,true],[1,1],[2,2],[3,3]]", "tokens is not a JSON string"),
        ("tokens", "[[1,null],[1,1],[2,2],[3,3]]", "tokens is not a JSON string"),
        ("tokens", "[[1,1],[2],[3,3],[4,4]]", "tokens is not a JSON string"),
        ("tokens", "[[1,1]]", "tokens is not a JSON string"),
        ("tokens", "[1,1,1,1]", "tokens is not a JSON string"),
        ("tokens", "7", "tokens is not a JSON string"),
        ("tokens", "[[1e999,1],[2,2],[3,3],[4,4]]", "tokens is not a JSON string"),
        ("tokens", "[[1" + "0" * 400 + ",1],[2,2],[3,3],[4,4]]", "tokens is not a JSON string"),
        pytest.param("tokens", "null", "tokens is not a JSON string", id="tokens-null"),
        pytest.param("tokens", GOOD_TOKENS.replace("A", "*", 1), "tokens is not valid base64",
                     id="tokens-bad-alphabet"),
        pytest.param("tokens", GOOD_TOKENS.replace("A", "-", 1), "tokens is not valid base64",
                     id="tokens-urlsafe-alphabet"),
        pytest.param("tokens", '"' + GOOD_TOKENS[1:-1] + ' "', "tokens is not valid base64",
                     id="tokens-whitespace"),
        pytest.param("tokens", '"éAAA"', "tokens is not valid base64", id="tokens-non-ascii"),
        pytest.param("tokens", GOOD_TOKENS[:-2] + '"', "tokens is not valid base64",
                     id="tokens-missing-padding"),
        pytest.param("tokens", GOOD_TOKENS[:-1] + '=="', "tokens is not valid base64",
                     id="tokens-extra-padding"),
        pytest.param("tokens", b64([1, 1, 2, 2, 3, 3, 4]),
                     "tokens holds 56 bytes, not the 64 of an [n, d] float64 matrix",
                     id="tokens-8nd-8-bytes"),
        pytest.param("tokens", b64([1, 1, 2, 2, 3, 3, 4, 4, 5]),
                     "tokens holds 72 bytes, not the 64 of an [n, d] float64 matrix",
                     id="tokens-8nd+8-bytes"),
        pytest.param("tokens", '""', "tokens holds 0 bytes", id="tokens-empty"),
        ("informative_indices", "[1," + "9" * 30 + "]", "informative_indices must be sorted"),
    ])
    def test_mistyped_field_names_line_and_field(self, tmp_path, field, value, message):
        good = {"id": "0", "label": "0", "informative_indices": "[1,2]", "tokens": GOOD_TOKENS}
        bad = {**good, "id": "1", field: value}
        lines = ["{" + ",".join(f'"{k}":{v}' for k, v in rec.items()) + "}"
                 for rec in (good, bad)]
        path = self.write(tmp_path, self.header_line(2), *lines)
        with pytest.raises(SchemaError, match=f"line 3: {re.escape(message)}"):
            load_dataset(path)

    @pytest.mark.parametrize("bits", [0x7FF8000000000000, 0xFFF0000000000001,
                                      0x7FF0000000000000, 0xFFF0000000000000])
    def test_non_finite_bit_patterns_are_refused(self, tmp_path, bits):
        m = np.ones(8)
        m[5:6] = np.array([bits], dtype="<u8").view("<f8")
        path = self.write(tmp_path, self.header_line(),
                          self.record(tokens=b64(m.reshape(4, 2))))
        with pytest.raises(SchemaError, match="line 2: tokens holds a non-finite value"):
            load_dataset(path)

    def test_record_that_is_not_an_object(self, tmp_path):
        path = self.write(tmp_path, self.header_line(2), self.record(), "[1, 2]")
        with pytest.raises(SchemaError, match="line 3: record is not a JSON object"):
            load_dataset(path)

    def test_earliest_failing_line_is_named(self, tmp_path):
        nan_tokens = b64([[1, 1], [2, np.nan], [3, 3], [4, 4]])
        path = self.write(tmp_path, self.header_line(3), self.record(),
                          self.record(tokens=nan_tokens), self.record(informative="[2,2]"))
        with pytest.raises(SchemaError, match="line 3: tokens holds a non-finite value"):
            load_dataset(path)
        path = self.write(tmp_path, self.header_line(3), self.record(),
                          self.record(informative="[3,1]"), self.record(tokens=nan_tokens))
        with pytest.raises(SchemaError, match="line 3: informative_indices must be sorted"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("n", '"4"'), ("n", "0"), ("n", "-4"), ("n", "4.0"), ("d", "true"), ("d", "null"),
        ("num_classes", '"2"'), ("num_classes", "0"), ("multimodal", "0"),
        ("multimodal", '"false"'), ("multimodal", "null"), ("count", "-1"), ("count", "1.0"),
        ("count", "true"),
    ])
    def test_mistyped_header_field_is_rejected(self, tmp_path, field, value):
        header = re.sub(f'"{field}":[^,}}]+', f'"{field}":{value}', self.header_line())
        assert header != self.header_line()
        path = self.write(tmp_path, header)
        with pytest.raises(SchemaError, match=f"line 1: header '{field}' must be"):
            load_dataset(path)

    def test_header_that_is_not_an_object(self, tmp_path):
        path = self.write(tmp_path, "[1]")
        with pytest.raises(SchemaError, match="line 1: header is not a JSON object"):
            load_dataset(path)

    def test_wrong_format_version(self, tmp_path):
        header = self.header_line().replace('"format_version":2', '"format_version":9')
        path = self.write(tmp_path, header)
        with pytest.raises(SchemaError, match="line 1: unsupported format_version 9"):
            load_dataset(path)

    def test_version_1_file_is_refused_with_the_regeneration_command(self, tmp_path):
        path = self.write(tmp_path, '{"format_version":1,"n":4,"d":2,"num_classes":2,'
                          '"multimodal":false,"seed":1}',
                          self.record(tokens="[[1,1],[2,2],[3,3],[4,4]]"))
        with pytest.raises(SchemaError, match=re.escape(
                "line 1: format_version 1 (decimal tokens) is no longer read; "
                "regenerate the file with `sparsetok gen-data`")):
            load_dataset(path)
