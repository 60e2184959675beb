import collections
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsetok.data as data_module
from sparsetok.data import (Example, NeedleGenerator, _fmt_matrix, NeedleSpec,
                            generate_dataset, load_dataset, make_prototypes,
                            nearest_prototype_oracle, write_dataset)
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


def test_too_many_informative_rejected():
    with pytest.raises(SchemaError):
        NeedleSpec(n=4, num_informative=3, multimodal=True, textual_informative=2)


_SPECIAL_FLOATS = [0.0, -0.0, 0.1, -0.1, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
                   2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                   1.0, 1 / 3, 123456789012345678.0]


def _format_each(m: np.ndarray) -> str:
    """The matrix text with one format(x, ".17g") a value."""
    return "[" + ",".join("[" + ",".join(format(float(v), ".17g") for v in row) + "]"
                          for row in m) + "]"


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(-0.0)
@example(1e300)
@example(-1e-300)
@example(0.1)
def test_matrix_template_formats_like_format(x):
    assert _fmt_matrix(np.array([[x]])) == "[[" + format(x, ".17g") + "]]"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_matrix_template_formats_every_value(rows, cols, draw):
    values = draw.draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                          st.sampled_from(_SPECIAL_FLOATS)),
                                min_size=rows * cols, max_size=rows * cols))
    m = np.array(values, dtype=np.float64).reshape(rows, cols)
    assert _fmt_matrix(m) == _format_each(m)


def test_written_token_matrices_are_formatted_value_by_value(tmp_path):
    spec = NeedleSpec(multimodal=True)
    examples = generate_dataset(spec, 5, seed=4)
    path = tmp_path / "data.jsonl"
    write_dataset(examples, str(path), spec, 4)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for ex, line in zip(examples, lines):
        assert f'"tokens":{_format_each(ex.tokens)}' in line
        assert f'"textual_tokens":{_format_each(ex.textual_tokens)}' in line


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


class TestRoundTrip:
    def test_exact_field_round_trip(self, tmp_path):
        spec = NeedleSpec(multimodal=True)
        examples = generate_dataset(spec, 10, seed=7)
        path = tmp_path / "data.jsonl"
        write_dataset(examples, str(path), spec, 7)
        back, header = load_dataset(str(path))
        assert header["n"] == spec.n and header["multimodal"] is True
        assert len(back) == 10
        for a, b in zip(examples, back):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.tokens, b.tokens)
            assert np.array_equal(a.textual_tokens, b.textual_tokens)
            assert np.array_equal(a.informative_indices, b.informative_indices)
            assert np.array_equal(a.textual_informative_indices,
                                  b.textual_informative_indices)

    def test_write_is_byte_deterministic(self, tmp_path):
        spec = NeedleSpec()
        examples = generate_dataset(spec, 5, seed=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(examples, str(p1), spec, 3)
        write_dataset(examples, str(p2), spec, 3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_with_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], str(path), NeedleSpec(), 1)
        examples, header = load_dataset(str(path))
        assert examples == []
        assert header["num_classes"] == 4


class TestSchemaValidation:
    def header_line(self):
        return ('{"format_version":1,"n":4,"d":2,"num_classes":2,'
                '"multimodal":false,"seed":1}')

    def record(self, informative="[1,2]", tokens=None, label=0):
        tokens = tokens or "[[1,1],[2,2],[3,3],[4,4]]"
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
                          self.record(tokens="[[1],[2],[3],[4]]"))
        with pytest.raises(SchemaError, match="line 2"):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = self.write(tmp_path, self.header_line(), self.record(label=5))
        with pytest.raises(SchemaError, match="line 2"):
            load_dataset(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = self.write(tmp_path, self.header_line(), self.record(),
                          '{"id": 1, not json')
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_names_line(self, tmp_path, value):
        path = self.write(tmp_path, self.header_line(), self.record(),
                          self.record(tokens=f"[[1,1],[2,{value}],[3,3],[4,4]]"))
        with pytest.raises(SchemaError, match="line 3: tokens holds a non-finite value"):
            load_dataset(path)

    def test_missing_header_key(self, tmp_path):
        path = self.write(tmp_path, '{"format_version":1,"n":4}')
        with pytest.raises(SchemaError, match="header"):
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
        ("tokens", '[["1","1"],["2","2"],["3","3"],["4","4"]]', "tokens must hold JSON numbers"),
        ("tokens", "[[true,false],[1,1],[2,2],[3,3]]", "tokens must hold JSON numbers"),
        ("tokens", "[[1.5,true],[1,1],[2,2],[3,3]]", "tokens must hold JSON numbers"),
        ("tokens", "[[1,null],[1,1],[2,2],[3,3]]", "tokens must hold JSON numbers"),
        ("tokens", "[[1,1],[2],[3,3],[4,4]]", "tokens is not an"),
        ("tokens", "[[1,1]]", "tokens is not an"),
        ("tokens", "[1,1,1,1]", "tokens is not an"),
        ("tokens", "7", "tokens is not an"),
        ("tokens", "[[1e999,1],[2,2],[3,3],[4,4]]", "tokens holds a non-finite value"),
        ("tokens", "[[1" + "0" * 400 + ",1],[2,2],[3,3],[4,4]]",
         "tokens holds a non-finite value"),
        ("informative_indices", "[1," + "9" * 30 + "]", "informative_indices must be sorted"),
    ])
    def test_mistyped_field_names_line_and_field(self, tmp_path, field, value, message):
        good = {"id": "0", "label": "0", "informative_indices": "[1,2]",
                "tokens": "[[1,1],[2,2],[3,3],[4,4]]"}
        bad = {**good, "id": "1", field: value}
        lines = ["{" + ",".join(f'"{k}":{v}' for k, v in rec.items()) + "}"
                 for rec in (good, bad)]
        path = self.write(tmp_path, self.header_line(), *lines)
        with pytest.raises(SchemaError, match=f"line 3: {re.escape(message)}"):
            load_dataset(path)

    def test_record_that_is_not_an_object(self, tmp_path):
        path = self.write(tmp_path, self.header_line(), self.record(), "[1, 2]")
        with pytest.raises(SchemaError, match="line 3: record is not a JSON object"):
            load_dataset(path)

    def test_earliest_failing_line_is_named(self, tmp_path):
        path = self.write(tmp_path, self.header_line(), self.record(),
                          self.record(tokens="[[1,1],[2,NaN],[3,3],[4,4]]"),
                          self.record(informative="[2,2]"))
        with pytest.raises(SchemaError, match="line 3: tokens holds a non-finite value"):
            load_dataset(path)
        path = self.write(tmp_path, self.header_line(), self.record(),
                          self.record(informative="[3,1]"),
                          self.record(tokens="[[1,1],[2,NaN],[3,3],[4,4]]"))
        with pytest.raises(SchemaError, match="line 3: informative_indices must be sorted"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("n", '"4"'), ("n", "0"), ("n", "-4"), ("n", "4.0"), ("d", "true"), ("d", "null"),
        ("num_classes", '"2"'), ("num_classes", "0"), ("multimodal", "0"),
        ("multimodal", '"false"'), ("multimodal", "null"),
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
        header = self.header_line().replace('"format_version":1', '"format_version":9')
        path = self.write(tmp_path, header)
        with pytest.raises(SchemaError):
            load_dataset(path)
