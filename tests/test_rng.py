import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetok.rng import SeededRng, mix64, mix_words, mix_words_array


def test_identical_seed_stream_sequence_is_bit_identical():
    a = SeededRng(42, 7)
    b = SeededRng(42, 7)
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))
    assert np.array_equal(a.normals(999), b.normals(999))


def test_draws_are_pure_functions_of_counter():
    a = SeededRng(5)
    first = a.uniforms(10)
    b = SeededRng(5)
    parts = np.concatenate([b.uniforms(3), b.uniforms(7)])
    assert np.array_equal(first, parts)


def test_distinct_streams_differ():
    a = SeededRng(1, 0).uniforms(100)
    b = SeededRng(1, 1).uniforms(100)
    assert not np.array_equal(a, b)


def test_split_is_deterministic_and_independent_of_parent_state():
    parent = SeededRng(9)
    parent.uniforms(5)  # advancing the parent must not affect children
    child1 = parent.split(3).uniforms(10)
    child2 = SeededRng(9).split(3).uniforms(10)
    assert np.array_equal(child1, child2)


def test_uniforms_strictly_inside_unit_interval():
    u = SeededRng(11).uniforms(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_stream_independence_lag1_correlation():
    n = 100_000
    a = SeededRng(3, 0).uniforms(n)
    b = SeededRng(3, 1).uniforms(n)
    cross = np.corrcoef(a, b)[0, 1]
    lag1 = np.corrcoef(a[:-1], a[1:])[0, 1]
    assert abs(cross) < 0.01
    assert abs(lag1) < 0.01


def test_normals_moments():
    z = SeededRng(21).normals(200_000, mean=2.0, stddev=3.0)
    assert abs(z.mean() - 2.0) < 0.05
    assert abs(z.std() - 3.0) < 0.05


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(1, 33))
def test_normal_rows_are_successive_normals(seed, rows, count):
    a, b = SeededRng(seed), SeededRng(seed)
    want = np.stack([a.normals(count) for _ in range(rows)])
    assert b.normal_rows(rows, count).tobytes() == want.tobytes()
    assert np.array_equal(a.uniforms(3), b.uniforms(3))  # both left at the same counter


def test_permutation_is_a_permutation():
    p = SeededRng(4).permutation(257)
    assert np.array_equal(np.sort(p), np.arange(257))


def test_mix64_scalar_matches_vector_path():
    r = SeededRng(1234, 56)
    vec = r._raw(5)
    # the numpy path must agree bit for bit with the pure-python mix
    from sparsetok.rng import _GAMMA, _MASK64
    for i, v in enumerate(vec, start=1):
        state = (r._key + i * _GAMMA) & _MASK64
        assert int(v) == mix64(state)


def test_mix_words_order_sensitive():
    assert mix_words(1, 2) != mix_words(2, 1)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2**63, 2**64 - 1), min_size=1, max_size=4),
       st.integers(-2**63, 2**63 - 1))
def test_mix_words_array_matches_mix_words(words, varying):
    column = np.array([varying, 0, -1], dtype=np.int64)
    mixed = mix_words_array(*words, column, *words)
    for w, m in zip(column.tolist(), mixed):
        assert int(m) == mix_words(*words, w, *words)


_int64 = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
       st.lists(_int64, min_size=1, max_size=5), st.lists(_int64, max_size=3),
       st.integers(0, 9), st.floats(-5, 5), st.floats(0, 5), st.integers(1, 7))
def test_streams_draw_what_each_split_stream_draws(seed, stream_id, ids, labels, count,
                                                   mean, stddev, bound):
    root = SeededRng(seed, stream_id)
    batch = root.streams(5, np.array(ids, dtype=np.int64), *labels)
    alone = [root.split(5, i, *labels) for i in ids]
    assert len(batch) == len(ids)

    def each(draw):
        return np.stack([draw(rng) for rng in alone])

    assert _same_bits(batch.uniforms(count), each(lambda r: r.uniforms(count)))
    for k in (count, count + 1):  # an odd and an even count
        assert _same_bits(batch.normals(k, mean, stddev),
                          each(lambda r: r.normals(k, mean, stddev)))
    assert _same_bits(batch.normals(count), each(lambda r: r.normals(count)))
    assert _same_bits(batch.permutations(count + 1), each(lambda r: r.permutation(count + 1)))
    assert _same_bits(batch.integers(bound), np.array([r.integer(bound) for r in alone]))
    children = batch.split(*labels, 8)
    assert _same_bits(children.normals(count + 2),
                      each(lambda r: r.split(*labels, 8).normals(count + 2)))
    # the parents' counters went on independently of their children
    assert _same_bits(batch.uniforms(3), each(lambda r: r.uniforms(3)))


def test_scalar_labels_give_one_stream():
    batch = SeededRng(3).streams(4, 9)
    assert len(batch) == 1
    assert _same_bits(batch.uniforms(5)[0], SeededRng(3).split(4, 9).uniforms(5))
