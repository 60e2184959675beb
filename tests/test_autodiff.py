import math
import warnings

import numpy as np
import pytest

from sparsetok import autodiff as ad
from sparsetok.autodiff import Tape
from sparsetok.checks import catalog_case
from sparsetok.errors import ContractError, DomainError, ShapeError
from sparsetok.rng import SeededRng


def test_matmul_identity():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.constant(np.eye(2))
    assert np.array_equal(ad.matmul(eye, a).data, a.data)


def test_add_zero_is_identity():
    x = ad.constant([[1.5, -2.0]])
    assert np.array_equal(ad.add(x, ad.constant(np.zeros((1, 2)))).data, x.data)


def test_gather_rows_direct_indexing():
    x = ad.constant([[1, 1], [2, 2], [3, 3]])
    out = ad.gather_rows(x, [2, 0])
    assert np.array_equal(out.data, [[3.0, 3.0], [1.0, 1.0]])


def test_gather_rows_takes_index_arrays_of_any_shape_from_a_table_only():
    x = ad.constant([[1, 1], [2, 2], [3, 3]])
    out = ad.gather_rows(x, [[2, 0], [1, 1]])
    assert np.array_equal(out.data, [[[3.0, 3.0], [1.0, 1.0]], [[2.0, 2.0], [2.0, 2.0]]])
    with pytest.raises(ShapeError):
        ad.gather_rows(ad.constant(np.zeros((2, 3, 2))), [[0], [1]])


def test_log_domain_error():
    with pytest.raises(DomainError):
        ad.log(ad.constant([1.0, 0.0]))


def test_shape_conformance_errors():
    with pytest.raises(ShapeError):
        ad.add(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((3,))))
    with pytest.raises(ShapeError):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))


def test_softmax_symmetry_and_closed_form():
    y = ad.softmax_with_temperature(ad.constant([3.3, 3.3, 3.3, 3.3]), 1.0)
    assert np.allclose(y.data, 0.25, atol=1e-15)
    y = ad.softmax_with_temperature(ad.constant([1.0, 0.0]), 1.0)
    assert abs(y.data[0] - math.e / (1 + math.e)) < 1e-12  # 0.7310585786300049


def test_softmax_low_temperature_saturates():
    y = ad.softmax_with_temperature(ad.constant([1.0, 0.0]), 0.01)
    assert y.data[0] > 1 - 1e-10


def test_softmax_rows_sum_to_one_large_inputs():
    rng = SeededRng(5)
    x = ad.constant(rng.normals(400, 0.0, 1e3).reshape(20, 20))
    y = ad.softmax_with_temperature(x, 0.5)
    assert np.abs(y.data.sum(axis=1) - 1.0).max() < 1e-12


def test_softmax_temperature_domain():
    with pytest.raises(DomainError):
        ad.softmax_with_temperature(ad.constant([1.0]), 0.0)


def test_cross_entropy_closed_forms():
    assert abs(ad.cross_entropy_loss(ad.constant([2.0] * 4), 1).item()
               - 1.3862943611198906) < 1e-12  # ln 4
    assert abs(ad.cross_entropy_loss(ad.constant([10.0, 0.0, 0.0]), 0).item()
               - 9.079573746725622e-05) < 1e-12
    # log(e^10 + 2): large loss when the target logit is dominated
    assert abs(ad.cross_entropy_loss(ad.constant([0.0, 10.0, 0.0]), 0).item()
               - 10.000090795737467) < 1e-9


@pytest.mark.parametrize("shape", [(5,), (1, 3), (7, 5)])
def test_cross_entropy_matches_the_eager_softmax_formula(shape):
    """The adjoint builds softmax(z) only when it runs; values and gradients
    keep the bits of the formula that built it in the forward."""
    rng = SeededRng(17)
    z = rng.normals(math.prod(shape), 0.0, 4.0).reshape(shape)
    rows = 1 if len(shape) == 1 else shape[0]
    target = np.arange(rows) * 2 % shape[-1]
    weights = rng.normals(rows)
    with Tape() as tape:
        x = tape.leaf(z)
        loss = ad.cross_entropy_loss(x, target)
        tape.backward(ad.mean_all(ad.multiply(loss, ad.constant(weights))))
    z2 = np.atleast_2d(z)
    at = np.arange(rows)
    m = z2.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z2 - m).sum(axis=1, keepdims=True))
    p = np.exp(z2 - lse)
    d = p.copy()
    d[at, target] -= 1.0
    np.testing.assert_array_equal(loss.data, lse[:, 0] - z2[at, target])
    np.testing.assert_array_equal(tape.grad(x), (d * tape.grad(loss)[:, None]).reshape(shape))
    np.testing.assert_array_equal(ad.cross_entropy_loss(ad.constant(z), target).data, loss.data)


def test_cross_entropy_target_range():
    with pytest.raises(IndexError):
        ad.cross_entropy_loss(ad.constant([0.0, 0.0]), 2)


def test_backward_quadratic():
    with Tape() as tape:
        x = tape.leaf(np.array([3.0]))
        loss = ad.mean_all(ad.square(x))
        tape.backward(loss)
        assert abs(tape.grad(x)[0] - 6.0) < 1e-12


def test_backward_constant_loss_gives_zero_grads():
    p = ad.Parameter("p", np.array([1.0, 2.0]))
    with Tape() as tape:
        t = tape.param(p)
        loss = ad.scale(ad.mean_all(t), 0.0)
        tape.backward(loss)
        assert np.array_equal(tape.grad(p), np.zeros(2))


def test_param_on_an_inactive_tape_records_nothing():
    p = ad.Parameter("p", np.array([1.0, 2.0]))
    idle = Tape()
    t = idle.param(p)
    assert t.node_id is None and t.data is p.value
    with Tape() as active:
        assert idle.param(p).node_id is None  # entered, but another tape's
        assert active.param(p).node_id == 0
    assert len(idle) == 0
    assert np.array_equal(idle.grad(p), np.zeros(2))


def test_attention_rejects_shapes_that_do_not_split():
    with pytest.raises(ShapeError):
        ad.attention(ad.constant(np.zeros((6, 12))), (2, 2), 2)  # 6 rows, lengths sum to 4
    with pytest.raises(ShapeError):
        ad.attention(ad.constant(np.zeros((6, 12))), (3, 3), 3)  # d = 4 over 3 heads
    with pytest.raises(ShapeError):
        ad.attention(ad.constant(np.zeros((6, 12))), (6, 0), 2)  # a sequence with no row


def test_segment_mean_is_the_mean_of_each_sequence():
    """Sequences of 1, 4 and 2 rows: each output row is its sequence's mean,
    and each input row's gradient is its sequence's output gradient over
    the sequence's length."""
    x = SeededRng(21).normals(21).reshape(7, 3)
    g = SeededRng(22).normals(9).reshape(3, 3)
    with Tape() as tape:
        leaf = tape.leaf(x)
        out = ad.segment_mean(leaf, (1, 4, 2))
        tape.backward(ad.scale(ad.mean_all(ad.mask_multiply(out, g)), g.size))  # sum(out * g)
        grad = tape.grad(leaf)
    expected = np.stack([x[:1].mean(axis=0), x[1:5].mean(axis=0), x[5:].mean(axis=0)])
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)
    assert np.array_equal(out.data[0], x[0])  # a one-row mean is the row itself
    np.testing.assert_allclose(grad, np.repeat(g / [[1.0], [4.0], [2.0]], [1, 4, 2], axis=0),
                               rtol=0, atol=1e-15)


def test_segment_mean_matches_the_dense_pool():
    """Forward and adjoint agree with a dense [B, R] matrix of 1/L_b weights
    times the rows, the pool the model ran before."""
    lengths = (5, 1, 3, 8)
    x = SeededRng(23).normals(17 * 4).reshape(17, 4)
    example = np.repeat(np.arange(4), lengths)
    pool = np.zeros((4, 17))
    pool[example, np.arange(17)] = 1.0 / np.asarray(lengths)[example]
    weights = SeededRng(24).normals(16).reshape(4, 4)
    grads = []
    for pooled in (lambda t: ad.segment_mean(t, lengths),
                   lambda t: ad.matmul(ad.constant(pool), t)):
        with Tape() as tape:
            leaf = tape.leaf(x)
            out = pooled(leaf)
            tape.backward(ad.mean_all(ad.mask_multiply(out, weights)))
            grads.append((out.data, tape.grad(leaf)))
    for segment, dense in zip(*grads):
        np.testing.assert_allclose(segment, dense, rtol=0, atol=1e-15)


def test_segment_mean_rejects_rows_that_do_not_split():
    x = ad.constant(np.zeros((6, 2)))
    for lengths in [(2, 2), (6, 0), (), (3, 4)]:
        with pytest.raises(ShapeError):
            ad.segment_mean(x, lengths)
    with pytest.raises(ShapeError):
        ad.segment_mean(ad.constant(np.zeros((2, 3, 2))), (1, 1))  # rows must be 2-D


def test_backward_requires_scalar():
    with Tape() as tape:
        x = tape.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ContractError):
            tape.backward(ad.square(x))


def test_backward_off_tape_constant_loss():
    p = ad.Parameter("p", np.array([1.0]))
    with Tape() as tape:
        tape.param(p)
        loss = ad.mean_all(ad.constant([5.0]))
        grads = tape.backward(loss)
        assert grads == {}
        assert np.array_equal(tape.grad(p), np.zeros(1))


def test_softmax_cross_entropy_chain_matches_finite_differences():
    def build(x):
        y = ad.softmax_with_temperature(x, 0.7)
        return ad.cross_entropy_loss(ad.scale(ad.log(y), 2.0), 2)

    err, _ = ad.central_difference_check([catalog_case("x", SeededRng(3).normals(5), build, None)])
    assert err <= 1e-6


def test_gather_same_row_twice_doubles_gradient():
    def sum_of_gathered(indices):
        with Tape() as tape:
            x = tape.leaf(np.ones((3, 2)))
            gathered = ad.gather_rows(x, indices)
            loss = ad.scale(ad.mean_all(gathered), gathered.data.size)  # sum
            tape.backward(loss)
            return tape.grad(x)

    g_once = sum_of_gathered([1])
    g_twice = sum_of_gathered([1, 1])
    assert np.allclose(g_once[1], [1.0, 1.0])
    assert np.allclose(g_twice[1], 2 * g_once[1])
    assert np.all(g_twice[[0, 2]] == 0.0)


def test_straight_through_forwards_hard_exactly():
    soft = ad.constant([0.3, 0.7])
    out = ad.straight_through(soft, np.array([0.0, 1.0]))
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def test_mask_multiply_blocks_gradient_to_mask_only():
    mask = np.array([1.0, 0.0, 1.0])
    with Tape() as tape:
        x = tape.leaf(np.array([1.0, 2.0, 3.0]))
        loss = ad.mean_all(ad.mask_multiply(x, mask))
        tape.backward(loss)
        assert np.allclose(tape.grad(x), mask / 3.0)


def test_finite_difference_self_test():
    err, _ = ad.central_difference_check([catalog_case(
        "x", np.array([3.0]), lambda x: ad.mean_all(ad.square(x)), None)])
    assert err <= 1e-8


def test_central_difference_check_locates_the_worst_coordinate():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])

    def loss_at():
        return float(a.sum() + (b * b).sum())

    def numeric(array):
        return ad.central_differences(loss_at, array, 1e-5)

    err, where = ad.central_difference_check([("a", numeric(a), np.ones(2)),
                                              ("b", numeric(b), np.array([6.0, 7.0]))])
    assert where == "b[1]"
    assert abs(err - 1 / 8) < 1e-6  # |7 - 8| / 8
    assert np.array_equal(b, [3.0, 4.0])  # every perturbation undone
    err, _ = ad.central_difference_check([("a", numeric(a), np.array([1.0, np.nan]))])
    assert np.isnan(err)


def test_fourth_order_stencil_is_exact_on_a_quartic():
    """The fourth-order stencil visits +2h, +h, -h and -2h, undoes each
    move, and has no truncation error on a quartic, where a central
    difference is off by h^2 f'''(x) / 6 = 4 x h^2."""
    a, h = np.array([0.7, -1.3]), 1e-2
    seen = []

    def loss_at():
        seen.append(a.copy())
        return float((a ** 4).sum())

    fourth = ad.central_differences(loss_at, a, h, ad.FOURTH_ORDER)
    np.testing.assert_allclose(fourth, 4 * a ** 3, rtol=1e-10)
    assert np.array_equal(a, [0.7, -1.3])
    assert [p[0] - 0.7 for p in seen[:4]] == pytest.approx([2 * h, h, -h, -2 * h], abs=1e-15)
    assert [p[1] for p in seen[:4]] == [-1.3] * 4
    central = ad.central_differences(loss_at, a, h)
    np.testing.assert_allclose(central - 4 * a ** 3, 4 * a * h * h, rtol=1e-6)


def test_central_difference_check_keeps_the_first_worst_case():
    """A tie keeps the first case, and the first NaN beats any number."""
    a = np.array([2.0])

    def loss_at():
        return float(a[0] ** 2)  # gradient 4

    def case(name, analytic):
        return name, ad.central_differences(loss_at, a, 1e-5), np.array([analytic])

    assert ad.central_difference_check([case("p", 5.0), case("q", 5.0)])[1] == "p[0]"
    err, where = ad.central_difference_check(
        [case("p", 5.0), case("q", np.nan), case("r", np.nan), case("s", 1e9)])
    assert np.isnan(err) and where == "q[0]"


def test_tape_replay_determinism():
    def run():
        rng = SeededRng(77)
        with Tape() as tape:
            x = tape.leaf(rng.normals(6).reshape(2, 3))
            w = tape.leaf(rng.normals(6).reshape(3, 2))
            loss = ad.mean_all(ad.square(ad.gelu(ad.matmul(x, w))))
            tape.backward(loss)
            return loss.item(), tape.grad(w).copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_catalog_gradients_on_many_random_inputs():
    # every primitive against central differences on fresh random inputs
    from sparsetok.checks import check_catalog
    report = check_catalog(repeats=100, seed=9)
    assert report.ok, f"worst {report.detail}: {report.worst}"
    assert report.worst <= 1e-4


def _value_and_input_grads(build, arrays, out_weights):
    """Forward value and the gradient wrt every input of build(*leaves),
    scalarized by a fixed weight array."""
    with Tape() as tape:
        leaves = [tape.leaf(a) for a in arrays]
        out = build(*leaves)
        tape.backward(ad.mean_all(ad.mask_multiply(out, out_weights)))
        return out.data, [tape.grad(t) for t in leaves]


@pytest.mark.parametrize("m, k, n", [(1, 1, 1), (3, 4, 2), (64, 32, 128), (1024, 32, 4)])
def test_linear_equals_add_of_matmul_exactly(m, k, n):
    rng = SeededRng(m * 1000 + k * 10 + n)
    arrays = [rng.normals(m * k).reshape(m, k), rng.normals(k * n).reshape(k, n),
              rng.normals(n)]
    weights = rng.normals(m * n).reshape(m, n)
    fused = _value_and_input_grads(ad.linear, arrays, weights)
    unfused = _value_and_input_grads(lambda x, w, b: ad.add(ad.matmul(x, w), b),
                                     arrays, weights)
    np.testing.assert_array_equal(fused[0], unfused[0])
    for got, expected in zip(fused[1], unfused[1]):
        np.testing.assert_array_equal(got, expected)


def test_linear_rejects_shapes_that_do_not_conform():
    def zeros(*shape):
        return ad.constant(np.zeros(shape))

    x, w = zeros(2, 3), zeros(3, 4)
    for args in [(x, w, zeros(3)), (x, zeros(2, 4), zeros(4)),
                 (zeros(2, 2, 3), w, zeros(4)), (x, w, zeros(1, 4))]:
        with pytest.raises(ShapeError):
            ad.linear(*args)


# the GELU and layer-norm formulas written out plainly, in the order of
# floating-point operations the in-place kernels use, which must reproduce
# them bit for bit
_C0, _C1, _EPS = 0.7978845608028654, 0.044715, 1e-5


def _gelu_formula(x, g):
    """x s with s = 1 / (1 + exp(-2u)), derivative s + 2 c0 out (1 - s)(1 + 3 c1 x^2)."""
    sq = x * x
    s = 1.0 / (1.0 + np.exp((sq * (-2.0 * _C0 * _C1) - 2.0 * _C0) * x))
    out = x * s
    d = (1.0 - s) * out * (sq * (6.0 * _C0 * _C1) + 2.0 * _C0) + s
    return out, d * g


def _layer_norm_formula(x, gain, bias, g):
    """Row means as products with a [d] vector of 1/d, column sums as
    products with a ones vector."""
    d = x.shape[-1]
    rows, g = x.reshape(-1, d), g.reshape(-1, d)
    mean, ones = np.full(d, 1.0 / d), np.ones(len(rows))
    xc = rows - (rows @ mean)[:, None]
    inv = 1.0 / np.sqrt((xc * xc) @ mean + _EPS)
    xhat = xc * inv[:, None]
    g_xhat, gain_mean = g * xhat, gain * mean
    dx = (g * gain - xhat * (g_xhat @ gain_mean)[:, None]
          - (g @ gain_mean)[:, None]) * inv[:, None]
    return ((xhat * gain + bias).reshape(x.shape),
            (dx.reshape(x.shape), ones @ g_xhat, ones @ g))


def _value_and_adjoint(build, arrays, g):
    """Value of build(*leaves), recorded as the tape's last node, and that
    node's input gradients for the upstream gradient g."""
    with Tape() as tape:
        out = build(*[tape.leaf(a) for a in arrays])
        _, _, vjp = tape._nodes[-1]
        return out.data, vjp(g)


SHAPES = [(1, 1), (3, 4), (2, 3, 4), (1024, 128), (32, 20, 32)]


@pytest.mark.parametrize("shape", SHAPES)
def test_gelu_matches_the_unfused_formula_exactly(shape):
    rng = SeededRng(sum(shape))
    x = 3.0 * rng.normals(int(np.prod(shape))).reshape(shape)
    g = rng.normals(x.size).reshape(shape)
    value, (dx,) = _value_and_adjoint(ad.gelu, [x], g)
    ref_value, ref_dx = _gelu_formula(x, g)
    np.testing.assert_array_equal(value, ref_value)
    np.testing.assert_array_equal(dx, ref_dx)


@pytest.mark.parametrize("shape", SHAPES)
def test_layer_norm_matches_the_unfused_formula_exactly(shape):
    rng = SeededRng(sum(shape) + 1)
    d = shape[-1]
    x = 2.0 * rng.normals(int(np.prod(shape))).reshape(shape) + 0.5
    gain, bias = rng.normals(d) + 1.0, rng.normals(d)
    g = rng.normals(x.size).reshape(shape)
    value, grads = _value_and_adjoint(ad.layer_norm, [x, gain, bias], g)
    ref_value, ref_grads = _layer_norm_formula(x, gain, bias, g)
    np.testing.assert_array_equal(value, ref_value)
    for got, expected in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, expected)


# the textbook forms of the three row-wise kernels: GELU through tanh,
# layer norm with numpy's row reductions, and a query-major attention
# softmax with the scale on the logits; the kernels reorder the arithmetic,
# so they must agree to rounding, measured against the largest value
def _assert_close(got, expected, rel=1e-13):
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= rel * scale, (np.abs(got - expected).max(), scale)


def _gelu_tanh(x, g):
    sq = x * x
    t = np.tanh(_C0 * (x + _C1 * sq * x))
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _C0 * (1.0 + 3.0 * _C1 * sq)
    return 0.5 * x * (1.0 + t), g * d


def _layer_norm_reduce(x, gain, bias, g):
    d = x.shape[-1]
    lead = tuple(range(x.ndim - 1))
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _EPS)
    xhat = xc * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, (dx, (g * xhat).sum(axis=lead), g.sum(axis=lead))


def _attention_query_major(qkv, batch, heads, key_bias, g):
    rows, width = qkv.shape
    d, length = width // 3, rows // batch
    dk = d // heads
    q, k, v = qkv.reshape(batch, length, 3, heads, dk).transpose(2, 0, 3, 1, 4)
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk) + key_bias[:, None, None, :]
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(rows, d)
    g_context = g.reshape(batch, length, heads, dk).transpose(0, 2, 1, 3)
    g_p = g_context @ v.transpose(0, 1, 3, 2)
    g_logits = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) / np.sqrt(dk)
    grads = np.stack([g_logits @ k, g_logits.transpose(0, 1, 3, 2) @ q,
                      p.transpose(0, 1, 3, 2) @ g_context])  # [3, B, H, L, dk]
    return out, grads.transpose(1, 3, 0, 2, 4).reshape(rows, width)


@pytest.mark.parametrize("shape", [(256, 128), (1024, 128), (3, 5)])
def test_gelu_agrees_with_the_tanh_form(shape):
    rng = SeededRng(shape[0] + 7)
    x = 3.0 * rng.normals(shape[0] * shape[1]).reshape(shape)
    g = rng.normals(x.size).reshape(shape)
    value, (dx,) = _value_and_adjoint(ad.gelu, [x], g)
    ref_value, ref_dx = _gelu_tanh(x, g)
    _assert_close(value, ref_value)
    _assert_close(dx, ref_dx)


@pytest.mark.parametrize("length", [1, 8, 33])
@pytest.mark.parametrize("d", [16, 32])
def test_layer_norm_agrees_with_row_reductions(length, d):
    rng = SeededRng(length * 100 + d)
    shape = (32, length, d)
    x = 2.0 * rng.normals(int(np.prod(shape))).reshape(shape) + 0.5
    gain, bias = rng.normals(d) + 1.0, rng.normals(d)
    g = rng.normals(x.size).reshape(shape)
    value, grads = _value_and_adjoint(ad.layer_norm, [x, gain, bias], g)
    ref_value, ref_grads = _layer_norm_reduce(x, gain, bias, g)
    _assert_close(value, ref_value)
    for got, expected in zip(grads, ref_grads):
        _assert_close(got, expected)


# kept counts of a multimodal ratio-controlled batch: 2 Binomial(32, 0.3)
# rows an example, one example keeping only the null token
_RAGGED = (1, *(int(n) for n in 2 * np.random.default_rng(5).binomial(32, 0.3, 31)))

# (lengths, heads) by id: three sequences of one length, and with
# "True" the second keeping the first half of its rows and the third only
# row 0; then 32 ragged sequences, which run in length groups, a single
# sequence, and more equal sequences than there are groups
_QUERY_MAJOR_BATCHES = [
    *(pytest.param((length,) * 3 if not padded else (length, (length + 1) // 2, 1), heads,
                   id=f"{length}-{heads}-{padded}")
      for padded in (False, True) for heads in (1, 2, 4) for length in (1, 3, 8, 64)),
    pytest.param(_RAGGED, 2, id="ragged32-2"),
    pytest.param((5,), 2, id="single-2"),
    pytest.param((4,) * (ad._ATTENTION_GROUPS + 2), 2, id="equal8-2"),
]


@pytest.mark.parametrize("lengths, heads", _QUERY_MAJOR_BATCHES)
def test_attention_agrees_with_the_query_major_form(lengths, heads):
    """Sequences of 16-wide rows, packed one after another. The reference
    runs them padded to the longest, L, as [B*L] rows with the dropped keys
    masked and no gradient on the dropped queries; the packed op must give
    its values and gradients on the kept rows."""
    batch, length, d = len(lengths), max(lengths), 16
    rng = SeededRng(length * 10 + heads)
    qkv = rng.normals(batch * length * 3 * d).reshape(batch * length, 3 * d)
    g = rng.normals(batch * length * d).reshape(batch * length, d)
    kept = np.arange(length) < np.array(lengths)[:, None]
    rows = np.flatnonzero(kept)
    value, (grad,) = _value_and_adjoint(
        lambda x: ad.attention(x, lengths, heads), [qkv[rows]], g[rows])
    key_bias = np.where(kept, 0.0, -1e9)
    ref_value, ref_grad = _attention_query_major(qkv, batch, heads, key_bias,
                                                 g * kept.reshape(-1, 1))
    _assert_close(value, ref_value[rows])
    _assert_close(grad, ref_grad[rows])


def test_length_groups_pad_each_group_to_its_own_longest():
    """Equal lengths are not padded; two sequences, whose groups would
    remove few padded logits, stay one padded call; the catalog's grouped
    case runs an equal group and an unequal one; a ragged batch runs in at
    most `_ATTENTION_GROUPS` groups that cover every packed row once and pad
    to less than one call would."""
    from sparsetok.checks import GROUPED_LENGTHS
    assert ad._length_groups((3, 3, 3), 2) is None and ad._length_groups((5,), 2) is None
    for lengths in [(2, 4), (4, 6)]:
        assert [(g.count, g.length) for g in ad._length_groups(lengths, 2)] == [(2, max(lengths))]
    equal, unequal = ad._length_groups(GROUPED_LENGTHS, 2)
    assert (equal.count, equal.length, equal.key_bias) == (3, 1, None)
    assert (unequal.count, unequal.length) == (4, 8) and unequal.key_bias is not None
    plan = ad._length_groups(_RAGGED, 2)
    assert 1 < len(plan) <= ad._ATTENTION_GROUPS
    rows = np.concatenate([g.rows for g in plan])
    np.testing.assert_array_equal(np.sort(rows), np.arange(sum(_RAGGED)))
    assert all(len(g.pos) == len(g.rows) for g in plan)
    padded = sum(g.count * g.length ** 2 for g in plan)
    assert padded < 0.7 * len(_RAGGED) * max(_RAGGED) ** 2, padded


def test_gelu_keeps_only_its_derivative_and_none_off_the_tape():
    """A recorded gelu's adjoint holds one array, the derivative; off the
    tape nothing is recorded, and the value is the same bit for bit."""
    x = 3.0 * SeededRng(4).normals(12).reshape(3, 4)
    with Tape() as tape:
        taped = ad.gelu(tape.leaf(x))
        _, _, vjp = tape._nodes[-1]
    held = [c.cell_contents for c in vjp.__closure__ or ()]
    assert [a.shape for a in held if isinstance(a, np.ndarray)] == [x.shape]
    with Tape() as tape:
        constant = ad.gelu(ad.constant(x))
    assert constant.node_id is None and len(tape) == 0
    np.testing.assert_array_equal(constant.data, taped.data)
    np.testing.assert_array_equal(ad.gelu(ad.constant(x)).data, taped.data)


def test_gelu_is_finite_and_silent_at_large_magnitudes():
    x = np.array([-1e4, -50.0, 50.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, (dx,) = _value_and_adjoint(ad.gelu, [x], np.ones(4))
    np.testing.assert_array_equal(value, [0.0, 0.0, 50.0, 1e4])
    np.testing.assert_array_equal(dx, [0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("op, shapes", [
    ("matmul", [(5, 4), (4, 3)]),
    ("linear", [(5, 4), (4, 3), (3,)]),
])
def test_constant_operands_get_no_adjoint_product(op, shapes):
    """An operand with no tape node gets None, and the others' gradients
    are those of the all-leaf node bit for bit."""
    rng = SeededRng(len(op))
    arrays = [rng.normals(int(np.prod(s))).reshape(s) for s in shapes]
    fn = getattr(ad, op)
    shape = fn(*arrays).shape
    g = rng.normals(int(np.prod(shape))).reshape(shape)
    _, all_leaves = _value_and_adjoint(fn, arrays, g)
    for const in range(len(arrays)):
        with Tape() as tape:
            fn(*[ad.constant(a) if i == const else tape.leaf(a)
                 for i, a in enumerate(arrays)])
            _, _, vjp = tape._nodes[-1]
            grads = vjp(g)
        assert grads[const] is None
        for i, (got, expected) in enumerate(zip(grads, all_leaves)):
            if i != const:
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("kernel", ["gelu", "layer_norm", "linear"])
def test_in_place_kernels_leave_inputs_and_upstream_gradient_alone(kernel):
    rng = SeededRng(31)
    x = rng.normals(24).reshape(6, 4)
    arrays = {"gelu": [x], "layer_norm": [x, rng.normals(4), rng.normals(4)],
              "linear": [x, rng.normals(12).reshape(4, 3), rng.normals(3)]}[kernel]
    g = rng.normals(18 if kernel == "linear" else 24).reshape(6, -1)
    kept = [a.copy() for a in arrays + [g]]
    value, grads = _value_and_adjoint(getattr(ad, kernel), arrays, g)
    for before, after in zip(kept, arrays + [g]):
        np.testing.assert_array_equal(before, after)
    for out in [value, *grads]:
        assert not any(np.shares_memory(out, a) for a in arrays + [g])
