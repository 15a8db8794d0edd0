"""Engine ops: frozen hand values, invariants, and finite-difference checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, expit, logsumexp

from feedrank import tensor as T
from feedrank.layers import _log_normaliser
from feedrank.tensor import ConfigError, ShapeError, Tensor

from conftest import check_gradients
from test_layers import oracle_layer_norm


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(t64([[1, 0], [0, 1]]), t64([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[3], [4]])

    def test_hand_product(self):
        out = T.matmul(t64([[1, 2]]), t64([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            T.matmul(t64([[1, 2]]), t64([[3], [4], [5]]))

    def test_gradient_matches_finite_differences(self):
        # d sum(a @ b) / da at a=[[1,2]], b=[[3],[4]] is [[3,4]]
        a = t64([[1.0, 2.0]], requires_grad=True)
        b = t64([[3.0], [4.0]], requires_grad=True)
        check_gradients(lambda: T.sum_all(T.matmul(a, b)), [a, b])
        a.zero_grad()
        b.zero_grad()
        loss = T.sum_all(T.matmul(a, b))
        loss.backward()
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])

    def test_batched_matmul_gradients(self):
        rng = np.random.default_rng(0)
        a = t64(rng.standard_normal((3, 2, 4)), requires_grad=True)
        b = t64(rng.standard_normal((4, 5)), requires_grad=True)
        c = t64(rng.standard_normal((3, 5, 2)), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.matmul(T.matmul(a, b), c)), [a, b, c])

    def test_weight_gradient_of_stacked_rows_matches_summed_products(self):
        # [B, t, k] @ [k, n]: the weight gradient over all B*t rows equals
        # the per-batch products a[b].T @ g[b] summed over b
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((6, 5, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        g = rng.standard_normal((6, 5, 3)).astype(np.float32)
        T.sum_all(T.elementwise_mul(T.matmul(a, b), Tensor(g))).backward()
        summed = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=0)
        assert b.grad.dtype == np.float32
        np.testing.assert_allclose(b.grad, summed, rtol=1e-5, atol=1e-5)

    def test_stacked_rows_times_weight_gradients(self):
        rng = np.random.default_rng(2)
        a = t64(rng.standard_normal((3, 4, 5)), requires_grad=True)
        b = t64(rng.standard_normal((5, 2)), requires_grad=True)
        w = t64(rng.standard_normal((3, 4, 2)))
        check_gradients(lambda: T.sum_all(T.elementwise_mul(T.matmul(a, b), w)), [a, b])


class TestAccumulate:
    def test_operand_used_twice_gets_both_gradients(self):
        x = t64([[1.0, -2.0, 3.0]], requires_grad=True)
        g = np.array([[0.5, 4.0, -1.5]])
        T.sum_all(T.elementwise_mul(T.add(x, x), t64(g))).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * g)

    def test_two_leaves_get_separate_gradient_arrays(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        y = t64([[3.0, 4.0]], requires_grad=True)
        g = np.array([[0.25, -1.0]])
        T.sum_all(T.elementwise_mul(T.add(x, y), t64(g))).backward()
        np.testing.assert_array_equal(x.grad, g)
        np.testing.assert_array_equal(y.grad, g)
        assert not np.shares_memory(x.grad, y.grad)


class TestGelu:
    def test_zero(self):
        assert T.gelu(t64([0.0])).data[0] == 0.0

    def test_large_input_asymptote(self):
        assert abs(T.gelu(t64([10.0])).data[0] - 10.0) < 1e-6

    def test_value_at_one_against_independent_erf(self):
        # independent oracle: 1 * Phi(1) via the stdlib error function
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(expected - 0.8413447460685429) < 1e-12
        assert abs(T.gelu(t64([1.0])).data[0] - expected) < 1e-10

    def test_gradient(self):
        x = t64(np.linspace(-2.5, 2.5, 11), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.elementwise_mul(T.gelu(x), x)), [x])


def gelu_reference(x):
    """float64 x * Phi(x) through scipy's exact erf."""
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


class TestGeluFloat32:
    """The float32 path's rational erf, evaluated in blocks of T._CDF_BLOCK."""

    # sizes straddle one, two and three blocks so that a block-boundary slip shows
    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from([1, 7, T._CDF_BLOCK - 3, T._CDF_BLOCK, T._CDF_BLOCK + 3,
                                 2 * T._CDF_BLOCK + 1, 3 * T._CDF_BLOCK + 5]),
           seed=st.integers(0, 2**32 - 1), strided=st.booleans())
    def test_within_2e6_of_float64_reference(self, size, seed, strided):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-8.0, 8.0, size * (2 if strided else 1)).astype(np.float32)
        x = base[::2] if strided else base
        out = T.gelu(Tensor(x)).data
        assert out.dtype == np.float32 and out.shape == x.shape
        np.testing.assert_allclose(out, gelu_reference(x), rtol=0, atol=2e-6)

    def test_batched_shape_matches_reference(self):
        x = np.random.default_rng(4).uniform(-8.0, 8.0, (5, 22, 32)).astype(np.float32)
        out = T.gelu(Tensor(x)).data
        assert out.shape == x.shape
        np.testing.assert_allclose(out, gelu_reference(x), rtol=0, atol=2e-6)

    def test_non_finite_inputs(self):
        with np.errstate(invalid="ignore"):
            out = T.gelu(Tensor(np.array([np.nan, np.inf, -np.inf], dtype=np.float32))).data
        assert np.isnan(out[0]) and out[1] == np.inf and np.isnan(out[2])

    def test_gradient_matches_float64(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-6.0, 6.0, 200)
        w = rng.standard_normal(200)
        grads = []
        for dtype in (np.float32, np.float64):
            xt = Tensor(x.astype(dtype), requires_grad=True)
            T.sum_all(T.elementwise_mul(T.gelu(xt), Tensor(w.astype(dtype)))).backward()
            grads.append(xt.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-5)


class TestSoftmaxRows:
    def test_constant_row_is_uniform(self):
        out = T.softmax_rows(t64([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_single_element(self):
        np.testing.assert_allclose(T.softmax_rows(t64([[0.0]])).data, [[1.0]])

    def test_hand_value(self):
        out = T.softmax_rows(t64([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_stability_under_large_values(self):
        out = T.softmax_rows(t64([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_bounded(self, m, n, seed):
        x = np.random.default_rng(seed).normal(scale=3.0, size=(m, n))
        out = T.softmax_rows(t64(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(m), atol=1e-6)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = t64(rng.standard_normal((3, 4)), requires_grad=True)
        w = t64(rng.standard_normal((3, 4)))
        check_gradients(lambda: T.sum_all(T.elementwise_mul(T.softmax_rows(x), w)), [x])


EPS32 = float(np.finfo(np.float32).eps)

# leading extents of 0 and 1 included; last axes as short as the encoder's
# rows and longer
row_shapes = st.tuples(st.lists(st.integers(min_value=0, max_value=5), max_size=2),
                       st.integers(min_value=1, max_value=40)).map(lambda p: tuple(p[0]) + (p[1],))
layouts = st.sampled_from(["contiguous", "transposed", "strided", "reversed"])


def laid_out(x, layout):
    """``x`` with the same values as a view of another layout: swapped
    last-two-axis strides, every second element of a wider array, or a
    negative stride."""
    if layout == "transposed" and x.ndim >= 2:
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(x, -1, -2)), -1, -2)
    if layout == "strided":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
        wide[..., ::2] = x
        return wide[..., ::2]
    if layout == "reversed":
        return np.ascontiguousarray(x[..., ::-1])[..., ::-1]
    return x


def assert_within(err, bound):
    err, bound = np.broadcast_arrays(err, bound)
    worst = np.max(err / bound, initial=0.0)
    assert worst <= 1.0, f"error up to {worst:.3g} times its bound"


def oracle_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestRowKernels:
    """Float32 row ops against float64 oracles on the float32 inputs."""

    @given(row_shapes, layouts, st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_and_its_gradient(self, shape, layout, seed):
        rng = np.random.default_rng(seed)
        x = laid_out(rng.normal(scale=3.0, size=shape).astype(np.float32), layout)
        x_before = x.copy()
        w = rng.standard_normal(shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = T.softmax_rows(xt)
        T.sum_all(T.elementwise_mul(out, Tensor(w))).backward()
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        s = oracle_softmax(x64)
        grad = s * (w64 - (w64 * s).sum(axis=-1, keepdims=True))
        assert out.dtype == xt.grad.dtype == np.float32
        assert out.shape == xt.grad.shape == shape and out.data.flags.c_contiguous
        np.testing.assert_array_equal(x, x_before)
        # exp(x - max) is off by at most a few ulps of the shifted value
        span = np.ptp(x64, axis=-1, keepdims=True) if x.size else 0.0
        assert_within(np.abs(out.data - s), 4 * EPS32 * (span + shape[-1] + 2))
        np.testing.assert_allclose(xt.grad, grad, rtol=0, atol=1e-5 * (1 + np.abs(w64).max(initial=0)))

    @given(row_shapes, layouts, st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_log_normaliser(self, shape, layout, seed):
        rng = np.random.default_rng(seed)
        x = laid_out(rng.normal(loc=5.0, scale=3.0, size=shape).astype(np.float32), layout)
        x_before = x.copy()
        out = _log_normaliser(Tensor(x)).data
        np.testing.assert_array_equal(x, x_before)
        expected = logsumexp(x.astype(np.float64), axis=-1, keepdims=True)
        assert out.dtype == np.float32 and out.shape == shape[:-1] + (1,)
        np.testing.assert_allclose(out, expected, rtol=4 * EPS32 * (shape[-1] + 2), atol=1e-6)

    @given(row_shapes, layouts, st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_layer_norm_and_its_gradients(self, shape, layout, seed):
        rng = np.random.default_rng(seed)
        n = shape[-1]
        x = laid_out(rng.normal(loc=2.0, scale=1.5, size=shape).astype(np.float32), layout)
        gain, bias = (rng.standard_normal(n).astype(np.float32) for _ in range(2))
        w = rng.standard_normal(shape).astype(np.float32)
        x_before = x.copy()
        ts = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = T.layer_norm(*ts)
        T.sum_all(T.elementwise_mul(out, Tensor(w))).backward()
        np.testing.assert_array_equal(x, x_before)

        x64, g64, b64, w64 = (a.astype(np.float64) for a in (x, gain, bias, w))
        xhat = oracle_layer_norm(x64)
        inv = 1.0 / np.sqrt(((x64 - x64.mean(axis=-1, keepdims=True)) ** 2).mean(axis=-1, keepdims=True)
                            + 1e-5)
        gx = w64 * g64
        grad_x = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        lead = tuple(range(len(shape) - 1))
        assert out.dtype == np.float32 and out.shape == shape and out.data.flags.c_contiguous
        # rounding in the centred values is a few ulps of the row's largest
        # entry, amplified by 1/std; the rest is a few ulps of the result
        scale = (n + 4) * EPS32 * np.abs(x64).max(axis=-1, keepdims=True) * inv
        rel = scale + EPS32 * np.sqrt(n)
        assert_within(np.abs(out.data - (xhat * g64 + b64)),
                      4 * rel * np.abs(g64) + 4 * EPS32 * np.abs(b64) + 1e-30)
        assert_within(np.abs(ts[0].grad - grad_x),
                      8 * n * rel * inv * np.abs(gx).max(axis=-1, keepdims=True) + 1e-30)
        rows = max(1, x.size // n)
        np.testing.assert_allclose(ts[1].grad, (w64 * xhat).sum(axis=lead),
                                   rtol=0, atol=rows * 8 * np.abs(scale * w64).max(initial=0) + 1e-5)
        np.testing.assert_allclose(ts[2].grad, w64.sum(axis=lead), rtol=0, atol=1e-5 * rows)

    def test_layer_norm_rejects_gain_not_one_per_feature(self):
        x = t64(np.ones((2, 3)))
        with pytest.raises(ShapeError, match="gain"):
            T.layer_norm(x, t64(np.ones((1, 3))), t64(np.zeros(3)))

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=2),
           st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matmul_gradients_for_2d_weights_match_stacked_products(self, lead, t, k, m, transposed, seed):
        # [..., t, k] @ [k, m]: both gradients from one GEMM over every
        # leading row equal the per-matrix products (summed, for the weight)
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (t, k)
        a = laid_out(rng.standard_normal(shape).astype(np.float32), "transposed" if transposed else "contiguous")
        w = rng.standard_normal((k, m)).astype(np.float32)
        g = rng.standard_normal(tuple(lead) + (t, m)).astype(np.float32)
        at, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
        T.sum_all(T.elementwise_mul(T.matmul(at, wt), Tensor(g))).backward()
        a64, w64, g64 = (v.astype(np.float64).reshape(-1, *v.shape[-2:]) for v in (a, w, g))
        grad_a = np.stack([gi @ w64[0].T for gi in g64]) if g64.size else np.zeros((0, t, k))
        grad_w = sum((ai.T @ gi for ai, gi in zip(a64, g64)), np.zeros((k, m)))
        assert at.grad.shape == shape and wt.grad.shape == (k, m)
        np.testing.assert_allclose(at.grad, grad_a.reshape(shape), rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(wt.grad, grad_w, rtol=1e-5, atol=1e-5 * (1 + a64.shape[0] * t))


class TestSigmoid:
    def test_float32_matches_float64_expit_without_warnings(self):
        grid = np.concatenate([[-1e4, -100.0, 100.0, 1e4], np.linspace(-120.0, 120.0, 240_001)])
        x = grid.astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.sigmoid(Tensor(x)).data
        assert out.dtype == np.float32 and np.all(np.isfinite(out))
        # exp(-x) overflows for x below about -88.7, where the float32 value
        # is 0 and the true one is below the smallest normal float32
        np.testing.assert_allclose(out, expit(x.astype(np.float64)), rtol=4 * EPS32,
                                   atol=float(np.finfo(np.float32).tiny))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 1.0 and out[3] == 1.0
        assert np.all(np.diff(out[4:]) >= 0)

    def test_float64_is_expit_exactly(self):
        x = np.concatenate([[-1e4, -100.0, 100.0, 1e4], np.linspace(-40.0, 40.0, 10_001)])
        np.testing.assert_array_equal(T.sigmoid(t64(x)).data, expit(x))

    def test_float32_gradient_matches_float64(self):
        x = np.linspace(-30.0, 30.0, 601)
        grads = []
        for dtype in (np.float32, np.float64):
            xt = Tensor(x.astype(dtype), requires_grad=True)
            T.sum_all(T.sigmoid(xt)).backward()
            grads.append(xt.grad)
        assert grads[0].dtype == np.float32
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-7)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert T.sigmoid(t64([0.0])).data[0] == 0.5

    def test_mul_hand_product(self):
        out = T.elementwise_mul(t64([1.0, 2.0]), t64([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_relu(self):
        np.testing.assert_array_equal(T.relu(t64([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_l2_sq(self):
        assert T.l2_sq(t64([3.0, 4.0])).item() == 25.0

    def test_layer_norm_constant_row_maps_to_bias(self):
        gain = t64([1.0, 1.0, 1.0])
        bias = t64([0.0, 0.0, 0.0])
        out = T.layer_norm(t64([[1.0, 1.0, 1.0]]), gain, bias)
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0]])

    def test_gradients_away_from_kinks(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(24)
        x = x + np.sign(x) * 2e-3  # relu kink guard |x| > 1e-3
        xs = t64(x, requires_grad=True)
        w = t64(rng.standard_normal(24))
        for op in (T.sigmoid, T.relu, T.gelu):
            check_gradients(lambda op=op: T.sum_all(T.elementwise_mul(op(xs), w)), [xs])

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((4, 5)), requires_grad=True)
        gain = t64(rng.standard_normal(5), requires_grad=True)
        bias = t64(rng.standard_normal(5), requires_grad=True)
        w = t64(rng.standard_normal((4, 5)))
        check_gradients(
            lambda: T.sum_all(T.elementwise_mul(T.layer_norm(x, gain, bias), w)),
            [x, gain, bias])


    def test_float32_layer_norm_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 22, 8))
        gain, bias = rng.standard_normal(8), rng.standard_normal(8)
        out = T.layer_norm(Tensor(x.astype(np.float32)), Tensor(gain.astype(np.float32)),
                           Tensor(bias.astype(np.float32)))
        assert out.dtype == np.float32
        expected = oracle_layer_norm(x.astype(np.float32).astype(np.float64)) * gain + bias
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_float32_layer_norm_gradient_matches_float64(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 5, 8))
        gain, bias, w = rng.standard_normal(8), rng.standard_normal(8), rng.standard_normal((16, 5, 8))
        grads = []
        for dtype in (np.float32, np.float64):
            xs = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, gain, bias)]
            T.sum_all(T.elementwise_mul(T.layer_norm(*xs), Tensor(w.astype(dtype)))).backward()
            grads.append([t.grad for t in xs])
        for g32, g64 in zip(*grads):
            assert g32.dtype == np.float32
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-5)


class TestConcatAndShaping:
    def test_concat_and_split_gradient(self):
        rng = np.random.default_rng(4)
        a = t64(rng.standard_normal((2, 3)), requires_grad=True)
        b = t64(rng.standard_normal((2, 2)), requires_grad=True)
        w = t64(rng.standard_normal((2, 5)))
        check_gradients(lambda: T.sum_all(T.elementwise_mul(T.concat(a, b, axis=-1), w)), [a, b])

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat(t64([[1.0, 2.0]]), t64([[1.0], [2.0]]), axis=1)

    def test_broadcast_to_values_and_gradient(self):
        rng = np.random.default_rng(6)
        x = t64(rng.standard_normal((1, 3, 2)), requires_grad=True)
        assert T.broadcast_to(x, (1, 3, 2)) is x
        np.testing.assert_array_equal(T.broadcast_to(x, (4, 3, 2)).data, np.repeat(x.data, 4, axis=0))
        w = t64(rng.standard_normal((4, 3, 2)))
        check_gradients(lambda: T.sum_all(T.elementwise_mul(T.broadcast_to(x, (4, 3, 2)), w)), [x])
        with pytest.raises(ShapeError, match="cannot broadcast"):
            T.broadcast_to(x, (4, 2, 2))

    def test_select_row_gradient(self):
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = t64(rng.standard_normal((2, 4)))
        check_gradients(lambda: T.sum_all(T.elementwise_mul(T.select_row(x, 1), w)), [x])
        # the row's gradient lands exactly, on top of what x already holds
        x.zero_grad()
        v = rng.standard_normal((2, 3, 4))
        T.add(T.sum_all(T.elementwise_mul(x, t64(v))),
              T.sum_all(T.elementwise_mul(T.select_row(x, 1), w))).backward()
        expected = v.copy()
        expected[:, 1] += w.data
        np.testing.assert_array_equal(x.grad, expected)

    def test_gather_rows_gradient_touches_rows(self):
        table = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = T.gather_rows(table, idx)
        np.testing.assert_array_equal(out.data, table.data[idx])
        T.sum_all(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_gather_out_of_range(self):
        table = t64(np.zeros((4, 3)))
        with pytest.raises(IndexError, match="4 rows"):
            T.gather_rows(table, np.array([0, 4]))


class TestGatherScatter:
    """gather_rows' backward scatters through one flat np.add.at; it must add
    every element in the order a row-wise np.add.at does."""

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           vocab=st.integers(min_value=1, max_value=6),
           dim=st.integers(min_value=1, max_value=5),
           shape=st.sampled_from([(0,), (1,), (9,), (0, 3), (2, 1), (3, 4)]),
           base=st.sampled_from([None, "c", "fortran"]),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_gradient_equals_row_wise_scatter_bit_for_bit(self, dtype, vocab, dim, shape, base,
                                                          seed):
        rng = np.random.default_rng(seed)
        table = Tensor(rng.standard_normal((vocab, dim)).astype(dtype), requires_grad=True)
        # few rows, so most draws repeat a row
        idx = rng.integers(0, vocab, size=shape)
        w = rng.standard_normal((*shape, dim)).astype(dtype)
        expected = np.zeros((vocab, dim), dtype)
        if base is not None:
            # a gradient already there, as after the other forward of a step
            expected = rng.standard_normal((vocab, dim)).astype(dtype)
            table.grad = expected.copy(order="F" if base == "fortran" else "C")
        T.sum_all(T.elementwise_mul(T.gather_rows(table, idx), Tensor(w))).backward()
        np.add.at(expected, idx, w)
        assert table.grad.dtype == dtype and table.grad.shape == (vocab, dim)
        assert table.grad.tobytes() == expected.tobytes()


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = t64([[1.0, 2.0]])
        assert T.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_eval_mode_is_identity_bit_for_bit(self):
        x = t64([[1.0, -2.0, 3.0]])
        out = T.dropout(x, 0.5, False)
        assert out is x

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(11)
        x = t64(np.ones(10000))
        out = T.dropout(x, 0.25, True, rng).data
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)
        assert abs(survivors.size / 10000 - 0.75) < 0.03

    def test_deterministic_given_seed(self):
        x = t64(np.arange(64, dtype=np.float64))
        a = T.dropout(x, 0.3, True, np.random.default_rng(9)).data
        b = T.dropout(x, 0.3, True, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)

    def test_gradient(self):
        x = t64(np.linspace(-1, 1, 10), requires_grad=True)
        rng_seed = 21

        def loss():
            return T.sum_all(T.dropout(x, 0.4, True, np.random.default_rng(rng_seed)))

        check_gradients(loss, [x])


class TestScalarAndLossOps:
    def test_clamp_and_log_gradients(self):
        x = t64(np.linspace(0.2, 0.8, 7), requires_grad=True)
        check_gradients(lambda: T.sum_all(T.log(T.clamp(x, 1e-7, 1 - 1e-7))), [x])

    def test_scale_add_scalar(self):
        x = t64([2.0])
        assert T.add_scalar(T.scale(x, -1.0), 1.0).data[0] == -1.0

    def test_cast_round_trip_gradient(self):
        x = Tensor(np.array([1.5, -2.5], dtype=np.float64), requires_grad=True)
        loss = T.sum_all(T.cast(T.cast(x, np.float32), np.float64))
        loss.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_backward_requires_scalar(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            T.scale(x, 2.0).backward()


class TestTensorInvariants:
    def test_grad_shape_matches_data(self):
        rng = np.random.default_rng(6)
        x = t64(rng.standard_normal((3, 4)), requires_grad=True)
        T.sum_all(T.sigmoid(x)).backward()
        assert x.grad.shape == x.data.shape

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(7)
        x = t64(rng.normal(scale=5.0, size=(6, 6)))
        gain, bias = t64(np.ones(6)), t64(np.zeros(6))
        for out in (T.sigmoid(x), T.relu(x), T.gelu(x), T.softmax_rows(x),
                    T.layer_norm(x, gain, bias), T.l2_sq(x)):
            assert np.all(np.isfinite(out.data))

    def test_int_input_coerced_to_default_dtype(self):
        assert Tensor([1, 2, 3]).dtype == np.float32


class TestGradMode:
    def test_no_grad_skips_graph(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            out = T.sigmoid(x)
        assert out.requires_grad is False and out._backward is None

    def test_no_grad_is_thread_local(self):
        # evaluation workers toggle no_grad concurrently; the mode must not
        # leak across threads (a shared flag can be left disabled forever)
        from concurrent.futures import ThreadPoolExecutor

        x = t64([1.0], requires_grad=True)

        def worker(_):
            for _ in range(200):
                with T.no_grad():
                    T.sigmoid(x)
            return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(worker, range(16)))
        assert T.grad_enabled()
        out = T.sigmoid(x)
        assert out.requires_grad  # graph construction still active afterwards


class TestParameterRegistry:
    def test_duplicate_name_rejected(self):
        reg = T.ParameterRegistry()
        reg.add("w", np.zeros(2))
        with pytest.raises(ConfigError, match="duplicate"):
            reg.add("w", np.zeros(2))

    def test_state_round_trip(self):
        reg = T.ParameterRegistry()
        reg.add("a", np.arange(4, dtype=np.float32))
        reg.add("b", np.ones((2, 2), dtype=np.float32))
        state = {k: v.copy() for k, v in reg.state_arrays().items()}
        state["a"][:] = 9.0
        reg.load_arrays(state)
        np.testing.assert_array_equal(reg["a"].data, [9.0] * 4)

    def test_load_shape_mismatch(self):
        reg = T.ParameterRegistry()
        reg.add("a", np.zeros(3))
        with pytest.raises(ShapeError):
            reg.load_arrays({"a": np.zeros(4, dtype=np.float32)})
