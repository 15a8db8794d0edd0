"""Layer behaviour against hand evaluations and scripted numpy oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedrank import layers as L
from feedrank import tensor as T
from feedrank.data import SideInfo
from feedrank.tensor import ConfigError, ParameterRegistry, ShapeError, Tensor

from conftest import (check_gradients, csr_to_dense, same_bits, scaled_scores_attention, side_bag,
                      to_float64, whole_array_shared_prefix_layer)


def make_table(rows, side_projection=None):
    reg = ParameterRegistry()
    p_rows = reg.add("t.rows", np.asarray(rows, dtype=np.float64))
    p_side = None
    if side_projection is not None:
        p_side = reg.add("t.side", np.asarray(side_projection, dtype=np.float64))
    return L.EmbeddingTable(p_rows, p_side)


def make_transformer(dim, heads, rng=None, dropout=0.0):
    reg = ParameterRegistry()
    layer = L.TransformerLayer(reg, "trm", dim, heads, rng or np.random.default_rng(0),
                               dropout_rate=dropout)
    to_float64(reg)
    return layer, reg


def attention_weights(h, layer, query=None):
    """Each head's softmax of its scaled query-key scores, as
    ``multi_head_self_attention`` weighs the value rows."""
    query = h if query is None else query
    inv_scale = 1.0 / math.sqrt(layer.head_dim)
    return [T.softmax_rows(T.matmul(T.scale(T.matmul(query, layer.wq[i]), inv_scale),
                                    T.transpose_last2(T.matmul(h, layer.wk[i]))))
            for i in range(layer.heads)]


# --- scripted oracles (independent step-by-step numpy evaluations) ---------


def oracle_attention(h, wq, wk, wv, wo, heads):
    d = h.shape[1]
    outs = []
    for i in range(heads):
        q, k, v = h @ wq[i], h @ wk[i], h @ wv[i]
        scores = q @ k.T / math.sqrt(d / heads)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        outs.append(a @ v)
    return np.concatenate(outs, axis=1) @ wo


def oracle_ffn_row(x, w1, b1, w2, b2):
    pre = x @ w1 + b1
    glu = 0.5 * pre * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (pre + 0.044715 * pre ** 3)))
    return glu @ w2 + b2


def oracle_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def embed(table, index, side=None):
    """One row of ``table`` as a [dim] vector, with the weighted bag of a
    dense side vector when one is given."""
    if side is None:
        return table.lookup(np.asarray([index])).data[0]
    columns = table.side_columns(*side_bag(np.asarray(side)[None, :]))
    return table.lookup(np.asarray([index]), columns, np.zeros(1, dtype=np.int64)).data[0]


class TestEmbedding:
    def test_plain_lookup(self):
        table = make_table([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(embed(table, 2), [2.0, 2.0])

    def test_zero_side_vector_matches_plain_lookup(self):
        rng = np.random.default_rng(3)
        table = make_table(rng.standard_normal((3, 2)), rng.standard_normal((2, 4)))
        plain = embed(table, 1, np.zeros(4))
        np.testing.assert_array_equal(plain, table.rows.data[1])

    def test_side_projection_hand_product(self):
        # first projection column (5,5): side (1,0) adds exactly that column
        table = make_table([[1.0, 2.0]], [[5.0, 7.0], [5.0, 9.0]])
        out = embed(table, 0, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [6.0, 7.0])

    def test_out_of_range_index(self):
        table = make_table(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            embed(table, 3)

    def test_inverse_must_match_indices(self):
        table = make_table(np.zeros((3, 2)), np.ones((2, 4)))
        columns = table.side_columns(np.array([[0, 1], [2, -1]]))
        with pytest.raises(ShapeError, match="inverse"):
            table.lookup(np.array([0, 1, 2]), columns, np.array([0, 1]))

    def test_gradient_flows_to_row_and_projection(self):
        rng = np.random.default_rng(4)
        table = make_table(rng.standard_normal((4, 3)), rng.standard_normal((3, 2)))
        side = side_bag(rng.standard_normal((2, 2)))
        # row 0 occurs twice and shares its bag
        idx, inverse = np.array([0, 2, 0]), np.array([0, 1, 0])
        check_gradients(
            lambda: T.sum_all(T.l2_sq(table.lookup(idx, table.side_columns(*side), inverse))),
            [table.rows, table.side_projection], tol=1e-6)


class TestSideBagLookup:
    """A lookup with SideInfo's category bags adds what the dense multi-hot
    (or frequency) matrix of the same CSR rows times the projection adds."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_categories=st.integers(1, 9), vocab=st.integers(1, 8),
           dim=st.integers(1, 4), shape=st.sampled_from([(0,), (1,), (6,), (2, 3), (3, 0), (2, 2, 2)]),
           seed=st.integers(0, 2 ** 16))
    def test_equals_dense_product(self, data, num_categories, vocab, dim, shape, seed):
        def csr(max_size):
            rows = [sorted(data.draw(st.sets(st.integers(0, num_categories - 1), max_size=max_size)))
                    for _ in range(vocab)]
            offsets = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
            return offsets, np.array([c for r in rows for c in r], dtype=np.int64)

        item_offsets, item_flat = csr(3)
        user_offsets, user_flat = csr(num_categories)
        rng = np.random.default_rng(seed)
        user_weights = rng.uniform(0.0, 1.0, user_flat.size)
        side = SideInfo([str(c) for c in range(num_categories)],
                        item_offsets, item_flat, user_offsets, user_flat, user_weights)
        table = make_table(rng.standard_normal((vocab, dim)), rng.standard_normal((dim, num_categories)))
        rows = rng.integers(0, vocab, shape)
        distinct, inverse = np.unique(rows, return_inverse=True)
        inverse = inverse.reshape(rows.shape)
        projection = table.side_projection.data
        for bag, (values, offsets, flat) in (
                ((side.item_matrix(distinct), None), (None, item_offsets, item_flat)),
                (side.user_matrix(distinct), (user_weights, user_offsets, user_flat))):
            dense = csr_to_dense(offsets, flat, values, rows, num_categories, np.float64)
            got = table.lookup(rows, table.side_columns(*bag), inverse).data
            np.testing.assert_allclose(got, table.rows.data[rows] + dense @ projection.T, rtol=0, atol=1e-12)


class TestMultiHeadSelfAttention:
    def test_single_row_weights_are_one(self):
        layer, _ = make_transformer(4, 2)
        h = Tensor(np.random.default_rng(5).standard_normal((1, 4)))
        out = L.multi_head_self_attention(h, layer)
        for w in attention_weights(h, layer):
            np.testing.assert_allclose(w.data, [[1.0]])
        per_head = [h.data @ layer.wq[i].data for i in range(2)]  # shape check only
        assert out.shape == (1, 4)

    def test_identical_rows_give_identical_outputs(self):
        layer, _ = make_transformer(4, 2)
        row = np.random.default_rng(6).standard_normal(4)
        out = L.multi_head_self_attention(Tensor(np.stack([row, row])), layer)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)

    def test_matches_scripted_oracle_t2_d2_h1(self):
        layer, _ = make_transformer(2, 1)
        layer.wq[0].data = np.array([[0.3, -0.2], [0.5, 0.1]])
        layer.wk[0].data = np.array([[-0.4, 0.2], [0.6, 0.7]])
        layer.wv[0].data = np.array([[0.1, 0.9], [-0.3, 0.2]])
        layer.wo.data = np.array([[1.1, -0.5], [0.2, 0.8]])
        h = np.array([[0.5, -1.0], [1.5, 0.25]])
        out = L.multi_head_self_attention(Tensor(h), layer)
        expected = oracle_attention(h, [layer.wq[0].data], [layer.wk[0].data],
                                    [layer.wv[0].data], layer.wo.data, heads=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_oracle_multi_head_batched(self):
        rng = np.random.default_rng(7)
        layer, _ = make_transformer(6, 3, rng)
        h = rng.standard_normal((2, 4, 6))
        out = L.multi_head_self_attention(Tensor(h), layer)
        for b in range(2):
            expected = oracle_attention(h[b], [p.data for p in layer.wq],
                                        [p.data for p in layer.wk],
                                        [p.data for p in layer.wv], layer.wo.data, heads=3)
            np.testing.assert_allclose(out.data[b], expected, atol=1e-10)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        layer, _ = make_transformer(4, 2, rng)
        h = Tensor(rng.standard_normal((5, 4)))
        for w in attention_weights(h, layer):
            np.testing.assert_allclose(w.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        layer, _ = make_transformer(4, 2, rng)
        h = rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        out = L.multi_head_self_attention(Tensor(h), layer).data
        out_perm = L.multi_head_self_attention(Tensor(h[perm]), layer).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_dim_not_divisible_by_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            make_transformer(5, 2)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        layer, reg = make_transformer(4, 2, rng)
        h = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        tensors = [h] + [p for p in reg if "ln" not in p.name and "ffn" not in p.name]
        check_gradients(lambda: T.l2_sq(L.multi_head_self_attention(h, layer)), tensors, tol=1e-5)


class TestScaleFold:
    """Full self-attention scales the queries by 1/sqrt(d_h) instead of the
    scores. That is exact when the scale is a power of two (d_h = 4); at
    d_h = 8 each scaled query rounds once, which stays within 1e-5 of every
    float32 output's and gradient's largest entry (about 84 units in the
    last place of 1.0). A one-row query takes the folded form instead
    (``TestOneQueryAttention``)."""

    @pytest.mark.parametrize("dim, exact", [(8, True), (16, False)])
    def test_matches_scaled_scores(self, dim, exact):
        rng = np.random.default_rng(dim)
        reg = ParameterRegistry()
        layer = L.TransformerLayer(reg, "trm", dim, 2, rng)
        x = Tensor(rng.standard_normal((3, 5, dim)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 5, dim)).astype(np.float32))

        def run(attention):
            x.grad = None
            reg.zero_grads()
            out = attention(x, layer)
            T.sum_all(T.elementwise_mul(out, weight)).backward()
            return [out.data, x.grad] + [p.grad for p in reg if p.grad is not None]

        got, want = run(L.multi_head_self_attention), run(scaled_scores_attention)
        assert len(got) == len(want) == 2 + 3 * 2 + 1   # out, x, W_q, W_k, W_v per head, W_o
        for a, b in zip(got, want):
            if exact:
                assert same_bits(a, b)
            else:
                assert a.dtype == np.float32
                assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))


class TestOneQueryAttention:
    """A query of one row per sequence takes the folded form
    (``layers._one_query_attention``): the score and output weights are
    multiplied together, so no row of the keys is projected. It must agree
    with the per-head form given the same one-row query, and with that
    row of the full layer, to float rounding: within 1e-10 in float64 and
    1e-5 in float32 of the outputs' scale, and of the gradients' largest
    entry. Both scales bound the terms summed, not the sums, which can
    cancel to far less in either form (float32 Wq gradients of the
    per-head form drew 9e-5 of their own largest entry off float64, and a
    one-entry output 4.4e-5 of itself off the folded form's). Each output
    row averages, per head, rows ``h·Wv_i·Wo_i``, so its scale is the
    largest entry of ``|h|·Σ_i |Wv_i·Wo_i|``. A weight's gradient sums B·t
    terms on the scale of the others' entries, so the gradients share one
    scale."""

    @staticmethod
    def run(attention, layer, reg, x, r, weight):
        """Output of ``attention(h, layer, query)`` with query row ``r`` of
        ``x``, and the gradients of sum(output * weight): ``x``'s, then each
        parameter's that gets one."""
        h = Tensor(x, requires_grad=True)
        reg.zero_grads()
        query = T.reshape(T.select_row(h, r), (x.shape[0], 1, x.shape[2]))
        out = attention(h, layer, query)
        T.sum_all(T.elementwise_mul(out, Tensor(weight))).backward()
        return [out.data, h.grad] + [p.grad for p in reg if p.grad is not None]

    def check(self, layer, reg, x, r, tol):
        weight = np.random.default_rng(r).standard_normal((x.shape[0], 1, x.shape[2])).astype(x.dtype)

        def full_row(h, layer, query):
            return T.reshape(T.select_row(L.multi_head_self_attention(h, layer), r), query.shape)

        hd = layer.head_dim
        out_scale = np.max(np.abs(x) @ sum(np.abs(wv.data @ layer.wo.data[i * hd:(i + 1) * hd])
                                           for i, wv in enumerate(layer.wv)))
        got = self.run(L.multi_head_self_attention, layer, reg, x, r, weight)
        assert len(got) == 2 + 3 * layer.heads + 1   # out, x, W_q, W_k, W_v per head, W_o
        for oracle in (scaled_scores_attention, full_row):
            want = self.run(oracle, layer, reg, x, r, weight)
            assert len(want) == len(got)
            grad_scale = max(np.max(np.abs(b)) for b in want[1:])
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype == x.dtype and a.shape == b.shape
                assert np.max(np.abs(a - b)) <= tol * (out_scale if i == 0 else grad_scale)

    @settings(max_examples=100, deadline=None)
    @given(b=st.integers(1, 40), t=st.integers(1, 23), heads=st.sampled_from([1, 2, 4]),
           head_dim=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_per_head_form_and_full_layer(self, b, t, heads, head_dim, data, seed):
        rng = np.random.default_rng(seed)
        reg = ParameterRegistry()
        layer = L.TransformerLayer(reg, "trm", heads * head_dim, heads, rng)
        x = rng.standard_normal((b, t, heads * head_dim)).astype(np.float32)
        r = data.draw(st.integers(0, t - 1), label="query row")
        self.check(layer, reg, x, r, 1e-5)
        to_float64(reg)
        self.check(layer, reg, x.astype(np.float64), r, 1e-10)

    @pytest.mark.parametrize("dim", [8, 16])
    def test_matches_scaled_scores(self, dim):
        # 2 heads of d_h = 4 and 8: the query-row cases of TestScaleFold,
        # which the folded form matches to rounding, not bit for bit
        rng = np.random.default_rng(dim + 1)
        reg = ParameterRegistry()
        layer = L.TransformerLayer(reg, "trm", dim, 2, rng)
        self.check(layer, reg, rng.standard_normal((3, 5, dim)).astype(np.float32), 0, 1e-5)

    def test_large_parameters_stay_finite(self):
        # scores in the thousands saturate the softmax on one key, with no
        # overflow warning (the suite fails on any RuntimeWarning)
        rng = np.random.default_rng(30)
        reg = ParameterRegistry()
        layer = L.TransformerLayer(reg, "trm", 8, 2, rng)
        for p in reg:
            p.data *= 30
        x = rng.standard_normal((50, 22, 8)).astype(np.float32)
        got = self.run(L.multi_head_self_attention, layer, reg, x, 0, np.ones((50, 1, 8), np.float32))
        assert all(np.isfinite(a).all() for a in got)

    def test_unbatched_query_matches_full_layer(self):
        # keys [t, d] and a query [1, d]
        rng = np.random.default_rng(32)
        layer, _ = make_transformer(8, 4, rng)
        h = rng.standard_normal((6, 8))
        full = L.multi_head_self_attention(Tensor(h), layer).data
        for r in range(6):
            row = L.multi_head_self_attention(Tensor(h), layer, query=Tensor(h[r:r + 1]))
            assert row.shape == (1, 8)
            np.testing.assert_allclose(row.data, full[r:r + 1], rtol=0, atol=1e-10 * np.abs(full).max())

    def test_two_row_query_is_refused(self):
        layer, _ = make_transformer(4, 2)
        x = Tensor(np.random.default_rng(31).standard_normal((2, 5, 4)))
        with pytest.raises(ShapeError, match="one row per sequence"):
            L.multi_head_self_attention(x, layer, query=Tensor(x.data[:, :2]))
        with pytest.raises(ShapeError, match="one row per sequence"):
            L.transformer_layer(x, layer, query=Tensor(x.data[:, :2]))


def shared_prefix_case(rng, c, t, heads, head_dim):
    """A float32 layer with every bias, gain and shift drawn at random, a
    prefix [1, t, d] and targets [C, 1, d]."""
    d = heads * head_dim
    reg = ParameterRegistry()
    layer = L.TransformerLayer(reg, "trm", d, heads, rng)
    for p in (layer.ffn_b1, layer.ffn_b2, layer.ln1_gain, layer.ln1_bias, layer.ln2_gain, layer.ln2_bias):
        p.data += rng.standard_normal(p.shape).astype(np.float32)
    prefix = rng.standard_normal((1, t, d)).astype(np.float32)
    targets = rng.standard_normal((c, 1, d)).astype(np.float32)
    return layer, reg, prefix, targets


def explicit_batch(prefix, targets):
    """The C sequences ``[prefix; targets[c]]`` as one [C, t + 1, d] batch."""
    return np.concatenate([np.broadcast_to(prefix, (len(targets),) + prefix.shape[1:]), targets], axis=1)


def check_matches_explicit_batch(shared_and_explicit, rounding_gain, c, t, heads, head_dim, seed):
    """``shared_and_explicit(layer, prefix, targets)`` gives the shared path's
    output and the explicit batch's, both [C, t + 1, d]: float64 within
    1e-10, float32 within 1e-5 of float64 in the form below, times
    ``rounding_gain(layer, batch)`` (per row), and the inputs unchanged."""
    layer, reg, prefix, targets = shared_prefix_case(np.random.default_rng(seed), c, t, heads, head_dim)
    inputs = prefix.copy(), targets.copy()
    shared32, _ = shared_and_explicit(layer, prefix, targets)
    np.testing.assert_array_equal(prefix, inputs[0])
    np.testing.assert_array_equal(targets, inputs[1])
    to_float64(reg)
    prefix, targets = prefix.astype(np.float64), targets.astype(np.float64)
    shared, explicit = shared_and_explicit(layer, prefix, targets)
    assert shared32.dtype == np.float32 and shared.dtype == np.float64
    assert shared.shape == explicit.shape == (c, t + 1, heads * head_dim)
    np.testing.assert_allclose(shared, explicit, rtol=0, atol=1e-10)
    # 1e-5 of the output's scale: an entry that sums terms of both signs
    # to near 0 keeps only their absolute error, in either path
    err = np.abs(shared32 - shared)
    tol = rounding_gain(layer, explicit_batch(prefix, targets)) * (
        1e-5 * np.abs(shared) + 1e-5 * np.abs(shared).max())
    assert (err <= tol).all(), f"float32 off by {(err / tol).max():.3g} times its tolerance"


def check_large_parameters_stay_finite(shared_and_explicit, dtype):
    """Parameters x30: finite, no warning, and equal to the explicit batch
    within 1e-5 of its scale."""
    layer, reg, prefix, targets = shared_prefix_case(np.random.default_rng(30), 50, 6, 2, 4)
    if dtype == np.float64:
        to_float64(reg)
    for p in reg:
        p.data *= 30
    shared, explicit = shared_and_explicit(layer, prefix.astype(dtype), targets.astype(dtype))
    assert shared.dtype == dtype and np.isfinite(shared).all()
    np.testing.assert_allclose(shared, explicit, rtol=1e-5, atol=1e-5 * np.abs(explicit).max())


class TestSharedPrefixAttention:
    """``_shared_prefix_attention`` runs C sequences ``[prefix; target c]``
    at once, feature-major; it must equal the same layer's attention on
    the explicit [C, t + 1, d] batch."""

    @staticmethod
    def shared_and_explicit(layer, prefix, targets):
        with T.no_grad():
            shared = L._shared_prefix_attention(prefix[0], targets[:, 0].T, layer)
            explicit = L.multi_head_self_attention(Tensor(explicit_batch(prefix, targets)), layer).data
        return shared.transpose(2, 1, 0), explicit

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(2, 40), t=st.integers(1, 8), heads=st.sampled_from([1, 2, 4]),
           head_dim=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_explicit_batch(self, c, t, heads, head_dim, seed):
        check_matches_explicit_batch(self.shared_and_explicit, lambda layer, batch: 1.0,
                                     c, t, heads, head_dim, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_parameters_stay_finite(self, dtype):
        # scores in the thousands: merge weights saturate to 0 or 1 and the
        # target row's softmax to one key, with no overflow warning
        check_large_parameters_stay_finite(self.shared_and_explicit, dtype)


class TestSharedPrefixLayer:
    """``transformer_layer(prefix, layer, target=)`` runs the whole layer
    for C sequences on one feature-major array; it must equal the layer on
    the explicit [C, t + 1, d] batch."""

    @staticmethod
    def shared_and_explicit(layer, prefix, targets):
        with T.no_grad():
            shared = L.transformer_layer(Tensor(prefix), layer, target=Tensor(targets)).data
            explicit = L.transformer_layer(Tensor(explicit_batch(prefix, targets)), layer).data
        assert shared.flags.c_contiguous
        return shared, explicit

    @staticmethod
    def rounding_gain(layer, batch):
        """A layer norm divides its input row's float32 rounding, a few ulps
        of the row's largest entry, by the row's std: each row's gain is the
        larger of max|row| / std over its two layer norms' inputs, in
        float64. On a few features of nearly equal value it is large, in
        either path (d = 2 drew a case whose explicit float32 layer was
        2.1e-5 off float64, 2.8e-5 of the output's scale)."""
        with T.no_grad():
            x = Tensor(batch)
            pre1 = T.add(x, L.multi_head_self_attention(x, layer))
            a = T.layer_norm(pre1, layer.ln1_gain, layer.ln1_bias)
            pre2 = T.add(a, L.pffn(a, layer))
        return np.maximum(*(np.abs(p.data).max(axis=-1, keepdims=True)
                            / np.sqrt(p.data.var(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
                            for p in (pre1, pre2)))

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(2, 40), t=st.integers(1, 8), heads=st.sampled_from([1, 2, 4]),
           head_dim=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_explicit_batch(self, c, t, heads, head_dim, seed):
        check_matches_explicit_batch(self.shared_and_explicit, self.rounding_gain,
                                     c, t, heads, head_dim, seed)

    @settings(max_examples=60, deadline=None)
    @given(c=st.sampled_from([1, L.BLOCK - 1, L.BLOCK, L.BLOCK + 1, 2 * L.BLOCK + 3]), t=st.integers(1, 8),
           heads=st.sampled_from([1, 2, 4]), head_dim=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_candidate_blocks_match_the_whole_array_layer(self, c, t, heads, head_dim, seed):
        # C on either side of the block size: one partial block, one full
        # block, and full blocks followed by a partial one
        layer, reg, prefix, targets = shared_prefix_case(np.random.default_rng(seed), c, t, heads, head_dim)
        to_float64(reg)
        prefix, targets = Tensor(prefix.astype(np.float64)), Tensor(targets.astype(np.float64))
        with T.no_grad():
            blocked = L.transformer_layer(prefix, layer, target=targets).data
        whole = whole_array_shared_prefix_layer(prefix, targets, layer)
        assert blocked.shape == (c, t + 1, heads * head_dim) and blocked.flags.c_contiguous
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_parameters_stay_finite(self, dtype):
        # attention scores in the thousands and PFFN pre-activations far
        # into GELU's saturated tails, with no overflow warning
        check_large_parameters_stay_finite(self.shared_and_explicit, dtype)


class TestPFFN:
    def test_zero_weights_zero_output(self):
        layer, _ = make_transformer(3, 1)
        for p in (layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2):
            p.data[:] = 0.0
        out = L.pffn(Tensor(np.ones((2, 3))), layer)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_position_independence(self):
        rng = np.random.default_rng(11)
        layer, _ = make_transformer(3, 1, rng)
        rows = rng.standard_normal((4, 3))
        full = L.pffn(Tensor(rows), layer).data
        for j in range(4):
            single = L.pffn(Tensor(rows[j:j + 1]), layer).data
            np.testing.assert_allclose(full[j], single[0], atol=1e-12)

    def test_matches_scripted_oracle_d2(self):
        layer, _ = make_transformer(2, 1)
        layer.ffn_w1.data = np.arange(16, dtype=np.float64).reshape(2, 8) * 0.1
        layer.ffn_b1.data = np.linspace(-0.4, 0.3, 8)
        layer.ffn_w2.data = np.arange(16, dtype=np.float64).reshape(8, 2) * -0.05
        layer.ffn_b2.data = np.array([0.2, -0.1])
        a = np.array([[0.7, -1.2], [0.0, 2.0]])
        out = L.pffn(Tensor(a), layer)
        expected = oracle_ffn_row(a, layer.ffn_w1.data, layer.ffn_b1.data,
                                  layer.ffn_w2.data, layer.ffn_b2.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        layer, reg = make_transformer(2, 1, rng)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        tensors = [a, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2]
        check_gradients(lambda: T.l2_sq(L.pffn(a, layer)), tensors, tol=1e-5)


class TestTransformerLayer:
    def test_zero_projections_reduce_to_double_layer_norm(self):
        layer, _ = make_transformer(4, 2)
        for plist in (layer.wq, layer.wk, layer.wv):
            for p in plist:
                p.data[:] = 0.0
        layer.wo.data[:] = 0.0
        for p in (layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2):
            p.data[:] = 0.0
        x = np.random.default_rng(13).standard_normal((3, 4))
        out = L.transformer_layer(Tensor(x), layer, training=False)
        np.testing.assert_allclose(out.data, oracle_layer_norm(oracle_layer_norm(x)), atol=1e-10)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(14)
        layer, _ = make_transformer(6, 2, rng)
        for t in (1, 2, 7):
            out = L.transformer_layer(Tensor(rng.standard_normal((t, 6))), layer)
            assert out.shape == (t, 6)

    def test_one_vs_two_stacked_layers_differ(self):
        rng = np.random.default_rng(15)
        layer1, _ = make_transformer(4, 2, rng)
        reg2 = ParameterRegistry()
        layer2 = L.TransformerLayer(reg2, "trm2", 4, 2, rng, dropout_rate=0.0)
        to_float64(reg2)
        x = Tensor(rng.standard_normal((3, 4)))
        one = L.transformer_layer(x, layer1).data
        two = L.transformer_layer(L.transformer_layer(x, layer1), layer2).data
        assert np.max(np.abs(one - two)) > 1e-3

    def test_eval_mode_deterministic_and_dropout_free(self):
        rng = np.random.default_rng(16)
        layer, _ = make_transformer(4, 2, rng, dropout=0.5)
        x = Tensor(rng.standard_normal((3, 4)))
        a = L.transformer_layer(x, layer, training=False).data
        b = L.transformer_layer(x, layer, training=False).data
        np.testing.assert_array_equal(a, b)
        c = L.transformer_layer(x, layer, training=True, rng=np.random.default_rng(0)).data
        assert np.max(np.abs(a - c)) > 0  # dropout actually does something in training

    def test_query_rows_match_full_layer(self):
        # a query block computes exactly the rows of the full layer it names
        rng = np.random.default_rng(19)
        layer, _ = make_transformer(4, 2, rng)
        x = Tensor(rng.standard_normal((2, 5, 4)))
        full = L.transformer_layer(x, layer).data
        for r in range(5):
            part = L.transformer_layer(x, layer, query=Tensor(x.data[:, r:r + 1]))
            assert part.shape == (2, 1, 4)
            np.testing.assert_allclose(part.data, full[:, r:r + 1], atol=1e-12)
        weights = attention_weights(x, layer, query=Tensor(x.data[:, :2]))
        assert [w.shape for w in weights] == [(2, 2, 5)] * 2

    def test_query_gradients(self):
        rng = np.random.default_rng(20)
        layer, reg = make_transformer(4, 2, rng)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        tensors = [x] + list(reg)
        def loss():
            user_row = T.reshape(T.select_row(x, 0), (2, 1, 4))
            return T.l2_sq(L.transformer_layer(x, layer, query=user_row))

        check_gradients(loss, tensors, tol=1e-5, h=1e-3)

    def test_full_layer_gradients(self):
        # h=1e-3: the double layer-norm composition amplifies float64
        # rounding noise in the difference quotient at smaller steps
        rng = np.random.default_rng(17)
        layer, reg = make_transformer(4, 2, rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        tensors = [x] + list(reg)
        check_gradients(lambda: T.l2_sq(L.transformer_layer(x, layer)), tensors, tol=1e-5, h=1e-3)


class TestDenseLayer:
    def test_forward_matches_affine(self):
        reg = ParameterRegistry()
        rng = np.random.default_rng(18)
        layer = L.DenseLayer.build(reg, "d", 3, 2, "identity", rng)
        to_float64(reg)
        x = rng.standard_normal((4, 3))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x @ layer.weight.data.T + layer.bias.data, atol=1e-12)

    def test_tower_halves_widths(self):
        reg = ParameterRegistry()
        tower = L.dense_tower(reg, "t", 16, [8, 4, 2], "relu", np.random.default_rng(0))
        assert [l.weight.shape for l in tower] == [(8, 16), (4, 8), (2, 4)]

    def test_unknown_activation(self):
        reg = ParameterRegistry()
        rng = np.random.default_rng(19)
        with pytest.raises(ConfigError):
            L.DenseLayer.build(reg, "d", 2, 2, "swish", rng)

    def test_gradients(self):
        reg = ParameterRegistry()
        rng = np.random.default_rng(20)
        layer = L.DenseLayer.build(reg, "d", 3, 2, "gelu", rng)
        to_float64(reg)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_gradients(lambda: T.l2_sq(layer(x)), [x, layer.weight, layer.bias], tol=1e-5)
