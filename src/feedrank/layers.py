"""Neural building blocks: dense layers, embedding tables with optional side
projections, and the bidirectional transformer layer used by the session
encoder (multi-head self-attention + position-wise feed-forward, each wrapped
in dropout/residual/layer-norm)."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import ConfigError, Parameter, ParameterRegistry, ShapeError, Tensor

# candidates per block of the shared-prefix layer's row-wise half: a
# block's [4d, (t + 1)·B] hidden array stays in cache
BLOCK = 128

ACTIVATIONS = {
    "relu": T.relu,
    "sigmoid": T.sigmoid,
    "gelu": T.gelu,
    "identity": lambda x: x,
}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(T.DEFAULT_DTYPE)


def embedding_init(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return (rng.standard_normal(shape) * 0.01).astype(T.DEFAULT_DTYPE)


class DenseLayer:
    """Affine map ``activation(x @ W.T + b)`` with weight stored as [out, in]."""

    def __init__(self, weight: Parameter, bias: Parameter, activation: str = "identity"):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        out_dim, in_dim = weight.shape
        if bias.shape != (out_dim,):
            raise ShapeError(f"bias shape {bias.shape} vs weight {weight.shape}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @classmethod
    def build(cls, params: ParameterRegistry, name: str, in_dim: int, out_dim: int,
              activation: str, rng: np.random.Generator) -> "DenseLayer":
        w = params.add(f"{name}.weight", glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim)))
        b = params.add(f"{name}.bias", np.zeros(out_dim, dtype=T.DEFAULT_DTYPE))
        return cls(w, b, activation)

    def __call__(self, x: Tensor) -> Tensor:
        y = T.linear(x, self.weight, self.bias)
        return ACTIVATIONS[self.activation](y)


class EmbeddingTable:
    """Row lookup table, optionally fused with a linear projection of a bag
    of side categories (equivalent to embedding the concatenation of a
    one-hot id with the bag's weighted multi-hot, materializing neither)."""

    def __init__(self, rows: Parameter, side_projection: Optional[Parameter] = None):
        self.rows = rows
        self.side_projection = side_projection

    @classmethod
    def build(cls, params: ParameterRegistry, name: str, vocab: int, dim: int,
              rng: np.random.Generator, side_dim: int = 0) -> "EmbeddingTable":
        rows = params.add(f"{name}.rows", embedding_init(rng, (vocab, dim)))
        side = None
        if side_dim > 0:
            side = params.add(f"{name}.side_projection",
                              glorot_uniform(rng, side_dim, dim, (dim, side_dim)))
        return cls(rows, side)

    def side_columns(self, ids: Optional[np.ndarray], weights: Optional[np.ndarray] = None) -> Optional[Tensor]:
        """Each bag's side-projection columns summed, ``[bags, dim]``, for
        ``ids`` ``[bags, m]`` of category ids padded with -1, each weighted by
        ``weights`` (same shape) or, without them, by 1; None without ``ids``."""
        if ids is None:
            return None
        if self.side_projection is None:
            raise ConfigError(f"table {self.rows.name!r} has no side projection but side data was given")
        return T.embedding_bag(T.transpose_last2(self.side_projection), ids, weights)

    def lookup(self, indices: np.ndarray, columns: Optional[Tensor] = None,
               inverse: Optional[np.ndarray] = None) -> Tensor:
        """rows[indices], plus, when ``columns`` (from ``side_columns``, one
        row per distinct index) is given, ``columns[inverse]``: ``inverse``,
        the shape of ``indices``, gives each index its bag. So a bag's columns
        are summed once, however often its index occurs."""
        out = T.gather_rows(self.rows, indices)
        if columns is not None:
            if np.shape(inverse) != np.shape(indices):
                raise ShapeError(f"inverse {np.shape(inverse)} vs indices {np.shape(indices)}")
            out = T.add(out, T.gather_rows(columns, inverse))
        return out


class TransformerLayer:
    """One bidirectional encoder layer: multi-head self-attention and a
    position-wise feed-forward net, each followed by dropout, a residual
    connection and layer normalization. Q/K/V projections carry no bias."""

    def __init__(self, params: ParameterRegistry, name: str, dim: int, heads: int,
                 rng: np.random.Generator, dropout_rate: float = 0.1):
        if dim % heads != 0:
            raise ConfigError(f"model dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.dropout_rate = dropout_rate
        hd = self.head_dim
        self.wq = [params.add(f"{name}.head{i}.wq", glorot_uniform(rng, dim, hd, (dim, hd)))
                   for i in range(heads)]
        self.wk = [params.add(f"{name}.head{i}.wk", glorot_uniform(rng, dim, hd, (dim, hd)))
                   for i in range(heads)]
        self.wv = [params.add(f"{name}.head{i}.wv", glorot_uniform(rng, dim, hd, (dim, hd)))
                   for i in range(heads)]
        self.wo = params.add(f"{name}.wo", glorot_uniform(rng, dim, dim, (dim, dim)))
        self.ffn_w1 = params.add(f"{name}.ffn.w1", glorot_uniform(rng, dim, 4 * dim, (dim, 4 * dim)))
        self.ffn_b1 = params.add(f"{name}.ffn.b1", np.zeros(4 * dim, dtype=T.DEFAULT_DTYPE))
        self.ffn_w2 = params.add(f"{name}.ffn.w2", glorot_uniform(rng, 4 * dim, dim, (4 * dim, dim)))
        self.ffn_b2 = params.add(f"{name}.ffn.b2", np.zeros(dim, dtype=T.DEFAULT_DTYPE))
        self.ln1_gain = params.add(f"{name}.ln1.gain", np.ones(dim, dtype=T.DEFAULT_DTYPE))
        self.ln1_bias = params.add(f"{name}.ln1.bias", np.zeros(dim, dtype=T.DEFAULT_DTYPE))
        self.ln2_gain = params.add(f"{name}.ln2.gain", np.ones(dim, dtype=T.DEFAULT_DTYPE))
        self.ln2_bias = params.add(f"{name}.ln2.bias", np.zeros(dim, dtype=T.DEFAULT_DTYPE))


def multi_head_self_attention(h: Tensor, layer: TransformerLayer, query: Optional[Tensor] = None) -> Tensor:
    """Scaled dot-product attention per head, heads concatenated then mixed
    by the output projection. Bidirectional: no causal mask, no positions.

    ``h`` is [t, d] or [batch, t, d]. Keys and values come from every row of
    ``h``; queries come from every row of ``h``, or, when ``query`` is given,
    from its one row per sequence ([1, d] or [batch, 1, d]), and the output
    has one row per query row. A ``query`` takes the folded form
    (``_one_query_attention``), whose outputs differ from the per-head form's
    by float rounding only.
    """
    for x in (h,) if query is None else (h, query):
        if x.shape[-1] != layer.dim:
            raise ShapeError(f"input dim {x.shape[-1]} vs layer dim {layer.dim}")
    if query is not None:
        return _one_query_attention(h, layer, query)
    inv_scale = 1.0 / math.sqrt(layer.head_dim)
    heads = []
    for i in range(layer.heads):
        # the queries take the scale, not the [.., t, t] scores: the same
        # scores bit for bit when 1/sqrt(d_h) is a power of two (d_h = 4^j)
        q = T.scale(T.matmul(h, layer.wq[i]), inv_scale)
        k = T.matmul(h, layer.wk[i])
        v = T.matmul(h, layer.wv[i])
        scores = T.matmul(q, T.transpose_last2(k))
        heads.append(T.matmul(T.softmax_rows(scores), v))
    return T.matmul(T.concat_many(heads, axis=-1), layer.wo)


def _one_query_attention(h: Tensor, layer: TransformerLayer, query: Tensor) -> Tensor:
    """``multi_head_self_attention`` for one query row per sequence,
    projecting no row of ``h``. Head i's scores are ``q·(Wq_i·Wk_iᵀ/sqrt(d_h))·hᵀ``
    and its output ``w_i·h·Wv_i`` meets only its rows ``Wo_i`` of ``Wo``. So
    ``M = [Wq_1·Wk_1ᵀ … Wq_H·Wk_Hᵀ]/sqrt(d_h)`` ([d, H·d]) scores every head
    at once, stacked on the query axis, and ``N = [Wv_1·Wo_1; …; Wv_H·Wo_H]``
    ([H·d, d]) maps the heads' weighted rows, side by side, to the output.
    Both are rebuilt each call from Tensor ops, so gradients reach every
    weight."""
    if query.ndim != h.ndim or query.shape[-2] != 1:
        raise ShapeError(f"a query holds one row per sequence of keys {h.shape}, got {query.shape}")
    d, heads, hd = layer.dim, layer.heads, layer.head_dim
    m = T.scale(T.concat_many([T.matmul(wq, T.transpose_last2(wk))
                               for wq, wk in zip(layer.wq, layer.wk)], axis=-1), 1.0 / math.sqrt(hd))
    wo = T.reshape(layer.wo, (heads, hd * d))
    n = T.concat_many([T.matmul(wv, T.reshape(T.select_row(wo, i), (hd, d)))
                       for i, wv in enumerate(layer.wv)], axis=0)
    lead = query.shape[:-2]
    qk = T.reshape(T.matmul(query, m), lead + (heads, d))
    w = T.softmax_rows(T.matmul(qk, T.transpose_last2(h)))
    return T.matmul(T.reshape(T.matmul(w, h), lead + (1, heads * d)), n)


def _shared_prefix_attention(x: np.ndarray, tg: np.ndarray, layer: TransformerLayer) -> np.ndarray:
    """Every sequence ``[x; tg[:, c]]`` through all heads and ``Wo``, as
    [d, t + 1, C] (feature-major, candidates last), for a prefix ``x``
    [t, d] and targets ``tg`` [d, C].

    Per head, a prefix row's softmax over the prefix keys gives its output
    ``o`` and log-normaliser ``lse``, once per call. Sequence c adds one key
    of score ``g`` and value ``v_t``, so over all t + 1 keys the row gives
    (e^lse·o + e^g·v_t) / (e^lse + e^g) = σ(lse − g)·o + σ(g − lse)·v_t
    = o + σ(g − lse)·(v_t − o): the online-softmax merge (arXiv 1805.02867)
    with max and normaliser folded into ``lse``. ``Wo`` is linear and head i
    meets only its rows ``Wo_i``, so it adds ``P + σ(g − lse)·(V − P)`` to
    the prefix rows, with ``P = o·Wo_i`` and ``V = v_t·Wo_i``. The target
    row is a softmax over its t + 1 scores. Target-dependent arrays keep the
    C candidates on their last axis: each product is one 2-D GEMM over all
    of them, and each elementwise loop runs C long.
    """
    (d, c), t, hd = tg.shape, x.shape[0], layer.head_dim
    inv_scale = 1.0 / math.sqrt(hd)
    out = np.empty((d, t + 1, c), dtype=np.result_type(x, tg))
    prefix, rows = out[:, :t], out[:, t]
    for i in range(layer.heads):
        wq, wk, wv = (m[i].data for m in (layer.wq, layer.wk, layer.wv))
        wo = layer.wo.data[i * hd:(i + 1) * hd].T          # [d, hd]
        q, k, v = x @ wq, x @ wk, x @ wv                   # [t, hd]
        q_t, k_t, v_t = wq.T @ tg, wk.T @ tg, wv.T @ tg    # [hd, C]
        e, lse = T._exp_rows((q @ k.T) * inv_scale)        # e is [keys, rows]
        norm = e.sum(axis=0)
        lse += np.log(norm)
        e /= norm
        p = (wo @ (v.T @ e))[:, :, None]                   # [d, t, 1]
        gap = (q @ k_t) * inv_scale - lse[:, None]         # [t, C]
        # the first head writes the output; the others add to it
        merged = prefix if i == 0 else np.empty_like(prefix)
        np.subtract((wo @ v_t)[:, None, :], p, out=merged)
        merged *= T.sigmoid(Tensor(gap)).data
        merged += p
        scores = np.concatenate([k @ q_t, np.einsum("ij,ij->j", q_t, k_t)[None]]) * inv_scale
        w, _ = T._exp_rows(scores.T)                       # [t + 1, C]
        w /= w.sum(axis=0)
        row = wo @ (v.T @ w[:t] + v_t * w[t])              # [d, C]
        if i == 0:
            rows[...] = row
        else:
            prefix += merged
            rows += row
    return out


def _shared_prefix_layer(x: Tensor, target: Tensor, layer: TransformerLayer) -> Tensor:
    """``transformer_layer`` over the C sequences ``[x; target[c]]`` for a
    prefix ``x`` [1, t, d] and targets [C, 1, d], as their [C, t + 1, d]
    rows. The attention and its residual run once over all C candidates.
    Every step after them is per row, so it runs on blocks of ``BLOCK``
    candidates, each one feature-major [d, (t + 1)·B] array in buffers that
    stay in cache: each weight is one GEMM from the left, each per-feature
    bias and gain a broadcast along the rows, and each layer norm
    normalises the block's columns in place. Each block's rows are written
    straight into the C-contiguous output. Each column is computed alone,
    so the block size changes no value."""
    for a in (x, target):
        if a.shape[-1] != layer.dim:
            raise ShapeError(f"input dim {a.shape[-1]} vs layer dim {layer.dim}")
    xs, tg = x.data[0], target.data[:, 0].T                # [t, d], [d, C]
    (d, c), t = tg.shape, xs.shape[0]
    att = _shared_prefix_attention(xs, tg, layer)          # [d, t + 1, C]
    att[:, :t] += xs.T[:, :, None]
    att[:, t] += tg
    out = np.empty((c, t + 1, d), dtype=att.dtype)
    # every block works in the front of buffers sized for the widest block,
    # so the same memory stays in cache from block to block
    widest = (t + 1) * min(BLOCK, c)
    a_buf, h_buf, r_buf = (np.empty(k * d * widest, dtype=att.dtype) for k in (1, 4, 1))
    for start in range(0, c, BLOCK):
        stop = min(start + BLOCK, c)
        block, n = slice(start, stop), (t + 1) * (stop - start)
        a = a_buf[:d * n].reshape(d, n)
        a.reshape(d, t + 1, -1)[...] = att[:, :, block]
        T._layer_norm_features(a, layer.ln1_gain.data, layer.ln1_bias.data, out=a)
        hidden = np.matmul(layer.ffn_w1.data.T, a, out=h_buf[:4 * d * n].reshape(4 * d, n))
        hidden += layer.ffn_b1.data[:, None]
        hidden = T.gelu(Tensor(hidden)).data
        rows = np.matmul(layer.ffn_w2.data.T, hidden, out=r_buf[:d * n].reshape(d, n))
        rows += layer.ffn_b2.data[:, None]
        rows += a
        T._layer_norm_features(rows, layer.ln2_gain.data, layer.ln2_bias.data, out=rows)
        out[block] = rows.reshape(d, t + 1, -1).transpose(2, 1, 0)
    return Tensor(out)


def pffn(a: Tensor, layer: TransformerLayer) -> Tensor:
    """Row-wise feed-forward: GELU(a @ W1 + b1) @ W2 + b2."""
    hidden = T.gelu(T.add(T.matmul(a, layer.ffn_w1), layer.ffn_b1))
    return T.add(T.matmul(hidden, layer.ffn_w2), layer.ffn_b2)


def transformer_layer(x: Tensor, layer: TransformerLayer, training: bool = False,
                      rng: Optional[np.random.Generator] = None,
                      query: Optional[Tensor] = None, target: Optional[Tensor] = None) -> Tensor:
    """Two sublayers: LN(x + Drop(MH(x))) then LN(a + Drop(PFFN(a))).

    With ``query`` (one row of each sequence in ``x``, [.., 1, d]), only that
    row is computed: it attends to every row of ``x`` through the folded
    form (``_one_query_attention``; the same outputs to float rounding), and
    the residuals, dropouts, layer norms and PFFN run on it alone.

    With ``target`` ([C, 1, d]), ``x`` is a prefix [1, t, d] shared by C
    sequences ``[x; target[c]]`` and the output is their [C, t + 1, d] rows.
    Attention computes the prefix rows among themselves once; everything
    after it runs per sequence, since every row has seen its target
    (``_shared_prefix_layer``). Forward only, without dropout.
    """
    if target is not None:
        if training or T.grad_enabled():
            raise ConfigError("the shared-prefix layer is forward only; call it under no_grad() "
                              "with training off")
        return _shared_prefix_layer(x, target, layer)
    mh = T.dropout(multi_head_self_attention(x, layer, query=query), layer.dropout_rate, training, rng)
    a = T.layer_norm(T.add(x if query is None else query, mh), layer.ln1_gain, layer.ln1_bias)
    ff = T.dropout(pffn(a, layer), layer.dropout_rate, training, rng)
    return T.layer_norm(T.add(a, ff), layer.ln2_gain, layer.ln2_bias)


def dense_tower(params: ParameterRegistry, name: str, in_dim: int, widths: Sequence[int],
                activation: str, rng: np.random.Generator) -> list[DenseLayer]:
    layers = []
    prev = in_dim
    for j, w in enumerate(widths):
        layers.append(DenseLayer.build(params, f"{name}.layer{j}", prev, w, activation, rng))
        prev = w
    return layers


def apply_tower(layers: Sequence[DenseLayer], x: Tensor) -> Tensor:
    for layer in layers:
        x = layer(x)
    return x
