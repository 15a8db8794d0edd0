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

ACTIVATIONS = {
    "relu": T.relu,
    "sigmoid": T.sigmoid,
    "gelu": T.gelu,
    "identity": lambda x: x,
}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple, dtype) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def embedding_init(rng: np.random.Generator, shape: tuple, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * 0.01).astype(dtype)


class DenseLayer:
    """Affine map ``activation(x @ W.T + b)`` with weight stored as [out, in]."""

    def __init__(self, weight: Parameter, bias: Parameter, activation: str = "identity"):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        out_dim, in_dim = weight.value.shape
        if bias.value.shape != (out_dim,):
            raise ShapeError(f"bias shape {bias.value.shape} vs weight {weight.value.shape}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @classmethod
    def build(cls, params: ParameterRegistry, name: str, in_dim: int, out_dim: int,
              activation: str, rng: np.random.Generator, dtype=T.DEFAULT_DTYPE) -> "DenseLayer":
        w = params.add(f"{name}.weight", glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim), dtype))
        b = params.add(f"{name}.bias", np.zeros(out_dim, dtype=dtype))
        return cls(w, b, activation)

    def __call__(self, x: Tensor) -> Tensor:
        y = T.add(T.matmul(x, T.transpose_last2(self.weight.value)), self.bias.value)
        return ACTIVATIONS[self.activation](y)


class EmbeddingTable:
    """Row lookup table, optionally fused with a linear projection of a dense
    side vector (equivalent to embedding the concatenation of a one-hot id
    with the side vector, without materializing the one-hot)."""

    def __init__(self, rows: Parameter, side_projection: Optional[Parameter] = None):
        self.rows = rows
        self.side_projection = side_projection

    @classmethod
    def build(cls, params: ParameterRegistry, name: str, vocab: int, dim: int,
              rng: np.random.Generator, side_dim: int = 0, dtype=T.DEFAULT_DTYPE) -> "EmbeddingTable":
        rows = params.add(f"{name}.rows", embedding_init(rng, (vocab, dim), dtype))
        side = None
        if side_dim > 0:
            side = params.add(f"{name}.side_projection",
                              glorot_uniform(rng, side_dim, dim, (dim, side_dim), dtype))
        return cls(rows, side)

    @property
    def vocab(self) -> int:
        return self.rows.value.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.value.shape[1]

    def lookup(self, indices: np.ndarray, side: Optional[np.ndarray] = None) -> Tensor:
        """rows[indices] (+ side @ side_projection.T when side is given)."""
        out = T.gather_rows(self.rows.value, indices)
        if side is not None:
            if self.side_projection is None:
                raise ConfigError(f"table {self.rows.name!r} has no side projection but side data was given")
            side_t = Tensor(np.asarray(side, dtype=self.rows.value.data.dtype))
            out = T.add(out, T.matmul(side_t, T.transpose_last2(self.side_projection.value)))
        return out


class TransformerLayer:
    """One bidirectional encoder layer: multi-head self-attention and a
    position-wise feed-forward net, each followed by dropout, a residual
    connection and layer normalization. Q/K/V projections carry no bias."""

    def __init__(self, params: ParameterRegistry, name: str, dim: int, heads: int,
                 rng: np.random.Generator, dropout_rate: float = 0.1, dtype=T.DEFAULT_DTYPE):
        if dim % heads != 0:
            raise ConfigError(f"model dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.dropout_rate = dropout_rate
        hd = self.head_dim
        self.wq = [params.add(f"{name}.head{i}.wq", glorot_uniform(rng, dim, hd, (dim, hd), dtype))
                   for i in range(heads)]
        self.wk = [params.add(f"{name}.head{i}.wk", glorot_uniform(rng, dim, hd, (dim, hd), dtype))
                   for i in range(heads)]
        self.wv = [params.add(f"{name}.head{i}.wv", glorot_uniform(rng, dim, hd, (dim, hd), dtype))
                   for i in range(heads)]
        self.wo = params.add(f"{name}.wo", glorot_uniform(rng, dim, dim, (dim, dim), dtype))
        self.ffn_w1 = params.add(f"{name}.ffn.w1", glorot_uniform(rng, dim, 4 * dim, (dim, 4 * dim), dtype))
        self.ffn_b1 = params.add(f"{name}.ffn.b1", np.zeros(4 * dim, dtype=dtype))
        self.ffn_w2 = params.add(f"{name}.ffn.w2", glorot_uniform(rng, 4 * dim, dim, (4 * dim, dim), dtype))
        self.ffn_b2 = params.add(f"{name}.ffn.b2", np.zeros(dim, dtype=dtype))
        self.ln1_gain = params.add(f"{name}.ln1.gain", np.ones(dim, dtype=dtype))
        self.ln1_bias = params.add(f"{name}.ln1.bias", np.zeros(dim, dtype=dtype))
        self.ln2_gain = params.add(f"{name}.ln2.gain", np.ones(dim, dtype=dtype))
        self.ln2_bias = params.add(f"{name}.ln2.bias", np.zeros(dim, dtype=dtype))


def multi_head_self_attention(h: Tensor, layer: TransformerLayer, query: Optional[Tensor] = None,
                              target: Optional[Tensor] = None) -> Tensor:
    """Scaled dot-product attention per head, heads concatenated then mixed
    by the output projection. Bidirectional: no causal mask, no positions.

    ``h`` is [t, d] or [batch, t, d]. Keys and values come from every row of
    ``h``; queries come from ``query`` ([t_q, d] or [batch, t_q, d]) when it
    is given, else from ``h``, and the output has one row per query row.

    With ``target`` ([C, 1, d]), ``h`` is a prefix [1, t, d] shared by C
    sequences, sequence c being ``h`` followed by ``target[c]``, and the
    output is [C, t + 1, d]: every row of each sequence attending within
    that sequence. The prefix rows' scores among themselves are computed
    once for all C (see ``_shared_prefix_head``). This form is forward only.
    """
    if query is None:
        query = h
    for x in (h, query, target):
        if x is not None and x.shape[-1] != layer.dim:
            raise ShapeError(f"input dim {x.shape[-1]} vs layer dim {layer.dim}")
    if target is not None and T.grad_enabled():
        raise ConfigError("shared-prefix attention is forward only; call it under no_grad()")
    inv_scale = 1.0 / math.sqrt(layer.dim / layer.heads)
    heads = []
    for i in range(layer.heads):
        if target is not None:
            heads.append(_shared_prefix_head(h, target, layer, i, inv_scale))
            continue
        q = T.matmul(query, layer.wq[i].value)
        k = T.matmul(h, layer.wk[i].value)
        v = T.matmul(h, layer.wv[i].value)
        scores = T.scale(T.matmul(q, T.transpose_last2(k)), inv_scale)
        heads.append(T.matmul(T.softmax_rows(scores), v))
    return T.matmul(T.concat_many(heads, axis=-1), layer.wo.value)


def _log_normaliser(scores: Tensor) -> Tensor:
    """log(sum(exp(row))) of each row, as [..., 1]: the row max plus the log
    of the softmax normaliser taken after subtracting it."""
    e, m = T._exp_rows(scores.data)
    m += np.log(e.sum(axis=0))
    return Tensor(m.reshape(scores.shape[:-1] + (1,)))


def _shared_prefix_head(h: Tensor, target: Tensor, layer: TransformerLayer, i: int,
                        inv_scale: float) -> Tensor:
    """Head ``i`` of every sequence ``[h; target[c]]``, as [C, t + 1, hd].

    Once per call: the prefix's Q/K/V, its [t, t] score block, and that
    block's softmax state: each row's attention output over the prefix keys
    and the log of its normaliser (row max plus log-sum of the shifted
    exponentials). Per sequence: the target's q/k/v; one extra key column
    merged into each prefix row; and the target row's own softmax over the
    prefix keys and its own key.

    Merging a column of score ``s`` and value ``v_t`` into a row whose
    softmax over the earlier keys gave output ``o`` with log-normaliser
    ``lse`` gives ``sigmoid(lse - s) * o + sigmoid(s - lse) * v_t``: the
    running max/normaliser update of online softmax, written with both
    folded into ``lse``.
    """
    c = target.shape[0]
    q = T.matmul(h, layer.wq[i].value)                                  # [1, t, hd]
    k = T.matmul(h, layer.wk[i].value)
    v = T.matmul(h, layer.wv[i].value)
    q_t = T.matmul(target, layer.wq[i].value)                           # [C, 1, hd]
    k_t = T.matmul(target, layer.wk[i].value)
    v_t = T.matmul(target, layer.wv[i].value)

    scores = T.scale(T.matmul(q, T.transpose_last2(k)), inv_scale)     # [1, t, t]
    prefix_out = T.matmul(T.softmax_rows(scores), v)                   # [1, t, hd]
    # the target's key column of each prefix row, less that row's log-normaliser
    gap = T.add(T.scale(T.matmul(q, T.transpose_last2(k_t)), inv_scale),
                T.scale(_log_normaliser(scores), -1.0))                # [C, t, 1]
    prefix_rows = T.add(T.elementwise_mul(prefix_out, T.sigmoid(T.scale(gap, -1.0))),
                        T.elementwise_mul(v_t, T.sigmoid(gap)))         # [C, t, hd]

    target_scores = T.concat(T.matmul(q_t, T.transpose_last2(k)),
                             T.matmul(q_t, T.transpose_last2(k_t)), axis=-1)  # [C, 1, t + 1]
    values = T.concat(T.broadcast_to(v, (c,) + v.shape[1:]), v_t, axis=-2)     # [C, t + 1, hd]
    target_row = T.matmul(T.softmax_rows(T.scale(target_scores, inv_scale)), values)
    return T.concat(prefix_rows, target_row, axis=-2)


def pffn(a: Tensor, layer: TransformerLayer) -> Tensor:
    """Row-wise feed-forward: GELU(a @ W1 + b1) @ W2 + b2."""
    hidden = T.gelu(T.add(T.matmul(a, layer.ffn_w1.value), layer.ffn_b1.value))
    return T.add(T.matmul(hidden, layer.ffn_w2.value), layer.ffn_b2.value)


def transformer_layer(x: Tensor, layer: TransformerLayer, training: bool = False,
                      rng: Optional[np.random.Generator] = None,
                      query: Optional[Tensor] = None, target: Optional[Tensor] = None) -> Tensor:
    """Two sublayers: LN(x + Drop(MH(x))) then LN(a + Drop(PFFN(a))).

    With ``query`` (rows of ``x``), only those rows are computed: they
    attend to every row of ``x``, and the residuals, dropouts, layer norms
    and PFFN run on them alone.

    With ``target`` ([C, 1, d]), ``x`` is a prefix [1, t, d] shared by C
    sequences ``[x; target[c]]`` and the output is their [C, t + 1, d] rows.
    Attention computes the prefix rows among themselves once; everything
    after it runs per sequence, since every row has seen its target.
    Forward only.
    """
    if target is not None:
        mh = multi_head_self_attention(x, layer, target=target)
        query = T.concat(T.broadcast_to(x, (target.shape[0],) + x.shape[1:]), target, axis=-2)
    else:
        if query is None:
            query = x
        mh = multi_head_self_attention(x, layer, query=query)
    mh = T.dropout(mh, layer.dropout_rate, training, rng)
    a = T.layer_norm(T.add(query, mh), layer.ln1_gain.value, layer.ln1_bias.value)
    ff = T.dropout(pffn(a, layer), layer.dropout_rate, training, rng)
    return T.layer_norm(T.add(a, ff), layer.ln2_gain.value, layer.ln2_bias.value)


def dense_tower(params: ParameterRegistry, name: str, in_dim: int, widths: Sequence[int],
                activation: str, rng: np.random.Generator, dtype=T.DEFAULT_DTYPE) -> list[DenseLayer]:
    layers = []
    prev = in_dim
    for j, w in enumerate(widths):
        layers.append(DenseLayer.build(params, f"{name}.layer{j}", prev, w, activation, rng, dtype))
        prev = w
    return layers


def apply_tower(layers: Sequence[DenseLayer], x: Tensor) -> Tensor:
    for layer in layers:
        x = layer(x)
    return x
