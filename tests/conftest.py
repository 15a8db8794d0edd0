"""Shared oracles and fixture builders.

The gradient oracle is plain central finite differences over every element
of every input array, independent of the engine's backward passes.
"""

from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from feedrank import layers as L
from feedrank import models
from feedrank import tensor as T
from feedrank.data import DataError, SideInfo


def finite_difference(value_fn, arrays, h=1e-4):
    """Central-difference gradients of a scalar function of the given
    float64 arrays (mutated in place element by element)."""
    grads = []
    for arr in arrays:
        assert arr.dtype == np.float64, "finite differences run on 64-bit data"
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = value_fn()
            flat[idx] = orig - h
            fm = value_fn()
            flat[idx] = orig
            gf[idx] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.max(np.abs(analytic - numeric)) if analytic.size else 0.0
    den = np.max(np.abs(analytic)) + np.max(np.abs(numeric)) + 1e-12 if analytic.size else 1.0
    return float(num / den)


def check_gradients(build_loss, tensors, tol=1e-6, h=1e-4) -> float:
    """Assert analytic gradients of build_loss() match finite differences
    for every tensor; returns the worst relative error seen."""
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def value():
        with T.no_grad():
            return build_loss().item()

    numeric = finite_difference(value, [t.data for t in tensors], h=h)
    worst = 0.0
    for t, a, n in zip(tensors, analytic, numeric):
        err = rel_error(a, n)
        assert err < tol, f"gradient mismatch (rel err {err:.3e} >= {tol}) for tensor of shape {t.shape}"
        worst = max(worst, err)
    return worst


def copying_accumulate(t, g):
    """The engine's ``_accumulate`` as it was before gradient buffers were
    owned: a tensor's first gradient is always copied, so no two tensors
    ever share a gradient array and no backward's in-place work can reach
    another tensor's gradient. The oracle for the ownership rule."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def composed_linear(x, weight, bias):
    """``tensor.linear`` as ``DenseLayer`` composed it before it was one node:
    a product with the weight's transposed view, then a bias add. The fused
    op must match its outputs and gradients bit for bit."""
    return T.add(T.matmul(x, T.transpose_last2(weight)), bias)


def scaled_scores_attention(h, layer, query=None):
    """``layers.multi_head_self_attention`` as it was before the scale fold
    and the one-query fold: each head projects every query, key and value
    row, and 1/sqrt(d_h) scales each [.., t_q, t] score block, not the
    queries."""
    if query is None:
        query = h
    inv_scale = 1.0 / math.sqrt(layer.dim / layer.heads)
    heads = []
    for i in range(layer.heads):
        q = T.matmul(query, layer.wq[i])
        k = T.matmul(h, layer.wk[i])
        v = T.matmul(h, layer.wv[i])
        scores = T.scale(T.matmul(q, T.transpose_last2(k)), inv_scale)
        heads.append(T.matmul(T.softmax_rows(scores), v))
    return T.matmul(T.concat_many(heads, axis=-1), layer.wo)


@contextmanager
def copying_engine():
    """Run the block on ``copying_accumulate``, with full self-attention on
    ``scaled_scores_attention``: the engine as it computed before gradient
    buffers were owned and the attention scale moved to the queries. A
    one-row query still takes the folded form, which has no scaled-scores
    counterpart to match bit for bit."""
    folded = L._one_query_attention

    def attention(h, layer, query=None):
        return scaled_scores_attention(h, layer) if query is None else folded(h, layer, query)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_accumulate", copying_accumulate)
        mp.setattr(L, "multi_head_self_attention", attention)
        yield


def whole_array_shared_prefix_layer(x, target, layer):
    """``layers._shared_prefix_layer`` as it ran before its row-wise half
    went in candidate blocks: the residual, both layer norms and the PFFN on
    one feature-major [d, (t + 1)·C] array, written row-major at the end."""
    xs, tg = x.data[0], target.data[:, 0].T
    (d, c), t = tg.shape, xs.shape[0]
    a = L._shared_prefix_attention(xs, tg, layer)
    a[:, :t] += xs.T[:, :, None]
    a[:, t] += tg
    a = a.reshape(d, (t + 1) * c)
    T._layer_norm_features(a, layer.ln1_gain.data, layer.ln1_bias.data, out=a)
    hidden = layer.ffn_w1.data.T @ a
    hidden += layer.ffn_b1.data[:, None]
    hidden = T.gelu(T.Tensor(hidden)).data
    out = layer.ffn_w2.data.T @ hidden
    out += layer.ffn_b2.data[:, None]
    out += a
    T._layer_norm_features(out, layer.ln2_gain.data, layer.ln2_bias.data, out=out)
    return np.ascontiguousarray(out.reshape(d, t + 1, c).transpose(2, 1, 0))


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: bit for bit, -0.0 and NaN payloads
    included, whatever either array's memory layout."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def to_float64(params):
    """Upcast every parameter of a ``ParameterRegistry`` to float64 in place,
    for finite differences on a model or layer that was built, as every one
    is, in float32. Call it before making an ``Adam`` over the parameters."""
    for p in params:
        p.data = p.data.astype(np.float64)


def encode_side_user(items, item_categories, num_categories):
    """Category-frequency vector over a user's interacted items, by a plain
    loop: each item increments every category it belongs to, and the vector
    is normalized by the total count (all zero when no item has a category).
    The oracle for the per-user rows that ``build_side_info`` computes for
    every user at once."""
    counts = np.zeros(num_categories, dtype=np.float64)
    for item in items:
        for c in item_categories[item]:
            counts[c] += 1.0
    total = counts.sum()
    if total > 0:
        counts /= total
    return counts


def side_from_lists(num_categories, item_categories, user_vectors=()):
    """SideInfo from per-item category lists and per-user (categories, weights)."""
    def csr(rows, dtype):
        offsets = np.cumsum([0] + [len(row) for row in rows])
        flat = np.concatenate([np.asarray(row, dtype=dtype) for row in rows]) if rows else []
        return offsets.astype(np.int64), np.asarray(flat, dtype=dtype)

    item_offsets, item_flat = csr(item_categories, np.int64)
    user_offsets, user_flat = csr([idx for idx, _ in user_vectors], np.int64)
    _, weights = csr([val for _, val in user_vectors], np.float64)
    return SideInfo([str(c) for c in range(num_categories)], item_offsets, item_flat,
                    user_offsets, user_flat, weights)


def side_bag(dense):
    """The category ids and weights ``EmbeddingTable.lookup`` takes for a
    dense side matrix ``[..., T]``: each row's nonzero columns in ascending
    order, padded with -1 to the longest row, and their values. The bag's
    lookup adds exactly what ``dense @ side_projection.T`` adds."""
    dense = np.asarray(dense)
    flat = dense.reshape(-1, dense.shape[-1])
    nonzero = flat != 0
    counts = nonzero.sum(axis=1)
    width = int(counts.max()) if counts.size else 0
    # a stable sort of "is zero" brings each row's nonzero columns first, in order
    columns = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
    pad = np.arange(width) >= counts[:, None]
    ids = np.where(pad, -1, columns).reshape(dense.shape[:-1] + (width,))
    weights = np.where(pad, 0.0, np.take_along_axis(flat, columns, axis=1))
    return ids, weights.reshape(ids.shape)


def csr_to_dense(offsets, columns, values, rows, width, dtype):
    """Dense ``[*rows.shape, width]`` rows of a CSR matrix: ``values`` (1
    where None) at ``columns``. Row ids index like a list. The oracle for
    the category bags that ``SideInfo`` hands to the models."""
    rows = np.asarray(rows)
    out = np.zeros((rows.size, width), dtype=dtype)
    for pos, row in enumerate(np.arange(offsets.size - 1)[rows.reshape(-1)]):
        span = slice(offsets[row], offsets[row + 1])
        out[pos, columns[span]] = 1.0 if values is None else values[span]
    return out.reshape(rows.shape + (width,))


def event_table(num_users, users, items, explicit, times=None):
    """The ``offsets, items, explicit`` columns an ``InteractionStore``
    takes, from event columns in any order: each user's events sorted by
    ``times`` (by default, the order given), ties in the order given."""
    times = range(len(users)) if times is None else times
    rows = sorted(range(len(users)), key=lambda j: (users[j], times[j], j))
    counts = [sum(1 for u in users if u == v) for v in range(num_users)]
    return np.cumsum([0, *counts]), [items[j] for j in rows], [explicit[j] for j in rows]


def reference_sets(num_users, users, items, explicit, held_out=((), ())):
    """Each user's implicit, explicit and held-out item sets, by a plain
    loop over event columns (one user, item and explicit flag per event)
    and held-out ``(users, items)`` columns."""
    implicit_sets = [set() for _ in range(num_users)]
    explicit_sets = [set() for _ in range(num_users)]
    held_sets = [set() for _ in range(num_users)]
    for u, i, flag in zip(users, items, explicit):
        implicit_sets[int(u)].add(int(i))
        if flag:
            explicit_sets[int(u)].add(int(i))
    for u, i in zip(*held_out):
        held_sets[int(u)].add(int(i))
    return implicit_sets, explicit_sets, held_sets


def reference_sample_unobserved(num_items, excluded, count, rng):
    """The per-draw loop ``data.sample_unobserved`` replaced: the reference
    for its values, dtype and rng state. ``excluded`` is a set of ids."""
    available = num_items - len(excluded)
    if available <= 0:
        return np.zeros(0, dtype=np.int64)
    if available < count:
        return rng.permutation(np.array([i for i in range(num_items) if i not in excluded], dtype=np.int64))
    chosen, seen = [], set()
    while len(chosen) < count:
        draw = rng.integers(0, num_items, size=max(16, 2 * (count - len(chosen))))
        for item in draw.tolist():
            if item in excluded or item in seen:
                continue
            seen.add(item)
            chosen.append(item)
            if len(chosen) == count:
                break
    return np.array(chosen, dtype=np.int64)


def store_sets(store):
    """``reference_sets`` of a store's own event table and held-out rows."""
    def owners(offsets):
        return [u for u in range(store.num_users) for _ in range(offsets[u], offsets[u + 1])]

    return reference_sets(store.num_users, owners(store.offsets), store.items.tolist(),
                          store.explicit.tolist(),
                          (owners(store.excluded_offsets), store.excluded_flat.tolist()))


def _first_occurrences(rows):
    """Mask of the entries of a 2-D array that no earlier entry of their row
    equals."""
    order = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    mask = np.empty_like(first)
    np.put_along_axis(mask, order, first, axis=1)
    return mask


def reference_draw_unobserved(observed, users, need, num_items, width, rng):
    """``training._draw_unobserved`` as it was before its one sort per row:
    each round searches every draw in ``observed`` in draw order, then finds
    each row's first occurrences by a stable argsort. The reference for its
    values, rng use and warnings."""
    n = num_items
    out = np.full((users.size, width), -1, dtype=np.int64)
    base = users * n
    eligible = n - (np.searchsorted(observed, base + n) - np.searchsorted(observed, base))
    empty = np.flatnonzero((eligible == 0) & (need > 0))
    if empty.size:
        raise DataError("a user has interacted with the whole catalog; nothing to sample")
    short = np.flatnonzero(eligible < need)
    for r in short:
        lo, hi = np.searchsorted(observed, [base[r], base[r] + n])
        pool = np.setdiff1d(np.arange(n), observed[lo:hi] - base[r])
        out[r, :need[r]] = rng.choice(pool, size=need[r], replace=True)
    if short.size:
        logging.getLogger(__name__).warning(
            "%d of %d rows have fewer eligible items than they draw; sampling them with replacement",
            short.size, users.size)
    filled = np.zeros(users.size, dtype=np.int64)
    pending = np.flatnonzero((eligible >= need) & (need > 0))
    while pending.size:
        want = need[pending]
        draw = rng.integers(0, n, size=(pending.size, max(16, 2 * int((want - filled[pending]).max()))))
        keys = base[pending, None] + draw
        fresh = observed[np.searchsorted(observed, keys)] != keys
        cand = np.concatenate([out[pending], np.where(fresh, draw, -1)], axis=1)
        keep = _first_occurrences(cand) & (cand >= 0)
        slot = np.cumsum(keep, axis=1)
        at, col = np.nonzero(keep & (slot <= want[:, None]))
        out[pending[at], slot[at, col] - 1] = cand[at, col]
        filled[pending] = np.minimum(slot[:, -1], want)
        pending = pending[filled[pending] < want]
    return out


def per_occurrence_side_bags(model, side_info, users, *items):
    """``models._ImplicitExplicitModel._side_bags`` as it was before bags
    were fetched per distinct id, and blind to which inverse the model hands
    each lookup: a table's bags are a reader of ``side_info`` that
    ``per_occurrence_lookup`` calls on the ids it looks up. The inverses
    returned only have the shapes of the id arrays."""
    mode = models.VARIANTS[model.variant][1]
    if mode == "none":
        return (None, None), (None, None), (None,) * (1 + len(items))
    user = (side_info.user_matrix, None) if mode == "user_and_item" else (None, None)
    item = (lambda ids: (side_info.item_matrix(ids), None), None)
    return (user, item, (None if user[0] is None else np.zeros(users.shape, np.intp),)
            + tuple(np.zeros(x.shape, np.intp) for x in items))


def per_occurrence_side_columns(table, read, weights=None):
    """Holds the bag reader back for ``per_occurrence_lookup``."""
    return read


def per_occurrence_lookup(table, indices, columns=None, inverse=None):
    """``layers.EmbeddingTable.lookup`` as it was before bags were summed per
    distinct id: every occurrence's bag product is summed on its own, from
    the bag its own id has in the side information (``columns``, the reader
    ``per_occurrence_side_columns`` held back); ``inverse`` is unused."""
    out = T.gather_rows(table.rows, indices)
    if columns is not None:
        ids, weights = columns(indices)
        out = T.add(out, T.embedding_bag(T.transpose_last2(table.side_projection), ids, weights))
    return out


@contextmanager
def per_occurrence_side():
    """Run the block with side information fetched and summed per
    occurrence: the model input path as it was before distinct ids shared
    their bags and bag products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models._ImplicitExplicitModel, "_side_bags", per_occurrence_side_bags)
        mp.setattr(L.EmbeddingTable, "side_columns", per_occurrence_side_columns)
        mp.setattr(L.EmbeddingTable, "lookup", per_occurrence_lookup)
        yield


def write_events_csv(path: Path, rows, header=("timestamp", "visitorid", "event", "itemid")) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_categories_csv(path: Path, pairs) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("itemid", "categoryid"))
        writer.writerows(pairs)
    return path


def planted_dataset(tmp_path: Path, num_groups=10, users_per_group=5, items_per_group=10,
                    explicit_per_user=3, seed=7):
    """Synthetic log with block structure: each user interacts with every
    item of their group (implicitly), and explicitly with a few of them.
    Items of group g all carry category g. Returns (events_path, cats_path)."""
    rng = np.random.default_rng(seed)
    rows = []
    t = 1_000_000
    for g in range(num_groups):
        for uu in range(users_per_group):
            user = f"u{g * users_per_group + uu}"
            items = [g * items_per_group + j for j in range(items_per_group)]
            order = rng.permutation(items)
            for item in order:
                rows.append((t, user, "view", f"i{item}"))
                t += 1
            for item in order[-explicit_per_user:]:
                rows.append((t, user, "addtocart", f"i{item}"))
                t += 1
    events = write_events_csv(tmp_path / "events.csv", rows)
    pairs = [(f"i{g * items_per_group + j}", f"c{g}")
             for g in range(num_groups) for j in range(items_per_group)]
    cats = write_categories_csv(tmp_path / "categories.csv", pairs)
    return events, cats


@pytest.fixture
def tiny_store(tmp_path):
    """Hand-written six-user store with known counts for exact assertions."""
    from feedrank import ingest

    rows = [
        # u0: 4 implicit on items a..d, explicit on b (t=50) and d (t=90)
        (10, "u0", "view", "a"), (20, "u0", "view", "b"), (30, "u0", "view", "c"),
        (40, "u0", "view", "d"), (50, "u0", "addtocart", "b"), (90, "u0", "transaction", "d"),
        # u1: 5 implicit, no explicit
        (11, "u1", "view", "a"), (12, "u1", "view", "b"), (13, "u1", "view", "c"),
        (14, "u1", "view", "d"), (15, "u1", "view", "e"),
        # u2: duplicate views of the same item plus explicit on f
        (21, "u2", "view", "e"), (22, "u2", "view", "e"), (23, "u2", "view", "e"),
        (24, "u2", "view", "f"), (25, "u2", "addtocart", "f"),
        # u3: under the interaction threshold, dropped
        (31, "u3", "view", "a"), (32, "u3", "view", "b"), (33, "u3", "view", "c"),
        (34, "u3", "view", "d"),
    ]
    path = write_events_csv(tmp_path / "tiny.csv", rows)
    return ingest(str(path))
