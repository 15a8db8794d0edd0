"""Joint-loss training: negative sampling, sequence padding, Adam, and the
epoch loop.

The objective is  eta * L_implicit + L_explicit + lambda * R  where both L
terms are summed binary cross-entropies over sampled positive/negative
examples of their matrix and R is the squared L2 norm of every embedding
vector the batch touched. Cross-entropies are computed in float64 with
predictions clamped to [1e-7, 1 - 1e-7] so float32 training never produces
non-finite losses.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
# sample_unobserved is not called here; perfbench's tracer test checks that this module holds it
from .data import IMPLICIT, DataError, InteractionStore, SideInfo, sample_unobserved
from .tensor import ConfigError, ParameterRegistry, Tensor

log = logging.getLogger(__name__)

PRED_CLAMP = 1e-7

_KIND_IMPLICIT = 0
_KIND_EXPLICIT = 1


class NonFiniteLossError(ValueError):
    """A training step produced a NaN or infinite loss."""


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    batch_size: int = 512
    implicit_weight: float = 0.5     # eta, scales the implicit loss term
    l2_weight: float = 1e-6          # lambda, scales the embedding regularizer
    negatives_per_positive: int = 9
    epochs: int = 50
    seed: int = 42
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> None:
        # each float check is written so that NaN fails it
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if not 0 <= self.implicit_weight < math.inf:
            raise ConfigError("implicit_weight must be finite and >= 0")
        if not 0 <= self.l2_weight < math.inf:
            raise ConfigError("l2_weight must be finite and >= 0")
        if not 0 <= self.adam_beta1 < 1:
            raise ConfigError("adam_beta1 must be in [0, 1)")
        if not 0 <= self.adam_beta2 < 1:
            raise ConfigError("adam_beta2 must be in [0, 1)")
        if not 0 < self.adam_eps < math.inf:
            raise ConfigError("adam_eps must be finite and > 0")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


def bce_sum(predictions: Tensor, labels: np.ndarray) -> Tensor:
    """Summed binary cross-entropy, computed in float64 after clamping."""
    p = T.clamp(T.cast(predictions, np.float64), PRED_CLAMP, 1.0 - PRED_CLAMP)
    y = Tensor(np.asarray(labels, dtype=np.float64))
    one_minus_y = Tensor(1.0 - y.data)
    ll = T.add(T.elementwise_mul(y, T.log(p)),
               T.elementwise_mul(one_minus_y, T.log(T.add_scalar(T.scale(p, -1.0), 1.0))))
    return T.scale(T.sum_all(ll), -1.0)


def joint_loss(implicit_pred: Optional[Tensor], implicit_labels: Optional[np.ndarray],
               explicit_pred: Optional[Tensor], explicit_labels: Optional[np.ndarray],
               embedding_rows: Sequence[Tensor], config: TrainingConfig) -> Tensor:
    """eta * L_I + L_E + lambda * sum of squared touched embedding vectors."""
    total: Optional[Tensor] = None

    def accumulate(term: Tensor) -> None:
        nonlocal total
        total = term if total is None else T.add(total, term)

    if implicit_pred is not None and implicit_pred.data.size:
        accumulate(T.scale(bce_sum(implicit_pred, implicit_labels), config.implicit_weight))
    if explicit_pred is not None and explicit_pred.data.size:
        accumulate(bce_sum(explicit_pred, explicit_labels))
    if config.l2_weight != 0.0:
        for rows in embedding_rows:
            accumulate(T.scale(T.cast(T.l2_sq(rows), np.float64), config.l2_weight))
    if total is None:
        return Tensor(np.float64(0.0))
    return total


def _draw_unobserved(observed: np.ndarray, users: np.ndarray, need: np.ndarray, num_items: int,
                     width: int, rng: np.random.Generator) -> np.ndarray:
    """``[len(users), width]`` items whose row r holds ``need[r]`` uniform
    draws in its first slots and -1 after them. A row's draws are distinct
    items whose keys ``InteractionStore.pair_key(users[r], item)`` are not
    in ``observed`` (from ``InteractionStore.observed_keys``).

    Every row is drawn at once, by rejecting draws the user observed and
    repeats within the row. Each round sorts every row of its items so far
    and its new draws once, by (item, column), and that one sort serves both
    checks: a repeat sits right after its first occurrence, and the row's
    pair keys rise, so their search in ``observed`` walks it forward. A row
    whose user has fewer eligible items than it needs is drawn with
    replacement instead, and the call logs how many rows did so.
    """
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
        log.warning("%d of %d rows have fewer eligible items than they draw; "
                    "sampling them with replacement", short.size, users.size)
    filled = np.zeros(users.size, dtype=np.int64)
    pending = np.flatnonzero((eligible >= need) & (need > 0))
    while pending.size:
        want = need[pending]
        draws = max(16, 2 * int((want - filled[pending]).max()))
        # each row's items so far (-1 marks no item) and its draws, sorted by
        # (item, column) through the one key (item << shift) | column; the
        # temporaries are updated in place and their buffers reused
        item = np.concatenate([out[pending], rng.integers(0, n, size=(pending.size, draws))], axis=1)
        shift = (item.shape[1] - 1).bit_length()
        item <<= shift
        item |= np.arange(item.shape[1])
        item.sort(axis=1)
        col = item & ((1 << shift) - 1)
        item >>= shift
        # first occurrences of items the row's user has not observed
        keep = item >= 0
        keep[:, 1:] &= item[:, 1:] != item[:, :-1]
        item += base[pending, None]  # pair keys, rising along the row
        found = np.searchsorted(observed, item)
        np.take(observed, found, out=found, mode="clip")  # in range: observed ends in its sentinel
        keep &= found != item
        item -= base[pending, None]
        item[~keep] = -1
        # back in column order, so the earliest kept items fill the row
        cand = found
        np.put_along_axis(cand, col, item, axis=1)
        keep = cand >= 0
        slot = np.cumsum(keep, axis=1, out=col)
        at, c = np.nonzero(keep & (slot <= want[:, None]))
        out[pending[at], slot[at, c] - 1] = cand[at, c]
        filled[pending] = np.minimum(slot[:, -1], want)
        pending = pending[filled[pending] < want]
    return out


def sample_negatives(store: InteractionStore, users: np.ndarray, matrix: str, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform unobserved items in the chosen matrix: ``[len(users), count]``
    for an int array ``users`` with one user per row.

    Held-out evaluation items are never eligible. Each row is a sample
    without replacement, drawn for all rows at once by rejecting draws the
    user observed and repeats within the row. A row whose user has fewer
    eligible items than ``count`` is drawn with replacement instead, and the
    call logs how many rows did so.
    """
    rows = np.asarray(users, dtype=np.int64)
    if rows.ndim != 1:
        raise ConfigError(f"users must be a 1-D array with one user per row, got shape {rows.shape}")
    need = np.full(rows.size, count, dtype=np.int64)
    return _draw_unobserved(store.observed_keys(matrix), rows, need, store.num_items, count, rng)


def pad_sequence(history: Sequence[int], n: int, num_items: int, user_observed: set | np.ndarray,
                 rng: np.random.Generator, users: Optional[np.ndarray] = None) -> np.ndarray:
    """Fix histories to exactly ``n`` items: keep the ``n`` most recent, or
    prepend uniform draws from items the user never interacted with.

    One history: ``history`` is a sequence of items and ``user_observed``
    the user's observed items. A batch, with ``users`` holding one user per
    row: ``history`` is ``[len(users), m]``, each row's items right-aligned
    after -1, ``user_observed`` the keys from ``InteractionStore.observed_keys``.
    Either way every row is padded in one draw (see ``_draw_unobserved``).
    """
    if n < 1:
        raise ConfigError("sequence length must be >= 1")
    if users is None:  # one row of user 0, whose keys are the item ids and num_items the sentinel
        observed = np.append(np.unique(np.fromiter(user_observed, np.int64)), num_items)
        return pad_sequence(np.asarray(history, dtype=np.int64)[None, :], n, num_items, observed, rng,
                            users=np.zeros(1, dtype=np.int64))[0]
    history = np.concatenate([np.full((users.size, max(n - history.shape[1], 0)), -1), history[:, -n:]], axis=1)
    missing = history < 0
    pads = _draw_unobserved(user_observed, users, missing.sum(1), num_items, n, rng) if missing.any() else history
    return np.where(missing, pads, history)


class Adam:
    """Adam with bias correction; moment state persists across steps and
    gradients are cleared after each update."""

    def __init__(self, params: ParameterRegistry, learning_rate: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {p.name: np.zeros_like(p.data) for p in params}
        self._v = {p.name: np.zeros_like(p.data) for p in params}

    @classmethod
    def from_config(cls, params: ParameterRegistry, config: TrainingConfig) -> "Adam":
        return cls(params, config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self._m[p.name]
            v = self._v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data -= update.astype(p.data.dtype, copy=False)
        self.params.zero_grads()


@dataclass
class EpochReport:
    mean_loss: float
    steps: int


def build_epoch_examples(store: InteractionStore, negatives_per_positive: int,
                         rng: np.random.Generator) -> np.ndarray:
    """One epoch's examples as rows (kind, user, anchor, candidate, label).

    Every positive of each matrix yields itself plus freshly sampled
    negatives; the anchor column keeps the positive's item so negatives can
    share its session context. Rows come back shuffled, which mixes the two
    matrices proportionally to their sizes.
    """
    m = negatives_per_positive
    blocks = []
    for kind, matrix in ((_KIND_IMPLICIT, "implicit"), (_KIND_EXPLICIT, "explicit")):
        users, items = np.divmod(store.pair_keys(matrix), store.num_items)
        block = np.zeros((users.size, 1 + m, 5), dtype=np.int64)
        block[..., 0] = kind
        block[..., 1] = users[:, None]
        block[..., 2] = items[:, None]
        block[:, 0, 3] = items
        block[:, 0, 4] = 1
        block[:, 1:, 3] = sample_negatives(store, users, matrix, m, rng)
        blocks.append(block.reshape(-1, 5))
    arr = np.concatenate(blocks)
    if not arr.shape[0]:
        raise ConfigError("empty training set: no positive interactions")
    # the same permutation, and rng state, as rng.shuffle(arr, axis=0), which
    # moves one row at a time
    return arr[rng.permutation(arr.shape[0])]


def _session_contexts(store: InteractionStore, users: np.ndarray, anchors: np.ndarray, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Each row's ``[n]`` context: the user's last ``n`` items before the
    anchor's first event, or before the history's end when the anchor was
    held out, left-padded by ``pad_sequence`` in one draw for all rows."""
    end = store.context_ends(users, anchors)
    start = np.maximum(store.offsets[users], end - n)
    rows = end[:, None] - n + np.arange(n)
    kept = rows >= start[:, None]
    history = np.full(rows.shape, -1, dtype=np.int64)
    history[kept] = store.items[rows[kept]]
    return pad_sequence(history, n, store.num_items, store.observed_keys(IMPLICIT), rng, users=users)


def train_epoch(model, store: InteractionStore, config: TrainingConfig,
                rng: np.random.Generator, side_info: Optional[SideInfo] = None,
                optimizer: Optional[Adam] = None) -> EpochReport:
    """One pass over freshly sampled examples: one forward, a backward and
    one Adam step per shuffled batch. Every row gets both heads; the
    implicit rows' labels score the implicit head and the explicit rows'
    the explicit head. Deterministic for a given rng state."""
    config.validate()
    if optimizer is None:
        optimizer = Adam.from_config(model.params, config)
    examples = build_epoch_examples(store, config.negatives_per_positive, rng)
    losses = []
    for start in range(0, examples.shape[0], config.batch_size):
        batch = examples[start:start + config.batch_size]
        users, anchors, candidates = batch[:, 1], batch[:, 2], batch[:, 3]
        contexts = None
        if model.kind == "bert":
            contexts = _session_contexts(store, users, anchors, model.config.seq_len, rng)
        res = model.forward_batch(users, candidates, contexts, side_info, training=True, rng=rng)
        labels = batch[:, 4].astype(np.float64)
        implicit = np.flatnonzero(batch[:, 0] == _KIND_IMPLICIT)
        explicit = np.flatnonzero(batch[:, 0] == _KIND_EXPLICIT)
        loss = joint_loss(T.gather_rows(res.x_hat, implicit), labels[implicit],
                          T.gather_rows(res.y_hat, explicit), labels[explicit], res.embedding_rows, config)
        value = loss.item()
        if not np.isfinite(value):
            # stop before the update spreads the bad value into the parameters
            raise NonFiniteLossError(f"non-finite training loss {value} at step {len(losses) + 1}")
        loss.backward()
        optimizer.step()
        losses.append(value)
    return EpochReport(mean_loss=float(np.mean(losses)), steps=len(losses))


@dataclass
class FitResult:
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_hr: float = 0.0
    best_ndcg: float = 0.0
    best_params: dict = field(default_factory=dict)


def fit(model, store: InteractionStore, config: TrainingConfig,
        cases: Optional[list] = None, side_info: Optional[SideInfo] = None,
        eval_topk: int = 10, workers: int = 1,
        on_epoch: Optional[Callable[[dict], None]] = None) -> FitResult:
    """Train for ``config.epochs`` epochs, evaluating after each one and
    keeping a snapshot of the best-scoring parameters (the reported figures
    follow the best test-set epoch, as does the saved checkpoint)."""
    from .evaluation import evaluate

    def snapshot() -> dict:
        return {k: v.copy() for k, v in model.params.state_arrays().items()}

    result = FitResult(best_params=snapshot())
    optimizer = Adam.from_config(model.params, config)
    best_key: Optional[tuple] = None
    for epoch in range(config.epochs):
        started = time.perf_counter()
        rng = np.random.default_rng([config.seed, epoch])
        report = train_epoch(model, store, config, rng, side_info, optimizer)
        record = {"epoch": epoch, "mean_loss": report.mean_loss, "steps": report.steps,
                  "seconds": time.perf_counter() - started}
        if cases:
            hr, ndcg = evaluate(model, cases, store=store, side_info=side_info,
                                k=eval_topk, seed=config.seed, workers=workers)
            record["hr"] = hr
            record["ndcg"] = ndcg
            key = (hr, ndcg)
            if best_key is None or key > best_key:
                best_key = key
                result.best_epoch = epoch
                result.best_hr = hr
                result.best_ndcg = ndcg
                result.best_params = snapshot()
        else:
            result.best_epoch = epoch
            result.best_params = snapshot()
        result.history.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return result
