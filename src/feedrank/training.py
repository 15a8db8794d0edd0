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
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .data import InteractionStore, SideInfo, sample_unobserved
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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.implicit_weight < 0:
            raise ConfigError("implicit_weight must be >= 0")
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


def sample_negatives(store: InteractionStore, user: int, matrix: str, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform unobserved items for one user in the chosen matrix.

    Held-out evaluation items are never eligible. Sampling is without
    replacement; when fewer candidates exist than requested, sampling falls
    back to with-replacement and logs the degradation.
    """
    if matrix == "implicit":
        observed = store.implicit_items[user]
    elif matrix == "explicit":
        observed = store.explicit_items[user]
    else:
        raise ConfigError(f"matrix must be 'implicit' or 'explicit', got {matrix!r}")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return sample_unobserved(store.num_items, observed | store.excluded_items[user], count, rng)


def pad_sequence(history: Sequence[int], n: int, num_items: int, user_observed: set,
                 rng: np.random.Generator) -> np.ndarray:
    """Fix a history to exactly ``n`` items: keep the ``n`` most recent, or
    prepend uniform draws from items the user never interacted with."""
    if n < 1:
        raise ConfigError("sequence length must be >= 1")
    hist = np.asarray(history, dtype=np.int64)
    if hist.size >= n:
        return hist[-n:]
    pads = sample_unobserved(num_items, user_observed, n - hist.size, rng)
    return np.concatenate([pads, hist])


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
        self._m = {p.name: np.zeros_like(p.value.data) for p in params}
        self._v = {p.name: np.zeros_like(p.value.data) for p in params}

    @classmethod
    def from_config(cls, params: ParameterRegistry, config: TrainingConfig) -> "Adam":
        return cls(params, config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.value.grad
            if g is None:
                g = np.zeros_like(p.value.data)
            m = self._m[p.name]
            v = self._v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            p.value.data -= (self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.value.data.dtype)
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
    rows: list[tuple[int, int, int, int, int]] = []
    for u in range(store.num_users):
        for kind, items, matrix in ((_KIND_IMPLICIT, store.implicit_items[u], "implicit"),
                                    (_KIND_EXPLICIT, store.explicit_items[u], "explicit")):
            for i in sorted(items):
                rows.append((kind, u, i, i, 1))
                for j in sample_negatives(store, u, matrix, negatives_per_positive, rng):
                    rows.append((kind, u, i, int(j), 0))
    if not rows:
        raise ConfigError("empty training set: no positive interactions")
    arr = np.array(rows, dtype=np.int64)
    rng.shuffle(arr, axis=0)
    return arr


def _session_contexts(store: InteractionStore, users: np.ndarray, anchors: np.ndarray,
                      n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((users.size, n), dtype=np.int64)
    for pos, (u, anchor) in enumerate(zip(users, anchors)):
        u = int(u)
        first = store.first_positions(u).get(int(anchor))
        if first is None:
            history = store.merged_sequence(u)  # anchor left the store (held out)
        else:
            history = store.merged_sequence(u)[max(0, first - n):first]
        out[pos] = pad_sequence(history, n, store.num_items, store.observed_any(u), rng)
    return out


def train_epoch(model, store: InteractionStore, config: TrainingConfig,
                rng: np.random.Generator, side_info: Optional[SideInfo] = None,
                optimizer: Optional[Adam] = None) -> EpochReport:
    """One pass over freshly sampled examples: a combined backward and one
    Adam step per shuffled batch. Deterministic for a given rng state."""
    config.validate()
    if optimizer is None:
        optimizer = Adam.from_config(model.params, config)
    examples = build_epoch_examples(store, config.negatives_per_positive, rng)
    losses = []
    for start in range(0, examples.shape[0], config.batch_size):
        batch = examples[start:start + config.batch_size]
        preds: list[Optional[Tensor]] = [None, None]      # indexed by example kind
        labels: list[Optional[np.ndarray]] = [None, None]
        embedding_rows: list[Tensor] = []
        for kind in (_KIND_IMPLICIT, _KIND_EXPLICIT):
            rows = batch[batch[:, 0] == kind]
            if not rows.shape[0]:
                continue
            users, anchors, candidates = rows[:, 1], rows[:, 2], rows[:, 3]
            contexts = None
            if model.kind == "bert":
                contexts = _session_contexts(store, users, anchors, model.config.seq_len, rng)
            res = model.forward_batch(users, candidates, contexts, side_info, training=True, rng=rng)
            preds[kind] = res.x_hat if kind == _KIND_IMPLICIT else res.y_hat
            labels[kind] = rows[:, 4].astype(np.float64)
            embedding_rows.extend(res.embedding_rows)
        loss = joint_loss(preds[_KIND_IMPLICIT], labels[_KIND_IMPLICIT],
                          preds[_KIND_EXPLICIT], labels[_KIND_EXPLICIT], embedding_rows, config)
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

    result = FitResult(best_params={k: v.copy() for k, v in model.params.state_arrays().items()})
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
                result.best_params = {k: v.copy() for k, v in model.params.state_arrays().items()}
        else:
            result.best_epoch = epoch
            result.best_params = {k: v.copy() for k, v in model.params.state_arrays().items()}
        result.history.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return result
