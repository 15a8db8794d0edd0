"""Top-K ranking metrics and the leave-one-out evaluation harness.

Each case ranks the held-out item against its sampled negatives by the
product of the implicit and explicit probabilities. Ranks are 1-based;
ties break toward the lower internal item id so runs are reproducible.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .data import IMPLICIT, EvalCase, InteractionStore, SideInfo
from .models import predict_score
from .training import pad_sequence


def hr_at_k(rank: int, k: int) -> int:
    """1 when the ground-truth item lands in the top k, else 0."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return 1 if rank <= k else 0


def ndcg_at_k(rank: int, k: int) -> float:
    """Position-discounted gain log(2)/log(rank+1) inside the top k, else 0."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > k:
        return 0.0
    return math.log(2.0) / math.log(rank + 1.0)


def rank_of_first(scores: np.ndarray, item_ids: np.ndarray) -> int:
    """1-based rank of candidate 0 under descending score, ties by
    ascending item id."""
    gt_score = scores[0]
    gt_item = item_ids[0]
    better = int(np.sum(scores[1:] > gt_score))
    tied_ahead = int(np.sum((scores[1:] == gt_score) & (item_ids[1:] < gt_item)))
    return 1 + better + tied_ahead


def _case_scores(model, case: EvalCase, candidates: np.ndarray, store: Optional[InteractionStore],
                 side_info: Optional[SideInfo], seed: int) -> np.ndarray:
    """Scores of ``candidates`` (int64: the case's item, then its
    negatives), all in one forward."""
    # every candidate shares the case's user and context rows
    users = np.array([case.user], dtype=np.int64)
    contexts = None
    if model.kind == "bert":
        if store is None:
            raise ValueError("evaluating a sequence model requires the training store for padding")
        observed, key = store.observed_keys(IMPLICIT), store.pair_key(case.user, case.item)
        at = np.searchsorted(observed, key)
        if observed[at] != key:  # pads avoid the case's item, also where the store did not hold it out
            observed = np.insert(observed, at, key)
        contexts = pad_sequence(np.asarray(case.history, dtype=np.int64)[None, :], model.config.seq_len,
                                store.num_items, observed, np.random.default_rng([seed, case.user]), users=users)
    with T.no_grad():
        res = model.forward_batch(users, candidates, contexts, side_info)
    return predict_score(res.x_hat.data.astype(np.float64), res.y_hat.data.astype(np.float64))


def case_rank(model, case: EvalCase, store: Optional[InteractionStore] = None,
              side_info: Optional[SideInfo] = None, seed: int = 0) -> int:
    """Rank of the held-out item among its candidate list. A NaN or
    infinite score raises ValueError: no rank would be meaningful, and NaN
    would otherwise lose every comparison and rank first."""
    candidates = np.concatenate([[case.item], case.negatives]).astype(np.int64)
    scores = _case_scores(model, case, candidates, store, side_info, seed)
    bad = int(np.sum(~np.isfinite(scores)))
    if bad:
        raise ValueError(f"user {case.user}: {bad} of {scores.size} candidate scores "
                         "are NaN or infinite")
    return rank_of_first(scores, candidates)


def evaluate(model, cases: Sequence[EvalCase], store: Optional[InteractionStore] = None,
             side_info: Optional[SideInfo] = None, k: int = 10, seed: int = 0,
             workers: int = 1) -> tuple[float, float]:
    """Mean HR@k and NDCG@k over all cases (dropout-free forward passes)."""
    [(_, hr, ndcg)] = topk_sweep(model, cases, store, side_info, [k], seed, workers)
    return hr, ndcg


def case_ranks(model, cases: Sequence[EvalCase], store: Optional[InteractionStore] = None,
               side_info: Optional[SideInfo] = None, seed: int = 0,
               workers: int = 1) -> list[int]:
    if not cases:
        raise ValueError("evaluate needs at least one case")
    if workers <= 1:
        return [case_rank(model, c, store, side_info, seed) for c in cases]
    state = np.geterr()  # a pool thread starts from numpy's defaults, not the caller's

    def rank(case: EvalCase) -> int:
        with np.errstate(**state):
            return case_rank(model, case, store, side_info, seed)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(rank, cases))


def topk_sweep(model, cases: Sequence[EvalCase], store: Optional[InteractionStore] = None,
               side_info: Optional[SideInfo] = None, ks: Sequence[int] = range(1, 21),
               seed: int = 0, workers: int = 1) -> list[tuple[int, float, float]]:
    """(k, HR@k, NDCG@k) rows over a range of cutoffs, ranking only once."""
    ranks = case_ranks(model, cases, store, side_info, seed, workers)
    out = []
    for k in ks:
        hr = float(np.mean([hr_at_k(r, k) for r in ranks]))
        ndcg = float(np.mean([ndcg_at_k(r, k) for r in ranks]))
        out.append((int(k), hr, ndcg))
    return out
