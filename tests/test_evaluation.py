"""Ranking metrics against brute-force oracles and hand traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedrank import evaluation, layers
from feedrank.data import (DataError, EvalCase, InteractionStore, build_side_info, ingest, leave_one_out_split,
                           read_category_pairs)
from feedrank.evaluation import (case_rank, case_ranks, evaluate, hr_at_k, ndcg_at_k, rank_of_first,
                                 topk_sweep)
from feedrank.models import BertITEModel, ForwardResult, ModelConfig, build_model, predict_score
from feedrank.tensor import Tensor, no_grad
from feedrank.training import pad_sequence

from conftest import event_table, planted_dataset


class FakeModel:
    """Deterministic score table standing in for a trained model."""

    kind = "ite"

    def __init__(self, scores: np.ndarray):
        self.scores = np.asarray(scores, dtype=np.float64)

    def forward_batch(self, users, candidates, contexts=None, side_info=None):
        x = self.scores[np.asarray(users), np.asarray(candidates)]
        return ForwardResult(Tensor(x), Tensor(np.ones_like(x)), [])


def case(user, item, negatives, history=()):
    return EvalCase(user, item, np.asarray(negatives, dtype=np.int64),
                    np.asarray(history, dtype=np.int64))


def chunked_scores(forward, user, candidates, *rest):
    """Scores of ``candidates`` for ``user`` from forwards of at most 512
    of them each."""
    scores = np.empty(candidates.size)
    with no_grad():
        for start in range(0, candidates.size, 512):
            res = forward(np.array([user]), candidates[start:start + 512], *rest)
            scores[start:start + 512] = predict_score(res.x_hat.data.astype(np.float64),
                                                      res.y_hat.data.astype(np.float64))
    return scores


class TestPointMetrics:
    def test_hr_values(self):
        assert hr_at_k(1, 10) == 1
        assert hr_at_k(10, 10) == 1
        assert hr_at_k(11, 10) == 0

    def test_ndcg_values(self):
        assert ndcg_at_k(1, 10) == 1.0
        assert ndcg_at_k(3, 10) == 0.5  # log(2)/log(4), exact
        assert ndcg_at_k(11, 10) == 0.0

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            hr_at_k(0, 10)
        with pytest.raises(ValueError):
            ndcg_at_k(0, 10)

    def test_ndcg_never_exceeds_hr(self):
        for rank in range(1, 30):
            assert ndcg_at_k(rank, 10) <= hr_at_k(rank, 10)


class TestRanking:
    def test_ties_break_by_ascending_item_id(self):
        scores = np.array([0.5, 0.5, 0.5, 0.9])
        ids = np.array([7, 3, 9, 1])
        # item 1 scores higher; item 3 ties and has a lower id than 7
        assert rank_of_first(scores, ids) == 3

    def test_brute_force_rerank_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = rng.integers(2, 40)
            ids = rng.permutation(1000)[:n]
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            got = rank_of_first(scores, ids)
            order = sorted(range(n), key=lambda j: (-scores[j], ids[j]))
            assert got == order.index(0) + 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), scores=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    def test_non_finite_score_fails_the_case(self, data, scores):
        # a NaN fails every comparison, so ranking it would put it first
        where = data.draw(st.lists(st.integers(0, len(scores) - 1), min_size=1, unique=True))
        table = np.array(scores)
        table[where] = data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                                          min_size=len(where), max_size=len(where)))
        model = FakeModel(table[None, :])
        cases = [case(0, 0, np.arange(1, table.size))]
        with pytest.raises(ValueError, match=f"user 0: {len(where)} of {table.size} candidate scores"):
            case_rank(model, cases[0])
        with pytest.raises(ValueError, match="NaN or infinite"):
            evaluate(model, cases)


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        scores = np.zeros((3, 10))
        scores[0, 0] = scores[1, 4] = scores[2, 7] = 1.0
        model = FakeModel(scores)
        cases = [case(0, 0, [1, 2, 3]), case(1, 4, [5, 6]), case(2, 7, [8, 9, 1, 2])]
        hr, ndcg = evaluate(model, cases, k=10)
        assert hr == 1.0 and ndcg == 1.0

    def test_two_user_hand_trace(self):
        scores = np.zeros((2, 6))
        scores[0] = [0.9, 0.1, 0.8, 0.85, 0.0, 0.0]   # gt item 0 ranked 1st
        scores[1] = [0.0, 0.2, 0.5, 0.4, 0.3, 0.1]    # gt item 1 ranked 4th of 5
        model = FakeModel(scores)
        cases = [case(0, 0, [1, 2, 3]), case(1, 1, [2, 3, 4, 5])]
        hr, ndcg = evaluate(model, cases, k=3)
        assert hr == pytest.approx(0.5)                       # (1 + 0) / 2
        assert ndcg == pytest.approx((1.0 + 0.0) / 2)
        hr10, ndcg10 = evaluate(model, cases, k=10)
        assert hr10 == 1.0
        assert ndcg10 == pytest.approx((1.0 + math.log(2) / math.log(5)) / 2)

    def test_mean_matches_brute_force_recount(self):
        rng = np.random.default_rng(1)
        scores = rng.random((20, 50))
        model = FakeModel(scores)
        cases = []
        for u in range(20):
            items = rng.permutation(50)
            cases.append(case(u, items[0], items[1:21]))
        hr, ndcg = evaluate(model, cases, k=5)
        hits, gains = [], []
        for c in cases:
            cand = [c.item] + c.negatives.tolist()
            ranked = sorted(cand, key=lambda j: (-scores[c.user, j], j))
            rank = ranked.index(c.item) + 1
            hits.append(1.0 if rank <= 5 else 0.0)
            gains.append(math.log(2) / math.log(rank + 1) if rank <= 5 else 0.0)
        assert hr == pytest.approx(np.mean(hits))
        assert ndcg == pytest.approx(np.mean(gains))

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(2)
        raw = rng.random((5, 30))
        cases = [case(u, u, np.arange(10, 20)) for u in range(5)]
        base = evaluate(FakeModel(raw), cases, k=10)
        warped = evaluate(FakeModel(np.exp(3.0 * raw) + 7.0), cases, k=10)
        assert base == warped

    def test_empty_case_list_rejected(self):
        with pytest.raises(ValueError, match="at least one case"):
            evaluate(FakeModel(np.zeros((1, 1))), [])

    def test_workers_do_not_change_results(self):
        rng = np.random.default_rng(3)
        model = FakeModel(rng.random((8, 40)))
        cases = [case(u, u, np.arange(20, 35)) for u in range(8)]
        assert evaluate(model, cases, k=5) == evaluate(model, cases, k=5, workers=4)

    def test_ndcg_bounded_by_hr_in_the_mean(self):
        rng = np.random.default_rng(4)
        model = FakeModel(rng.random((10, 30)))
        cases = [case(u, rng.integers(0, 30), np.arange(5, 25)) for u in range(10)]
        hr, ndcg = evaluate(model, cases, k=10)
        assert ndcg <= hr


class TestUntrainedModelRanksUniformly:
    def test_hr_matches_binomial_rate(self):
        # untrained embeddings rank the held-out item uniformly among 1000
        # candidates, so HR@10 concentrates near 10/1000 (3-sigma bounds)
        from feedrank.models import ITEModel, ModelConfig

        num_cases, num_items = 2000, 1100
        model = ITEModel(num_cases, num_items,
                         ModelConfig(embedding_dim=4, attention_heads=2), seed=123)
        rng = np.random.default_rng(9)
        cases = []
        for u in range(num_cases):
            picks = rng.permutation(num_items)[:1000]
            cases.append(case(u, picks[0], picks[1:]))
        hr, ndcg = evaluate(model, cases, k=10)
        p = 10.0 / 1000.0
        sigma = math.sqrt(p * (1 - p) / num_cases)
        assert abs(hr - p) <= 3 * sigma, (hr, p, 3 * sigma)
        assert ndcg <= hr


class TestIteEvaluation:
    def test_case_scored_in_one_forward_equal_to_chunked(self, monkeypatch):
        from feedrank.models import ITEModel

        model = ITEModel(4, 1100, ModelConfig(embedding_dim=8, attention_heads=2), seed=7)
        rng = np.random.default_rng(3)
        for p in model.params:
            p.data[:] = rng.uniform(-1, 1, p.shape)
        c = case(2, 5, rng.permutation(1100)[:999])
        candidates = np.concatenate([[c.item], c.negatives])
        chunked = chunked_scores(model.forward_batch, c.user, candidates)
        sizes = []
        forward = model.forward_batch
        monkeypatch.setattr(model, "forward_batch",
                            lambda users, items, *rest: sizes.append(items.size)
                            or forward(users, items, *rest))
        scores = evaluation._case_scores(model, c, candidates, None, None, seed=0)
        assert sizes == [1000]
        assert scores.tobytes() == chunked.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_case_ranks_calls_case_rank_once_per_case(self, monkeypatch, workers):
        # traced benchmark runs time evaluation by wrapping case_rank
        rng = np.random.default_rng(4)
        model = FakeModel(rng.random((6, 40)))
        cases = [case(u, int(rng.integers(0, 40)), rng.permutation(40)[:20]) for u in range(6)]
        seen = []
        rank = evaluation.case_rank
        monkeypatch.setattr(evaluation, "case_rank",
                            lambda model, c, *rest: seen.append(c.user) or rank(model, c, *rest))
        ranks = case_ranks(model, cases, workers=workers)
        assert sorted(seen) == [c.user for c in cases]
        assert ranks == [rank(model, c) for c in cases]


    @pytest.mark.parametrize("workers", [1, 2])
    def test_cases_score_under_the_callers_error_state(self, workers):
        # every parameter at 1e30 overflows float32 products; a pool thread
        # starts from numpy's default state unless it takes the caller's
        from feedrank.models import ITEModel

        model = ITEModel(4, 30, ModelConfig(embedding_dim=4, attention_heads=2), seed=0)
        for p in model.params:
            p.data[:] = 1e30
        cases = [case(u, u, np.arange(10, 20)) for u in range(4)]
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            case_ranks(model, cases, workers=workers)
        with np.errstate(all="ignore"):
            assert case_ranks(model, cases, workers=workers) == [case_rank(model, c) for c in cases]


class TestTopkSweep:
    def test_metrics_monotone_in_k(self):
        rng = np.random.default_rng(5)
        model = FakeModel(rng.random((6, 60)))
        cases = [case(u, int(rng.integers(0, 60)), rng.permutation(60)[:30]) for u in range(6)]
        rows = topk_sweep(model, cases, ks=range(1, 21))
        hrs = [r[1] for r in rows]
        ndcgs = [r[2] for r in rows]
        assert all(b >= a for a, b in zip(hrs, hrs[1:]))
        assert all(b >= a for a, b in zip(ndcgs, ndcgs[1:]))


class TestSequenceModelEvaluation:
    def test_bert_path_runs_and_is_deterministic(self, tmp_path):
        events, _ = planted_dataset(tmp_path, num_groups=3, users_per_group=3,
                                    items_per_group=5, explicit_per_user=2)
        store = ingest(str(events))
        train, cases = leave_one_out_split(store, num_negatives=8, seed=0)
        model = BertITEModel(train.num_users, train.num_items,
                             ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1,
                                         attention_heads=2, dropout=0.3), seed=9)
        a = evaluate(model, cases, store=train, k=5, seed=11)
        b = evaluate(model, cases, store=train, k=5, seed=11)
        assert a == b

    @pytest.mark.parametrize("variant", ["bert-ite", "bert-ite-si", "bert-ite-ossi"])
    def test_shared_context_scores_match_one_candidate_at_a_time(self, tmp_path, variant):
        # 513 candidates end in a one-candidate block of the shared-prefix layer
        events, cats = planted_dataset(tmp_path, num_groups=4, users_per_group=3, items_per_group=6)
        train, _ = leave_one_out_split(ingest(str(events)), num_negatives=8, seed=0)
        side = build_side_info(train, read_category_pairs(str(cats)))
        model = build_model(variant, train.num_users, train.num_items,
                            ModelConfig(embedding_dim=8, seq_len=4, transformer_layers=2,
                                        attention_heads=2, side_dim=side.num_categories), seed=3)
        rng = np.random.default_rng(1)
        for p in model.params:
            p.data[:] = rng.uniform(-1, 1, p.shape)
        user, history = 5, rng.integers(0, train.num_items, 6)  # long enough to need no padding
        c = case(user, 2, rng.integers(0, train.num_items, 512), history)
        candidates = np.concatenate([[c.item], c.negatives])
        scores = evaluation._case_scores(model, c, candidates, train, side, seed=0)
        one_at_a_time = np.empty(candidates.size)
        with no_grad():
            for j, item in enumerate(candidates):
                res = model.forward_batch(np.array([user]), np.array([item]), history[None, -4:], side)
                one_at_a_time[j] = predict_score(res.x_hat.data.astype(np.float64),
                                                 res.y_hat.data.astype(np.float64))[0]
        assert scores.size == 513
        np.testing.assert_allclose(scores, one_at_a_time, rtol=1e-5, atol=0)

    @pytest.mark.parametrize("variant", ["bert-ite", "bert-ite-si"])
    def test_case_scored_in_one_forward_equal_to_chunked(self, tmp_path, monkeypatch, variant):
        events, cats = planted_dataset(tmp_path, num_groups=4, users_per_group=3, items_per_group=6)
        train, _ = leave_one_out_split(ingest(str(events)), num_negatives=8, seed=0)
        side = build_side_info(train, read_category_pairs(str(cats)))
        model = build_model(variant, train.num_users, train.num_items,
                            ModelConfig(embedding_dim=8, seq_len=4, transformer_layers=2,
                                        attention_heads=2, side_dim=side.num_categories), seed=5)
        rng = np.random.default_rng(3)
        for p in model.params:
            p.data[:] = rng.uniform(-1, 1, p.shape)
        c = case(4, 2, rng.integers(0, train.num_items, 999), rng.integers(0, train.num_items, 2))
        candidates = np.concatenate([[c.item], c.negatives])
        calls = []
        forward = model.forward_batch
        monkeypatch.setattr(model, "forward_batch",
                            lambda users, items, contexts, *rest: calls.append((items.size, contexts))
                            or forward(users, items, contexts, *rest))
        scores = evaluation._case_scores(model, c, candidates, train, side, seed=0)
        [(size, contexts)] = calls
        assert size == 1000
        assert scores.tobytes() == chunked_scores(forward, c.user, candidates, contexts, side).tobytes()

    def test_bert_workers_do_not_change_ranks(self, tmp_path, monkeypatch):
        events, _ = planted_dataset(tmp_path, num_groups=3, users_per_group=3,
                                    items_per_group=8, explicit_per_user=2)
        train, cases = leave_one_out_split(ingest(str(events)), num_negatives=12, seed=0)
        model = BertITEModel(train.num_users, train.num_items,
                             ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=2,
                                         attention_heads=2), seed=4)
        # blocks of 5 candidates: each thread crosses block edges within its case
        monkeypatch.setattr(layers, "BLOCK", 5)
        assert (case_ranks(model, cases, train, seed=2, workers=2)
                == case_ranks(model, cases, train, seed=2, workers=1))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), num_users=st.integers(1, 3), num_items=st.integers(1, 10),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_context_equals_the_one_history_rebuild(self, data, num_users, num_items, n, seed):
        # perfbench's eval-bert check rescores a case on this rebuild of its
        # context, so evaluation must pad exactly as the one-history form
        # does on observed_any(user) | {item}, from the case's own stream
        items = st.integers(0, num_items - 1)
        events = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), items, st.booleans()),
                                    max_size=25))
        held = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), items), max_size=6))
        store = InteractionStore([f"u{u}" for u in range(num_users)], [f"i{i}" for i in range(num_items)],
                                 *event_table(num_users, [u for u, _, _ in events], [i for _, i, _ in events],
                                              [e for _, _, e in events]),
                                 ([u for u, _ in held], [i for _, i in held]))
        user = data.draw(st.integers(0, num_users - 1))
        c = case(user, data.draw(items), data.draw(st.lists(items, max_size=3)),
                 data.draw(st.lists(items, max_size=2 * n)))
        observed = store.observed_any(user) | {c.item}
        model = BertITEModel(num_users, num_items, ModelConfig(embedding_dim=4, seq_len=n,
                                                               transformer_layers=1, attention_heads=2),
                             seed=0)
        contexts, forward = [], model.forward_batch

        def spy(users, candidates, context, *args, **kwargs):
            contexts.append(context)
            return forward(users, candidates, context, *args, **kwargs)

        model.forward_batch = spy

        def rebuild():
            return pad_sequence(c.history, n, num_items, observed, np.random.default_rng([seed, user]))

        if len(c.history) < n and len(observed) == num_items:
            for call in (rebuild, lambda: case_rank(model, c, store, seed=seed)):
                with pytest.raises(DataError, match="whole catalog"):
                    call()
            return
        case_rank(model, c, store, seed=seed)
        want = rebuild()
        assert contexts and all(ctx.dtype == np.int64 and ctx.shape == (1, n) for ctx in contexts)
        for ctx in contexts:
            np.testing.assert_array_equal(ctx[0], want)

    def test_bert_path_requires_store(self):
        model = BertITEModel(2, 30, ModelConfig(embedding_dim=4, seq_len=2,
                                                transformer_layers=1, attention_heads=2), seed=0)
        with pytest.raises(ValueError, match="training store"):
            evaluate(model, [case(0, 1, [2, 3], history=[4])])

    def test_rank_of_case_with_no_negatives_is_one(self):
        model = FakeModel(np.zeros((1, 3)))
        assert case_rank(model, case(0, 1, [])) == 1
