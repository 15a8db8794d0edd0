"""Loss values against hand evaluations, sampler laws, Adam traces, and
epoch-loop determinism."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from feedrank import tensor as T
from feedrank import training
from feedrank.data import (DataError, InteractionStore, build_side_info, ingest, leave_one_out_split,
                           read_category_pairs)
from feedrank.evaluation import evaluate
from feedrank.models import ITEModel, ModelConfig, build_model
from feedrank.tensor import ConfigError, ParameterRegistry, Tensor
from feedrank.training import (Adam, NonFiniteLossError, TrainingConfig, bce_sum,
                               build_epoch_examples, fit, joint_loss, pad_sequence,
                               sample_negatives, train_epoch)

from conftest import (copying_engine, event_table, planted_dataset, reference_draw_unobserved,
                      reference_sample_unobserved, same_bits, store_sets, to_float64)


def cfg(**kw):
    base = dict(learning_rate=0.001, batch_size=64, implicit_weight=0.5, l2_weight=0.0,
                negatives_per_positive=2, epochs=1, seed=0)
    base.update(kw)
    return TrainingConfig(**base)


class TestJointLoss:
    def test_perfect_predictions_near_zero(self):
        n = 8
        preds = Tensor(np.where(np.arange(n) % 2, 1.0 - 1e-7, 1e-7))
        labels = (np.arange(n) % 2).astype(np.float64)
        loss = joint_loss(preds, labels, None, None, [], cfg(implicit_weight=1.0))
        assert 0.0 <= loss.item() <= n * 1.7e-6

    def test_uniform_guess_is_ln2_per_example(self):
        n = 5
        preds = Tensor(np.full(n, 0.5))
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        loss = joint_loss(preds, labels, None, None, [], cfg(implicit_weight=1.0))
        assert abs(loss.item() - n * math.log(2.0)) < 1e-9

    def test_hand_value_mixed_batch(self):
        # 0.5 * (-ln 0.8) + (-ln 0.7)
        loss = joint_loss(Tensor(np.array([0.8])), np.array([1.0]),
                          Tensor(np.array([0.3])), np.array([0.0]),
                          [], cfg(implicit_weight=0.5))
        expected = 0.5 * -math.log(0.8) - math.log(0.7)
        assert abs(expected - 0.46824) < 1e-5  # 0.4682467...
        assert abs(loss.item() - expected) < 1e-12

    def test_regularizer_counts_touched_rows(self):
        rows = Tensor(np.array([[3.0, 4.0]]))
        loss = joint_loss(None, None, None, None, [rows], cfg(l2_weight=0.1))
        assert abs(loss.item() - 0.1 * 25.0) < 1e-12

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        preds = Tensor(rng.uniform(0.01, 0.99, size=32))
        labels = rng.integers(0, 2, size=32).astype(np.float64)
        rows = Tensor(rng.standard_normal((4, 3)))
        loss = joint_loss(preds, labels, preds, labels, [rows], cfg(l2_weight=1e-4))
        assert loss.item() >= 0.0

    def test_float32_saturated_predictions_stay_finite(self):
        preds = Tensor(np.array([1.0, 0.0], dtype=np.float32))  # saturated sigmoids
        labels = np.array([0.0, 1.0])
        loss = bce_sum(preds, labels)
        assert np.isfinite(loss.item())

    def test_eta_zero_kills_implicit_head_gradient(self):
        model = ITEModel(4, 6, ModelConfig(embedding_dim=4, attention_heads=2,
                                           implicit_mlp_layers=2, explicit_mlp_layers=2),
                         seed=1)
        to_float64(model.params)
        users, items = np.array([0, 1, 2]), np.array([1, 5, 3])
        impl = model.forward(users, items)
        expl = model.forward(np.array([3, 0]), np.array([0, 2]))
        loss = joint_loss(impl.x_hat, np.array([1.0, 0.0, 1.0]),
                          expl.y_hat, np.array([1.0, 0.0]),
                          impl.embedding_rows + expl.embedding_rows,
                          cfg(implicit_weight=0.0, l2_weight=0.0))
        loss.backward()
        np.testing.assert_array_equal(model.implicit_head.grad, np.zeros(8))
        # the shared front end still learns through the explicit path
        assert np.any(model.gmf_user.rows.grad != 0.0)
        assert np.any(model.explicit_head.grad != 0.0)


def held_out_pairs(held_out_sets):
    """``(users, items)`` columns of per-user held-out item sets."""
    return ([u for u, held in enumerate(held_out_sets) for _ in held],
            [i for held in held_out_sets for i in held])


def store_from_sets(num_users, num_items, implicit_sets, explicit_sets, held_out_sets=()):
    """One event per (user, item, behaviour), each user's implicit ones
    first, and each user's held-out items."""
    users, items, explicit = [], [], []
    for u in range(num_users):
        for flag, sets in ((False, implicit_sets), (True, explicit_sets)):
            for i in sorted(sets[u]):
                users.append(u)
                items.append(i)
                explicit.append(flag)
    return InteractionStore([f"u{j}" for j in range(num_users)], [f"i{j}" for j in range(num_items)],
                            *event_table(num_users, users, items, explicit), held_out_pairs(held_out_sets))


class TestSampleNegatives:
    def test_count_zero(self):
        store = store_from_sets(1, 4, [{0}], [set()])
        assert sample_negatives(store, [0], "implicit", 0, np.random.default_rng(0)).shape == (1, 0)

    def test_forced_choice(self):
        store = store_from_sets(1, 5, [{0, 1, 2, 3}], [set()])
        out = sample_negatives(store, [0], "implicit", 1, np.random.default_rng(1))
        assert out.tolist() == [[4]]

    def test_never_collides_with_observed(self):
        rng = np.random.default_rng(2)
        store = store_from_sets(3, 30,
                                [set(rng.choice(30, 10, replace=False).tolist()) for _ in range(3)],
                                [set(), {1, 2}, {5}])
        implicit, explicit, _ = store_sets(store)
        for u in range(3):
            for matrix, observed in (("implicit", implicit[u]), ("explicit", explicit[u])):
                for _ in range(20):
                    out = sample_negatives(store, [u], matrix, 5, rng)[0]
                    assert not set(out.tolist()) & observed
                    assert len(set(out.tolist())) == 5  # without replacement

    def test_excluded_items_never_sampled(self):
        store = store_from_sets(1, 10, [{0, 1}], [set()], [{9}])
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert 9 not in sample_negatives(store, [0], "implicit", 3, rng)[0].tolist()

    def test_uniformity_chi_square(self):
        # 1e5 draws over 8 eligible items: each frequency within 3 sigma
        store = store_from_sets(1, 10, [{0, 1}], [set()])
        rng = np.random.default_rng(4)
        draws = 100_000
        out = sample_negatives(store, np.zeros(draws, dtype=np.int64), "implicit", 1, rng)
        counts = np.bincount(out[:, 0], minlength=10)
        eligible = 8
        p = 1.0 / eligible
        sigma = math.sqrt(draws * p * (1 - p))
        assert counts[0] == counts[1] == 0
        np.testing.assert_array_less(np.abs(counts[2:] - draws * p), 3 * sigma)

    def test_insufficient_candidates_resamples_with_replacement(self, caplog):
        store = store_from_sets(1, 4, [{0, 1}], [set()])
        with caplog.at_level("WARNING"):
            out = sample_negatives(store, [0], "implicit", 5, np.random.default_rng(5))
        assert out.shape == (1, 5)
        assert set(out[0].tolist()) <= {2, 3}
        assert any("replacement" in r.message for r in caplog.records)

    def test_scalar_user_rejected(self):
        store = store_from_sets(1, 4, [{0}], [set()])
        with pytest.raises(ConfigError, match="1-D array"):
            sample_negatives(store, 0, "implicit", 1, np.random.default_rng(0))


class TestBatchedSampleNegatives:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), num_users=st.integers(1, 4), num_items=st.integers(1, 12),
           count=st.integers(0, 6), matrix=st.sampled_from(["implicit", "explicit"]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_are_unobserved_distinct_and_seeded(self, caplog, data, num_users, num_items,
                                                      count, matrix, seed):
        subsets = st.sets(st.integers(0, num_items - 1))
        implicit = [data.draw(subsets) for _ in range(num_users)]
        explicit = [data.draw(subsets) for _ in range(num_users)]
        held_out = [data.draw(subsets) for _ in range(num_users)]
        store = store_from_sets(num_users, num_items, implicit, explicit, held_out)
        users = np.array(data.draw(st.lists(st.integers(0, num_users - 1), max_size=20)), dtype=np.int64)
        implicit_sets, explicit_sets, held_sets = store_sets(store)
        matrix_items = implicit_sets if matrix == "implicit" else explicit_sets
        banned = [matrix_items[u] | held_sets[u] for u in range(num_users)]
        eligible = np.array([num_items - len(banned[u]) for u in users], dtype=np.int64)

        caplog.clear()
        if count and (eligible == 0).any():
            with pytest.raises(DataError, match="whole catalog"):
                sample_negatives(store, users, matrix, count, np.random.default_rng(seed))
            return
        with caplog.at_level("WARNING"):
            out = sample_negatives(store, users, matrix, count, np.random.default_rng(seed))
        assert out.shape == (users.size, count) and out.dtype == np.int64
        for u, row, room in zip(users, out.tolist(), eligible):
            assert all(0 <= i < num_items and i not in banned[u] for i in row)
            if room >= count:
                assert len(set(row)) == count
        warnings = [r for r in caplog.records if "replacement" in r.getMessage()]
        assert len(warnings) == (1 if count and (eligible < count).any() else 0)
        again = sample_negatives(store, users, matrix, count, np.random.default_rng(seed))
        np.testing.assert_array_equal(again, out)

    def test_rows_short_after_a_round_are_redrawn(self):
        # 5 eligible items of 200: a round of 16 draws per row rarely finds
        # them all, so every row needs further rounds to be complete
        store = store_from_sets(1, 200, [set(range(195))], [set()])
        out = sample_negatives(store, np.zeros(50, dtype=np.int64), "implicit", 5,
                               np.random.default_rng(7))
        assert [sorted(row) for row in out.tolist()] == [list(range(195, 200))] * 50

    def test_uniform_subsets_chi_square(self):
        # user 0 has 8 eligible items, user 1 has 7; each row is a uniform
        # 2-subset of its user's eligible items
        store = store_from_sets(2, 10, [{0, 1}, {5, 6}], [set(), set()], [set(), {7}])
        implicit, _, held_out = store_sets(store)
        rows = 20_000
        out = sample_negatives(store, np.repeat([0, 1], rows), "implicit", 2, np.random.default_rng(6))
        for u, block in enumerate((out[:rows], out[rows:])):
            eligible = sorted(set(range(10)) - implicit[u] - held_out[u])
            pairs = list(itertools.combinations(eligible, 2))
            index = {pair: j for j, pair in enumerate(pairs)}
            counts = np.bincount([index[tuple(sorted(r))] for r in block.tolist()], minlength=len(pairs))
            assert counts.sum() == rows
            assert chisquare(counts).pvalue > 1e-3


class TestPadSequence:
    def test_full_history_unchanged(self):
        hist = [3, 1, 4, 1, 5]
        out = pad_sequence(hist, 5, 10, {3, 1, 4, 5}, np.random.default_rng(0))
        assert out.tolist() == hist

    def test_longer_history_keeps_most_recent(self):
        out = pad_sequence([1, 2, 3, 4, 5], 3, 10, set(), np.random.default_rng(0))
        assert out.tolist() == [3, 4, 5]

    def test_empty_history_all_random_unobserved(self):
        observed = {0, 1, 2}
        out = pad_sequence([], 4, 10, observed, np.random.default_rng(1))
        assert out.size == 4
        assert not set(out.tolist()) & observed

    def test_two_missing_pads_two(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            observed = set(np.random.default_rng(3).choice(20, 6, replace=False).tolist())
            hist = list(observed)[:4]
            out = pad_sequence(hist, 6, 20, observed, rng)
            assert out.size == 6
            assert out[2:].tolist() == hist          # history preserved, pads prepended
            assert not set(out[:2].tolist()) & observed

    def test_deterministic_given_seed(self):
        a = pad_sequence([7], 5, 50, {7}, np.random.default_rng(42))
        b = pad_sequence([7], 5, 50, {7}, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), num_items=st.integers(1, 40), n=st.integers(1, 12),
           as_array=st.booleans(), seed=st.integers(0, 2**32))
    def test_one_history_matches_the_per_draw_loop(self, caplog, data, num_items, n, as_array, seed):
        # the per-draw padding of earlier versions: the rounds of
        # reference_sample_unobserved, or, when fewer items are eligible than
        # there are slots to fill, draws with replacement and one warning
        items = st.integers(0, num_items - 1)
        observed = data.draw(st.one_of(st.sets(items), st.just(set(range(num_items)))))
        history = data.draw(st.lists(items, max_size=15))
        given_ids = np.array(sorted(observed) * 2, dtype=np.int64)[::-1] if as_array else observed
        need, available = max(0, n - len(history)), num_items - len(observed)
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        caplog.clear()
        if need and not available:
            with pytest.raises(DataError) as err:
                pad_sequence(history, n, num_items, given_ids, rng)
            # the one-history form has no user id to name: it pads as a made-up user 0
            assert str(err.value) == "a user has interacted with the whole catalog; nothing to sample"
            return
        with caplog.at_level("WARNING"):
            out = pad_sequence(history, n, num_items, given_ids, rng)
        if available < need:
            eligible = np.array(sorted(set(range(num_items)) - observed), dtype=np.int64)
            pads = want_rng.choice(eligible, size=need, replace=True)
        else:
            pads = reference_sample_unobserved(num_items, observed, need, want_rng)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.concatenate([pads, np.array(history[-n:], dtype=np.int64)]))
        assert rng.bit_generator.state == want_rng.bit_generator.state
        warnings = [r for r in caplog.records if "replacement" in r.getMessage()]
        assert len(warnings) == (available < need)


def draw_with(sampler, caplog, observed, users, need, num_items, width, seed):
    """One sampler call on a fresh generator: its rows (or its DataError's
    message), its replacement warnings and the generator's end state."""
    rng = np.random.default_rng(seed)
    caplog.clear()
    with caplog.at_level("WARNING"):
        try:
            out = sampler(observed, users, need, num_items, width, rng)
        except DataError as err:
            out = str(err)
    warnings = [r.getMessage() for r in caplog.records if "replacement" in r.getMessage()]
    return out, warnings, rng.bit_generator.state


class TestDrawUnobservedMatchesReference:
    """The one sort per row gives what the per-draw search with a stable
    argsort gave: the same rows bit for bit, the same rng use and the same
    warnings."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), num_users=st.integers(1, 4), num_items=st.integers(1, 200),
           width=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, caplog, data, num_users, num_items, width, seed):
        items = st.integers(0, num_items - 1)
        # any observed set, or all but a few items, whose rows take several
        # rounds or fall back to drawing with replacement
        few_left = st.sets(items, max_size=3).map(lambda left: set(range(num_items)) - left)
        observed_sets = [data.draw(st.one_of(st.sets(items, max_size=num_items), few_left))
                         for _ in range(num_users)]
        observed = np.array(sorted(u * num_items + i for u, seen in enumerate(observed_sets) for i in seen)
                            + [num_users * num_items], dtype=np.int64)
        users = np.array(data.draw(st.lists(st.integers(0, num_users - 1), max_size=12)), dtype=np.int64)
        need = np.array(data.draw(st.lists(st.integers(0, width), min_size=users.size, max_size=users.size)),
                        dtype=np.int64)
        got, want = (draw_with(sampler, caplog, observed, users, need, num_items, width, seed)
                     for sampler in (training._draw_unobserved, reference_draw_unobserved))
        if isinstance(want[0], str):
            assert got[0] == want[0]
        else:
            assert same_bits(got[0], want[0])
        assert got[1:] == want[1:]

    def test_rows_of_several_rounds(self, caplog):
        # 3 eligible items of 300 for every row: a round of 16 draws rarely
        # finds them all
        observed = np.array([u * 300 + i for u in range(2) for i in range(297)] + [600], dtype=np.int64)
        users, need = np.repeat([0, 1, 0], 20), np.tile([3, 2, 1, 0], 15)
        got, want = (draw_with(sampler, caplog, observed, users, need, 300, 3, 11)
                     for sampler in (training._draw_unobserved, reference_draw_unobserved))
        assert same_bits(got[0], want[0]) and got[1:] == want[1:]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), num_items=st.integers(1, 60), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_evaluation_pad(self, data, num_items, n, seed):
        items = st.integers(0, num_items - 1)
        observed = data.draw(st.sets(items, max_size=num_items - 1))
        history = data.draw(st.lists(items, max_size=n))

        def pad():
            return pad_sequence(history, n, num_items, observed, np.random.default_rng(seed))

        got = pad()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "_draw_unobserved", reference_draw_unobserved)
            want = pad()
        assert same_bits(got, want)


class TestSessionContexts:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), num_users=st.integers(1, 4), num_items=st.integers(1, 12),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_rows_end_with_the_history_before_the_anchor(self, caplog, data, num_users, num_items,
                                                         n, seed):
        items = st.integers(0, num_items - 1)
        sequences = [data.draw(st.lists(items, max_size=10)) for _ in range(num_users)]
        users = [u for u, seq in enumerate(sequences) for _ in seq]
        events = [i for seq in sequences for i in seq]
        flags = data.draw(st.lists(st.booleans(), min_size=len(events), max_size=len(events)))
        held_out = [data.draw(st.sets(items)) for _ in range(num_users)]
        store = InteractionStore([f"u{j}" for j in range(num_users)],
                                 [f"i{j}" for j in range(num_items)],
                                 *event_table(num_users, users, events, flags), held_out_pairs(held_out))
        # anchors drawn from the whole catalog: one the user never had was held out
        rows = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), items), max_size=20))
        row_users = np.array([u for u, _ in rows], dtype=np.int64)
        anchors = np.array([a for _, a in rows], dtype=np.int64)

        expected, need, eligible = [], [], []
        for u, anchor in rows:
            seq = sequences[u]
            end = seq.index(anchor) if anchor in seq else len(seq)
            expected.append(seq[max(0, end - n):end])
            need.append(n - len(expected[-1]))
            eligible.append(num_items - len(store.observed_any(u)))

        def contexts():
            return training._session_contexts(store, row_users, anchors, n, np.random.default_rng(seed))

        if any(k and not room for k, room in zip(need, eligible)):
            with pytest.raises(DataError, match="whole catalog"):
                contexts()
            return
        caplog.clear()
        with caplog.at_level("WARNING"):
            out = contexts()
        assert out.shape == (len(rows), n) and out.dtype == np.int64
        for (u, _), row, tail, k, room in zip(rows, out.tolist(), expected, need, eligible):
            assert row[k:] == tail
            pads = row[:k]
            assert all(0 <= i < num_items and i not in store.observed_any(u) for i in pads)
            if room >= k:
                assert len(set(pads)) == k
        warnings = [r for r in caplog.records if "replacement" in r.getMessage()]
        assert len(warnings) == (1 if any(room < k for k, room in zip(need, eligible)) else 0)
        np.testing.assert_array_equal(contexts(), out)


class TestAdam:
    def make_param(self, value):
        reg = ParameterRegistry()
        return reg, reg.add("w", np.asarray(value, dtype=np.float64))

    def test_zero_gradient_keeps_parameter(self):
        reg, w = self.make_param([1.0, -2.0])
        opt = Adam(reg, learning_rate=0.1)
        w.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        reg, w = self.make_param([0.5])
        opt = Adam(reg, learning_rate=0.001)
        w.grad = np.array([1.0])
        opt.step()
        delta = w.data[0] - 0.5
        g = 1.0
        assert abs(delta + 0.001 * g / (math.sqrt(g * g) + 1e-8)) < 1e-9

    def test_two_steps_match_hand_unrolled_trace(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = np.array([0.3, -1.2])
        theta = np.array([1.0, 2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        expected = theta.copy()
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            expected -= lr * m_hat / (np.sqrt(v_hat) + eps)

        reg, w = self.make_param(theta)
        opt = Adam(reg, learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        for _ in range(2):
            w.grad = g.copy()
            opt.step()
        np.testing.assert_allclose(w.data, expected, atol=1e-9)

    def test_gradients_cleared_after_step(self):
        reg, w = self.make_param([1.0])
        opt = Adam(reg)
        w.grad = np.array([1.0])
        opt.step()
        assert w.grad is None


class TestEpochLoop:
    @pytest.fixture
    def small_prepared(self, tmp_path):
        # 20 users x 30 items
        events, _ = planted_dataset(tmp_path, num_groups=5, users_per_group=4,
                                    items_per_group=6, explicit_per_user=2)
        store = ingest(str(events))
        return leave_one_out_split(store, num_negatives=20, seed=0)

    def test_examples_respect_positive_negative_structure(self, small_prepared):
        store, _ = small_prepared
        rows = build_epoch_examples(store, 3, np.random.default_rng(0))
        n_pos = store.num_implicit_pairs() + store.num_explicit_pairs()
        assert rows.shape == (n_pos * 4, 5)
        implicit, explicit, held_out = store_sets(store)
        for kind, u, anchor, cand, label in rows:
            observed = implicit[u] if kind == 0 else explicit[u]
            if label == 1:
                assert cand in observed and cand == anchor
            else:
                assert cand not in observed
                assert cand not in held_out[u]

    @pytest.mark.parametrize("m", [0, 3])
    def test_each_positive_carries_its_own_negatives(self, small_prepared, monkeypatch, m):
        store, _ = small_prepared
        matrices = []

        def counted(store, users, matrix, count, rng):
            matrices.append(matrix)
            return sample_negatives(store, users, matrix, count, rng)

        monkeypatch.setattr(training, "sample_negatives", counted)
        rows = build_epoch_examples(store, m, np.random.default_rng(0))
        assert matrices == ["implicit", "explicit"]  # one draw per matrix
        assert rows.dtype == np.int64
        groups = {}
        for kind, u, anchor, cand, label in rows.tolist():
            groups.setdefault((kind, u, anchor), []).append((cand, label))
        implicit, explicit, _ = store_sets(store)
        assert set(groups) == ({(0, u, i) for u in range(store.num_users) for i in implicit[u]}
                               | {(1, u, i) for u in range(store.num_users) for i in explicit[u]})
        for (_, _, anchor), members in groups.items():
            assert [cand for cand, label in members if label == 1] == [anchor]
            negatives = [cand for cand, label in members if label == 0]
            assert len(negatives) == len(set(negatives)) == m
        np.testing.assert_array_equal(rows, build_epoch_examples(store, m, np.random.default_rng(0)))

    def test_empty_training_set_rejected(self):
        store = store_from_sets(2, 4, [set(), set()], [set(), set()])
        with pytest.raises(ConfigError, match="empty training set"):
            build_epoch_examples(store, 1, np.random.default_rng(0))

    def test_loss_decreases_over_first_epochs(self, small_prepared):
        store, _ = small_prepared
        model = ITEModel(store.num_users, store.num_items,
                         ModelConfig(embedding_dim=8, attention_heads=2), seed=3)
        config = cfg(learning_rate=0.01, batch_size=256, negatives_per_positive=4,
                     l2_weight=1e-6)
        opt = Adam.from_config(model.params, config)
        losses = []
        for epoch in range(5):
            rng = np.random.default_rng([7, epoch])
            losses.append(train_epoch(model, store, config, rng, optimizer=opt).mean_loss)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_epoch_is_deterministic_bit_identical(self, small_prepared):
        store, _ = small_prepared
        results = []
        for _ in range(2):
            model = ITEModel(store.num_users, store.num_items,
                             ModelConfig(embedding_dim=4, attention_heads=2), seed=5)
            report = train_epoch(model, store, cfg(batch_size=128),
                                 np.random.default_rng([11, 0]))
            results.append((report, model.params.state_arrays()))
        assert results[0][0] == results[1][0]
        for name, arr in results[0][1].items():
            np.testing.assert_array_equal(arr, results[1][1][name])

    @pytest.mark.parametrize("variant", ["ite", "bert-ite-si"])
    def test_epoch_matches_the_copying_engine_bit_for_bit(self, tmp_path, variant):
        # owned gradient buffers, in-place backwards and the attention scale
        # on the queries (exact at d_h = 4) change no bit of a float32 epoch;
        # the last layer's one-row query takes the folded form on both sides
        events, cats = planted_dataset(tmp_path)
        store, _ = leave_one_out_split(ingest(str(events)), num_negatives=10, seed=0)
        side = build_side_info(store, read_category_pairs(str(cats))) if variant == "bert-ite-si" else None

        def epoch():
            model = build_model(variant, store.num_users, store.num_items,
                                ModelConfig(embedding_dim=8, attention_heads=2,
                                            side_dim=side.num_categories if side else 0), seed=9)
            report = train_epoch(model, store, cfg(batch_size=256, learning_rate=0.01),
                                 np.random.default_rng([21, 0]), side)
            return report.mean_loss, model.params.state_arrays()

        loss, params = epoch()
        with copying_engine():
            oracle_loss, oracle_params = epoch()
        assert loss == oracle_loss
        assert params.keys() == oracle_params.keys()
        assert all(same_bits(params[name], oracle_params[name]) for name in params)

    @pytest.mark.parametrize("variant", ["ite", "bert-ite"])
    def test_one_forward_and_one_context_draw_per_batch(self, small_prepared, monkeypatch, variant):
        store, _ = small_prepared
        model = build_model(variant, store.num_users, store.num_items,
                            ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1), seed=4)
        forwards, draws = [], []
        forward, cut = model.forward_batch, training._session_contexts

        def forward_batch(users, candidates, *args, **kwargs):
            forwards.append(len(candidates))
            return forward(users, candidates, *args, **kwargs)

        def session_contexts(store, users, *args):
            draws.append(len(users))
            return cut(store, users, *args)

        monkeypatch.setattr(model, "forward_batch", forward_batch)
        monkeypatch.setattr(training, "_session_contexts", session_contexts)
        config = cfg(batch_size=100)
        report = train_epoch(model, store, config, np.random.default_rng(2))
        rows = (store.num_implicit_pairs() + store.num_explicit_pairs()) * (1 + config.negatives_per_positive)
        sizes = [min(100, rows - start) for start in range(0, rows, 100)]
        assert report.steps == len(sizes) and forwards == sizes
        assert draws == (sizes if variant == "bert-ite" else [])

    def test_one_forward_matches_one_forward_per_kind(self, small_prepared):
        # the loss and gradients of one step against a reference that scores
        # each example kind in its own forward and feeds joint_loss its head
        store, _ = small_prepared
        model = ITEModel(store.num_users, store.num_items,
                         ModelConfig(embedding_dim=4, attention_heads=2), seed=12)
        to_float64(model.params)
        config = cfg(batch_size=10**6, l2_weight=1e-3)

        class GradientSpy:
            def step(self):
                self.grads = {p.name: p.grad.copy() for p in model.params}
                model.params.zero_grads()

        spy = GradientSpy()
        report = train_epoch(model, store, config, np.random.default_rng(5), optimizer=spy)
        assert report.steps == 1

        examples = build_epoch_examples(store, config.negatives_per_positive, np.random.default_rng(5))
        heads, labels, embedding_rows = [], [], []
        for kind in (0, 1):
            rows = examples[examples[:, 0] == kind]
            res = model.forward_batch(rows[:, 1], rows[:, 3])
            heads.append(res.x_hat if kind == 0 else res.y_hat)
            labels.append(rows[:, 4].astype(np.float64))
            embedding_rows.extend(res.embedding_rows)
        loss = joint_loss(heads[0], labels[0], heads[1], labels[1], embedding_rows, config)
        loss.backward()
        assert report.mean_loss == pytest.approx(loss.item(), rel=1e-12)
        for p in model.params:
            ref = p.grad
            assert np.linalg.norm(spy.grads[p.name] - ref) <= 1e-12 * np.linalg.norm(ref), p.name

    def test_batches_without_explicit_rows_train(self):
        # no explicit positives: every batch gathers zero explicit rows
        store = store_from_sets(4, 8, [{0, 1}, {2, 3}, {4, 5}, {6, 7}], [set()] * 4)
        model = ITEModel(4, 8, ModelConfig(embedding_dim=4, attention_heads=2), seed=1)
        before = {k: v.copy() for k, v in model.params.state_arrays().items()}
        report = train_epoch(model, store, cfg(batch_size=5), np.random.default_rng(0))
        assert report.steps == 5 and np.isfinite(report.mean_loss) and report.mean_loss > 0
        for name, arr in model.params.state_arrays().items():
            explicit_only = name.startswith(("explicit_mlp", "explicit_head"))
            assert np.array_equal(arr, before[name]) == explicit_only, name

    def test_fit_zero_epochs_keeps_initialization(self, small_prepared):
        store, cases = small_prepared
        model = ITEModel(store.num_users, store.num_items,
                         ModelConfig(embedding_dim=4, attention_heads=2), seed=6)
        init = {k: v.copy() for k, v in model.params.state_arrays().items()}
        result = fit(model, store, cfg(epochs=0), cases=cases)
        assert result.history == []
        for name, arr in model.params.state_arrays().items():
            np.testing.assert_array_equal(arr, init[name])
            np.testing.assert_array_equal(result.best_params[name], init[name])

    def test_fit_tracks_best_epoch(self, small_prepared):
        store, cases = small_prepared
        model = ITEModel(store.num_users, store.num_items,
                         ModelConfig(embedding_dim=8, attention_heads=2), seed=7)
        result = fit(model, store, cfg(epochs=3, learning_rate=0.01, batch_size=256),
                     cases=cases, eval_topk=10)
        assert len(result.history) == 3
        best = max(result.history, key=lambda r: (r["hr"], r["ndcg"]))
        assert result.best_epoch == best["epoch"]
        assert result.best_hr == best["hr"]

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(user=st.integers(0, 19), batch_size=st.sampled_from([16, 64, 1000]))
    def test_non_finite_loss_stops_at_first_bad_step(self, small_prepared, user, batch_size):
        # bce_sum's clamp keeps overflowing logits finite but passes NaN through
        store, _ = small_prepared
        model = ITEModel(store.num_users, store.num_items,
                         ModelConfig(embedding_dim=4, attention_heads=2), seed=9)
        model.gmf_user.rows.data[user] = np.nan
        config = cfg(batch_size=batch_size)
        rows = build_epoch_examples(store, config.negatives_per_positive, np.random.default_rng(3))
        step = int(np.flatnonzero(rows[:, 1] == user)[0]) // batch_size + 1
        before = {k: v.copy() for k, v in model.params.state_arrays().items()}
        with pytest.raises(NonFiniteLossError, match=f"non-finite training loss nan at step {step}$"):
            train_epoch(model, store, config, np.random.default_rng(3))
        if step == 1:  # the failing step updates nothing
            for name, arr in model.params.state_arrays().items():
                np.testing.assert_array_equal(arr, before[name])

    @pytest.mark.parametrize("variant", ["ite-si", "ite-ossi", "bert-ite-si", "bert-ite-ossi"])
    def test_side_variant_without_side_info_is_a_config_error(self, small_prepared, variant):
        store, cases = small_prepared
        config = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1, side_dim=5)
        model = build_model(variant, store.num_users, store.num_items, config, seed=8)
        with pytest.raises(ConfigError, match="needs side info"):
            train_epoch(model, store, cfg(), np.random.default_rng(0))
        with pytest.raises(ConfigError, match="needs side info"):
            evaluate(model, cases, store=store)
