"""Ingestion, side info, and leave-one-out split against hand-counted
fixtures."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from feedrank.container import FormatError, read_container, write_container
from feedrank.data import (DEFAULT_CLASSIFICATION, EXPLICIT, ColumnSpec, DataError, DatasetStats,
                           InteractionStore, PreparedDataset, build_side_info,
                           ingest, leave_one_out_split, load_prepared,
                           read_category_pairs, read_retailrocket_properties, sample_unobserved,
                           save_prepared)

from conftest import (encode_side_user, event_table, reference_sample_unobserved, reference_sets,
                      side_from_lists, store_sets, write_categories_csv, write_events_csv)


# small logs with many tied timestamps: (time, user, event type, item)
small_logs = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4),
                                st.sampled_from(sorted(DEFAULT_CLASSIFICATION)), st.integers(0, 7)),
                      min_size=1, max_size=40)


def write_log(tmp_path, rows):
    rows = [(t, f"u{u}", event, f"i{i}") for t, u, event, i in rows]
    return rows, str(write_events_csv(tmp_path / "log.csv", rows))


def implicit_events(store, user):
    lo, hi = store.offsets[user], store.offsets[user + 1]
    return store.items[lo:hi][~store.explicit[lo:hi]]


class TestIngest:
    def test_threshold_boundary_drops_short_users(self, tiny_store):
        # u3 has only 4 events and is removed; u0-u2 stay
        assert tiny_store.num_users == 3
        assert set(tiny_store.user_ids) == {"u0", "u1", "u2"}

    def test_duplicate_events_collapse_to_one_membership(self, tiny_store):
        u2 = tiny_store.user_ids.index("u2")
        e = tiny_store.item_ids.index("e")
        assert (tiny_store.pair_keys("implicit") == tiny_store.pair_key(u2, e)).sum() == 1
        # but the event list keeps all three timestamped views
        assert (implicit_events(tiny_store, u2) == e).sum() == 3

    def test_explicit_implies_implicit_augmentation(self, tiny_store):
        u0 = tiny_store.user_ids.index("u0")
        implicit, explicit, _ = store_sets(tiny_store)
        assert explicit[u0] <= implicit[u0]
        assert set(tiny_store.pair_keys("explicit")) <= set(tiny_store.pair_keys("implicit"))

    def test_reindexing_is_a_bijection(self, tiny_store):
        for ids in (tiny_store.user_ids, tiny_store.item_ids):
            for idx, ext in enumerate(ids):
                assert ids.index(ext) == idx
        assert len(set(tiny_store.user_ids)) == tiny_store.num_users
        assert len(set(tiny_store.item_ids)) == tiny_store.num_items

    def test_hand_counted_stats(self, tiny_store):
        stats = tiny_store.stats()
        # X+: u0 {a,b,c,d}, u1 {a,b,c,d,e}, u2 {e,f}; Y+: u0 {b,d}, u2 {f}
        assert stats.users == 3
        assert stats.items == 6
        assert stats.implicit == 11
        assert stats.explicit == 3
        # explicit pairs are implicit ones too, so only the 11 implicit pairs fill cells
        assert abs(stats.sparsity - (1 - 11 / 18)) < 1e-12

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=small_logs)
    def test_sparsity_is_the_empty_share_of_cells(self, tmp_path, rows):
        _, path = write_log(tmp_path, rows)
        store = ingest(path, min_interactions=1)
        for view in (store, leave_one_out_split(store, num_negatives=0)[0]):
            stats = view.stats()
            assert 0.0 <= stats.sparsity <= 1.0
            assert stats.sparsity == 1.0 - stats.implicit / (stats.users * stats.items)

    def test_unknown_event_type_is_fatal(self, tmp_path):
        path = write_events_csv(tmp_path / "bad.csv", [
            (1, "u", "view", "a"), (2, "u", "teleport", "b"),
        ])
        with pytest.raises(DataError, match="teleport"):
            ingest(str(path), min_interactions=1)

    def test_empty_file_is_fatal(self, tmp_path):
        path = write_events_csv(tmp_path / "empty.csv", [])
        with pytest.raises(DataError, match="no event rows"):
            ingest(str(path), min_interactions=1)

    def test_missing_column_is_fatal(self, tmp_path):
        path = write_events_csv(tmp_path / "cols.csv", [(1, "u", "view", "a")],
                                header=("timestamp", "user", "event", "itemid"))
        with pytest.raises(DataError, match="visitorid"):
            ingest(str(path), min_interactions=1)

    @pytest.mark.parametrize("bad_row", ["", "2,u"])
    def test_blank_or_short_row_is_fatal(self, tmp_path, bad_row):
        path = tmp_path / "short.csv"
        path.write_text(f"timestamp,visitorid,event,itemid\n1,u,view,a\n{bad_row}\n3,u,view,b\n")
        with pytest.raises(DataError, match="data row 1 has"):
            ingest(str(path), min_interactions=1)

    @pytest.mark.parametrize("stamp", [2**63, -2**63 - 1, 10**30])
    def test_timestamp_beyond_64_bits_is_fatal(self, tmp_path, stamp):
        path = write_events_csv(tmp_path / "big.csv", [(1, "u", "view", "a"), (stamp, "u", "view", "b")])
        with pytest.raises(DataError, match=f"timestamp {stamp} at data row 1 does not fit"):
            ingest(str(path), min_interactions=1)

    def test_configurable_columns_and_classification(self, tmp_path):
        path = write_events_csv(tmp_path / "alt.csv",
                                [(1, "u", "look", "a"), (2, "u", "buy", "a")],
                                header=("ts", "uid", "etype", "iid"))
        store = ingest(str(path), classification={"look": "implicit", "buy": "explicit"},
                       min_interactions=1,
                       columns=ColumnSpec(timestamp="ts", user="uid", event="etype", item="iid"))
        assert store.num_users == 1
        assert store.num_explicit_pairs() == 1

    def test_merged_sequence_is_time_ordered(self, tiny_store):
        u0 = tiny_store.user_ids.index("u0")
        lo, hi = tiny_store.offsets[u0], tiny_store.offsets[u0 + 1]
        seq = [tiny_store.item_ids[j] for j in tiny_store.items[lo:hi]]
        assert seq == ["a", "b", "c", "d", "b", "d"]


class TestEventTable:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=small_logs, min_interactions=st.integers(1, 4))
    def test_rows_are_each_users_events_by_time_then_file_order(self, tmp_path, rows, min_interactions):
        rows, path = write_log(tmp_path, rows)
        counts = Counter(user for _, user, _, _ in rows)
        users = [u for u in dict.fromkeys(user for _, user, _, _ in rows) if counts[u] >= min_interactions]
        if not users:
            with pytest.raises(DataError, match="no user has"):
                ingest(path, min_interactions=min_interactions)
            return
        store = ingest(path, min_interactions=min_interactions)
        assert store.user_ids == users
        # items are numbered as they first appear when the log is read user by user
        assert store.item_ids == list(dict.fromkeys(item for u in users for _, user, _, item in rows
                                                    if user == u))
        assert store.offsets[0] == 0 and store.offsets[-1] == store.items.size
        implicit, explicit, _ = store_sets(store)
        for u, name in enumerate(users):
            events = sorted((t, seq, item, DEFAULT_CLASSIFICATION[event] == EXPLICIT)
                            for seq, (t, user, event, item) in enumerate(rows) if user == name)
            lo, hi = store.offsets[u], store.offsets[u + 1]
            assert [store.item_ids[j] for j in store.items[lo:hi]] == [e[2] for e in events]
            assert store.explicit[lo:hi].tolist() == [e[3] for e in events]
            assert implicit[u] == {store.item_ids.index(e[2]) for e in events}
            assert explicit[u] == {store.item_ids.index(e[2]) for e in events if e[3]}

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=small_logs)
    def test_split_holds_out_each_users_last_explicit_event(self, tmp_path, rows):
        rows, path = write_log(tmp_path, rows)
        store = ingest(path, min_interactions=1)
        train, cases = leave_one_out_split(store, num_negatives=0)
        by_user = {case.user: case for case in cases}
        _, _, held_out = store_sets(train)
        for u, name in enumerate(store.user_ids):
            events = sorted((t, seq, item, DEFAULT_CLASSIFICATION[event] == EXPLICIT)
                            for seq, (t, user, event, item) in enumerate(rows) if user == name)
            explicit = [e for e in events if e[3]]
            if not explicit:
                assert u not in by_user and held_out[u] == set()
                continue
            held = explicit[-1]
            case = by_user[u]
            assert store.item_ids[case.item] == held[2]
            assert [store.item_ids[j] for j in case.history] == [
                e[2] for e in events if e[:2] < held[:2] and e[2] != held[2]]
            lo, hi = train.offsets[u], train.offsets[u + 1]
            assert [store.item_ids[j] for j in train.items[lo:hi]] == [
                e[2] for e in events if e[2] != held[2]]
            assert held_out[u] == {case.item}

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=small_logs, negatives=st.integers(0, 6), seed=st.integers(0, 3),
           categories=st.one_of(st.none(), st.dictionaries(st.integers(0, 7),
                                                            st.sets(st.integers(0, 3), max_size=3))))
    def test_prepare_save_load_save_is_byte_identical(self, tmp_path, rows, negatives, seed, categories):
        _, path = write_log(tmp_path, rows)
        store = ingest(path, min_interactions=1)
        train, cases = leave_one_out_split(store, num_negatives=negatives, seed=seed)
        side = None
        if categories is not None:
            side = build_side_info(train, mapping={f"i{i}": {f"c{c}" for c in cats}
                                                   for i, cats in categories.items()})
        prepared = PreparedDataset(train, cases, side, meta={"seed": seed})
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_prepared(str(first), prepared)
        save_prepared(str(second), load_prepared(str(first)))
        assert first.read_bytes() == second.read_bytes()


class TestSideInfo:
    def test_item_multi_hot(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv", [
            ("a", "c2"), ("a", "c5"), ("b", "c0"), ("c", "c0"), ("d", "c1"),
            ("e", "c1"), ("f", "c5"),
        ])
        side = build_side_info(tiny_store, read_category_pairs(str(cats)))
        assert side.num_categories == 4  # c0, c1, c2, c5
        bag = side.item_matrix([tiny_store.item_ids.index("a")])
        np.testing.assert_array_equal(bag, [[2, 3]])  # c2, c5

    @staticmethod
    def loop_bag(rows, ids, weights=None):
        """The per-row loop over per-row category lists ``ids`` (and
        ``weights``) that item_matrix and user_matrix vectorise: each
        asked row's entries padded with -1 (and 0) to the longest."""
        rows = np.asarray(rows)
        picked = [int(r) for r in rows.reshape(-1)]
        width = max((len(ids[r]) for r in picked), default=0)
        out_ids = np.full((len(picked), width), -1, dtype=np.int64)
        out_weights = np.zeros((len(picked), width), dtype=np.float64)
        for pos, r in enumerate(picked):
            for slot, c in enumerate(ids[r]):
                out_ids[pos, slot] = c
                if weights is not None:
                    out_weights[pos, slot] = weights[r][slot]
        shape = rows.shape + (width,)
        return out_ids.reshape(shape), out_weights.reshape(shape)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_categories=st.integers(1, 12), num_items=st.integers(1, 15),
           shape=st.sampled_from([(0,), (1,), (7,), (3, 4), (2, 0), (2, 3, 2)]))
    def test_item_matrix_equals_loop(self, data, num_categories, num_items, shape):
        cats = [sorted(data.draw(st.sets(st.integers(0, num_categories - 1), max_size=num_categories)))
                for _ in range(num_items)]
        side = side_from_lists(num_categories, cats)
        items = np.array(data.draw(st.lists(st.integers(-num_items, num_items - 1),
                                            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                         dtype=np.int64).reshape(shape)
        got = side.item_matrix(items)
        expected, _ = self.loop_bag(items, cats)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    def test_item_matrix_out_of_range_item(self):
        side = side_from_lists(2, [[0], [1]])
        with pytest.raises(IndexError):
            side.item_matrix([0, 2])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_categories=st.integers(1, 12), num_users=st.integers(1, 8),
           shape=st.sampled_from([(0,), (1,), (7,), (3, 4), (2, 0), (2, 3, 2)]))
    def test_user_matrix_equals_loop(self, data, num_categories, num_users, shape):
        vectors = []
        for _ in range(num_users):
            idx = sorted(data.draw(st.sets(st.integers(0, num_categories - 1), max_size=num_categories)))
            val = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(idx), max_size=len(idx)))
            vectors.append((np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64)))
        side = side_from_lists(num_categories, [], vectors)
        users = np.array(data.draw(st.lists(st.integers(-num_users, num_users - 1),
                                            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                         dtype=np.int64).reshape(shape)
        got_ids, got_weights = side.user_matrix(users)
        ids, weights = self.loop_bag(users, [idx for idx, _ in vectors],
                                     [val for _, val in vectors])
        assert got_ids.dtype == ids.dtype and got_ids.shape == ids.shape
        assert got_weights.dtype == weights.dtype and got_weights.shape == weights.shape
        np.testing.assert_array_equal(got_ids, ids)
        assert got_weights.tobytes() == weights.tobytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), num_users=st.integers(1, 6), num_items=st.integers(1, 12),
           num_labels=st.integers(0, 5), split=st.booleans())
    def test_user_csr_equals_encode_side_user(self, caplog, data, num_users, num_items,
                                              num_labels, split):
        """Each user's CSR row is encode_side_user over the user's sorted
        implicit items, bit for bit, and the warning counts the users
        whose row is empty."""
        events = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1),
                                              st.booleans()), min_size=num_users, max_size=60))
        users = [u for u, _, _ in events] + list(range(num_users))  # every user has an event
        items = [i for _, i, _ in events] + [0] * num_users
        explicit = [e for _, _, e in events] + [True] * num_users
        store = InteractionStore([f"u{u}" for u in range(num_users)], [f"i{i}" for i in range(num_items)],
                                 *event_table(num_users, users, items, explicit))
        if split:
            store, _ = leave_one_out_split(store, num_negatives=0)
        mapping = data.draw(st.dictionaries(st.integers(0, num_items - 1),
                                            st.sets(st.integers(0, num_labels - 1), max_size=3)
                                            if num_labels else st.just(set())))
        caplog.clear()
        with caplog.at_level("WARNING"):
            side = build_side_info(store, mapping={f"i{i}": {f"c{c}" for c in cats}
                                                   for i, cats in mapping.items()})
        cats = [side.item_categories[side.item_offsets[i]:side.item_offsets[i + 1]].tolist()
                for i in range(num_items)]
        implicit, _, _ = store_sets(store)
        rows = [encode_side_user(sorted(implicit[u]), cats, side.num_categories)
                for u in range(num_users)]
        idx = [np.flatnonzero(row) for row in rows]
        np.testing.assert_array_equal(side.user_offsets, np.cumsum([0] + [i.size for i in idx]))
        assert side.user_offsets.dtype == side.user_categories.dtype == np.int64
        assert side.user_weights.dtype == np.float64
        np.testing.assert_array_equal(side.user_categories, np.concatenate([np.zeros(0, np.int64), *idx]))
        expected = np.concatenate([np.zeros(0), *(row[i] for row, i in zip(rows, idx))])
        assert side.user_weights.tobytes() == expected.tobytes()
        empty = sum(i.size == 0 for i in idx)
        warnings = [r.getMessage() for r in caplog.records if "no categorized" in r.getMessage()]
        assert warnings == ([f"{empty} users have no categorized interactions; their side vectors "
                             "are zero"] if empty else [])

    def test_user_frequency_vector_three_one(self, tmp_path):
        rows = [(t, "u", "view", item) for t, item in
                enumerate(["a", "b", "c", "d", "e"])]
        store = ingest(str(write_events_csv(tmp_path / "e.csv", rows)))
        cats = write_categories_csv(tmp_path / "c.csv", [
            ("a", "A"), ("b", "A"), ("c", "A"), ("d", "B"),
        ])
        side = build_side_info(store, read_category_pairs(str(cats)))
        ids, weights = side.user_matrix([0])
        np.testing.assert_array_equal(ids, [[0, 1]])
        np.testing.assert_allclose(weights, [[0.75, 0.25]])

    def test_uncategorized_user_zero_vector(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv", [("a", "A")])
        side = build_side_info(tiny_store, read_category_pairs(str(cats)))
        u2 = tiny_store.user_ids.index("u2")  # interacted only with e, f
        ids, weights = side.user_matrix([u2])
        assert ids.shape == weights.shape == (1, 0)  # an empty bag: no side term

    def test_malformed_rows_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "c.csv"
        path.write_text("itemid,categoryid\na,A\nbroken\n,B\nb,\nc,C\n")
        with caplog.at_level("WARNING"):
            mapping = read_category_pairs(str(path))
        assert mapping == {"a": {"A"}, "c": {"C"}}
        assert [r.getMessage() for r in caplog.records] == [f"{path}: skipped 3 malformed category rows"]

    def test_retailrocket_properties_latest_value_wins(self, tmp_path):
        path = tmp_path / "props.csv"
        path.write_text(
            "timestamp,itemid,property,value\n"
            "100,i1,categoryid,7\n"
            "300,i1,categoryid,9\n"
            "200,i1,categoryid,8\n"
            "100,i1,available,1\n"
            "100,i2,categoryid,7\n")
        mapping = read_retailrocket_properties([str(path)])
        assert mapping == {"i1": {"9"}, "i2": {"7"}}


class TestLeaveOneOutSplit:
    def test_latest_explicit_item_held_out(self, tiny_store):
        train, cases = leave_one_out_split(tiny_store, num_negatives=2, seed=0)
        by_user = {c.user: c for c in cases}
        u0 = tiny_store.user_ids.index("u0")
        d = tiny_store.item_ids.index("d")
        b = tiny_store.item_ids.index("b")
        assert by_user[u0].item == d               # explicit at t=90 beats t=50
        assert b in store_sets(train)[1][u0]       # earlier explicit item stays

    def test_users_without_explicit_events_have_no_case(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store)
        u1 = tiny_store.user_ids.index("u1")
        assert u1 not in {c.user for c in cases}

    def test_ground_truth_leaves_training_view_entirely(self, tiny_store):
        train, cases = leave_one_out_split(tiny_store)
        implicit, explicit, held_out = store_sets(train)
        for case in cases:
            assert case.item not in implicit[case.user]
            assert case.item not in explicit[case.user]
            assert case.item in held_out[case.user]
            lo, hi = train.offsets[case.user], train.offsets[case.user + 1]
            assert case.item not in train.items[lo:hi].tolist()

    def test_negatives_unobserved_and_distinct(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store, num_negatives=2, seed=1)
        implicit, _, _ = store_sets(tiny_store)
        for case in cases:
            negs = case.negatives.tolist()
            assert len(negs) == len(set(negs))
            observed = implicit[case.user] | {case.item}
            assert not set(negs) & observed

    def test_history_precedes_ground_truth_and_excludes_it(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store)
        u0 = tiny_store.user_ids.index("u0")
        case = next(c for c in cases if c.user == u0)
        names = [tiny_store.item_ids[j] for j in case.history]
        assert names == ["a", "b", "c", "b"]  # events before t=90, item d removed

    def test_split_reproducible_under_seed(self, tiny_store):
        _, a = leave_one_out_split(tiny_store, num_negatives=3, seed=9)
        _, b = leave_one_out_split(tiny_store, num_negatives=3, seed=9)
        for ca, cb in zip(a, b):
            assert ca.user == cb.user and ca.item == cb.item
            np.testing.assert_array_equal(ca.negatives, cb.negatives)

    def test_timestamp_tie_breaks_by_file_order(self, tmp_path):
        rows = [(5, "u", "view", "a"), (5, "u", "view", "b"),
                (9, "u", "addtocart", "x"), (9, "u", "addtocart", "y"), (1, "u", "view", "c")]
        store = ingest(str(write_events_csv(tmp_path / "tie.csv", rows)))
        _, cases = leave_one_out_split(store, num_negatives=1)
        assert store.item_ids[cases[0].item] == "y"  # later file row wins the tie

    def test_short_catalog_uses_all_available_negatives(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store, num_negatives=999, seed=0)
        implicit, _, _ = store_sets(tiny_store)
        for case in cases:
            unobserved = tiny_store.num_items - len(implicit[case.user] | {case.item})
            assert case.negatives.size == unobserved


class TestSampleUnobserved:
    @staticmethod
    def run(sampler, caplog, seed, num_items, excluded, count):
        """(result, rng state after, warnings)."""
        rng = np.random.default_rng(seed)
        caplog.clear()
        with caplog.at_level("WARNING"):
            out = sampler(num_items, excluded, count, rng)
        return out, rng.bit_generator.state, [r.getMessage() for r in caplog.records]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), num_items=st.integers(1, 300), count=st.integers(0, 320),
           as_array=st.booleans(), seed=st.integers(0, 2**32))
    @example(data=None, num_items=9, count=0, as_array=False, seed=1)   # no draw
    @example(data=None, num_items=9, count=20, as_array=True, seed=2)   # permutation
    @example(data=None, num_items=5, count=1, as_array=True, seed=4)    # full catalog
    def test_matches_the_per_draw_loop(self, caplog, data, num_items, count, as_array, seed):
        if data is None:  # the explicit examples: a few ids out, or (5 items) all of them
            excluded = set(range(num_items)) if num_items == 5 else {0, 4, 7}
        else:
            excluded = data.draw(st.one_of(st.sets(st.integers(0, num_items - 1)),
                                           st.just(set(range(num_items)))))
        # the array form may repeat ids and come in any order
        given_ids = np.array(sorted(excluded) * 2, dtype=np.int64)[::-1] if as_array else excluded
        got, got_state, got_logs = self.run(sample_unobserved, caplog, seed, num_items, given_ids, count)
        want, want_state, want_logs = self.run(reference_sample_unobserved, caplog, seed, num_items,
                                               excluded, count)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert got_state == want_state
        assert got_logs == want_logs == []


class TestStoreAgainstReference:
    """The store's arrays against per-user sets built by a plain loop, on
    random events, put in each user's rows by ``event_table``, and held-out
    pairs given unsorted, repeated, and for only some users."""

    @staticmethod
    def draw_store(data):
        num_users, num_items = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
        events = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1),
                                              st.booleans(), st.integers(0, 3)), max_size=30))
        held = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1)),
                                  max_size=12))
        users, items, explicit, times = ([e[k] for e in events] for k in range(4))
        held_out = ([u for u, _ in held], [i for _, i in held])
        store = InteractionStore([f"u{u}" for u in range(num_users)], [f"i{i}" for i in range(num_items)],
                                 *event_table(num_users, users, items, explicit, times), held_out)
        return store, reference_sets(num_users, users, items, explicit, held_out)

    @staticmethod
    def check(store, sets):
        implicit, explicit, held_out = sets
        n = store.num_items
        for matrix, per_user in (("implicit", implicit), ("explicit", explicit)):
            want = sorted(u * n + i for u, row in enumerate(per_user) for i in row)
            got = store.pair_keys(matrix)
            assert got.dtype == np.int64 and got.tolist() == want
            # the matrix's pairs and every held-out pair, then the sentinel
            observed = sorted(u * n + i for u, row in enumerate(per_user) for i in row | held_out[u])
            got = store.observed_keys(matrix)
            assert got.dtype == np.int64 and got.tolist() == observed + [store.num_users * n]
        assert store.num_implicit_pairs() == sum(map(len, implicit))
        assert store.num_explicit_pairs() == sum(map(len, explicit))
        filled = sum(map(len, implicit))
        assert store.stats(labels=2) == DatasetStats(store.num_users, n, filled,
                                                     sum(map(len, explicit)), 2,
                                                     1.0 - filled / (store.num_users * n))
        # a session context ends before the pair's first event, or at the end of the user's rows
        events = list(zip(np.repeat(np.arange(store.num_users), np.diff(store.offsets)).tolist(),
                          store.items.tolist()))
        users, items = np.divmod(np.arange(store.num_users * n), n)
        assert store.context_ends(users, items).tolist() == [
            events.index((u, i)) if (u, i) in events else store.offsets[u + 1]
            for u, i in zip(users.tolist(), items.tolist())]
        assert store.excluded_flat.dtype == store.excluded_offsets.dtype == np.int64
        for u in range(store.num_users):
            lo, hi = store.excluded_offsets[u], store.excluded_offsets[u + 1]
            assert store.excluded_flat[lo:hi].tolist() == sorted(held_out[u])
            assert store.observed_any(u) == implicit[u] | held_out[u]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matrices_stats_and_held_out_rows(self, data):
        self.check(*self.draw_store(data))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_without_pairs_moves_pairs_from_table_to_held_out(self, data):
        store, (implicit, explicit, held_out) = self.draw_store(data)
        removed = data.draw(st.lists(st.tuples(st.integers(0, store.num_users - 1),
                                               st.integers(0, store.num_items - 1)), max_size=6))
        train = store.without_pairs(np.array([u for u, _ in removed], dtype=np.int64),
                                    np.array([i for _, i in removed], dtype=np.int64))
        for u, i in removed:
            implicit[u].discard(i)
            explicit[u].discard(i)
            held_out[u].add(i)
        self.check(train, (implicit, explicit, held_out))
        event_users = np.repeat(np.arange(store.num_users), np.diff(store.offsets))
        kept = [(u, i) not in removed for u, i in zip(event_users.tolist(), store.items.tolist())]
        np.testing.assert_array_equal(train.items, store.items[kept])
        np.testing.assert_array_equal(train.explicit, store.explicit[kept])
        np.testing.assert_array_equal(np.diff(train.offsets),
                                      np.bincount(event_users[kept], minlength=store.num_users))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_save_load_round_trip(self, tmp_path, data):
        # the file holds no held-out pairs apart from the cases, so it stores
        # a split of a store that held nothing out, as ``ingest`` gives one
        store, _ = self.draw_store(data)
        store = InteractionStore(store.user_ids, store.item_ids, store.offsets, store.items, store.explicit)
        train, cases = leave_one_out_split(store, num_negatives=2, seed=data.draw(st.integers(0, 3)))
        path = str(tmp_path / "store.bin")
        save_prepared(path, PreparedDataset(train, cases, None))
        loaded = load_prepared(path).store
        self.check(loaded, store_sets(train))
        assert [loaded.excluded_flat[loaded.excluded_offsets[c.user]:loaded.excluded_offsets[c.user + 1]].tolist()
                for c in cases] == [[c.item] for c in cases]
        for col in ("items", "explicit", "offsets"):
            np.testing.assert_array_equal(getattr(loaded, col), getattr(train, col))

    def test_cached_keys_are_built_once_and_read_only(self, tiny_store):
        for matrix in ("implicit", "explicit"):
            assert tiny_store.observed_keys(matrix) is tiny_store.observed_keys(matrix)
            for keys in (tiny_store.pair_keys(matrix), tiny_store.observed_keys(matrix)):
                with pytest.raises(ValueError, match="read-only"):
                    keys[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            tiny_store._keys("implicit")[2][0] = 0

    @pytest.mark.parametrize("matrix", ["held_out", "Implicit", ""])
    def test_pair_keys_rejects_other_matrices(self, tiny_store, matrix):
        with pytest.raises(ValueError) as err:
            tiny_store.pair_keys(matrix)
        assert len(str(err.value).splitlines()) == 1 and repr(matrix) in str(err.value)


class TestPreparedRoundTrip:
    def test_save_load_preserves_everything(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv",
                                    [("a", "A"), ("b", "B"), ("e", "A"), ("f", "B")])
        train, cases = leave_one_out_split(tiny_store, num_negatives=2, seed=3)
        side = build_side_info(train, read_category_pairs(str(cats)))
        prepared = PreparedDataset(train, cases, side, meta={"seed": 3})
        path = tmp_path / "prep.bin"
        save_prepared(str(path), prepared)
        loaded = load_prepared(str(path))

        assert loaded.store.user_ids == train.user_ids
        assert loaded.store.item_ids == train.item_ids
        for col in ("items", "explicit", "offsets", "excluded_offsets", "excluded_flat"):
            got, want = getattr(loaded.store, col), getattr(train, col)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert store_sets(loaded.store) == store_sets(train)
        assert len(loaded.cases) == len(cases)
        for got, want in zip(loaded.cases, cases):
            assert (got.user, got.item) == (want.user, want.item)
            np.testing.assert_array_equal(got.negatives, want.negatives)
            np.testing.assert_array_equal(got.history, want.history)
        assert loaded.side_info.labels == side.labels
        assert loaded.side_info.num_categories == side.num_categories
        for col in ("item_offsets", "item_categories", "user_offsets", "user_categories", "user_weights"):
            got, want = getattr(loaded.side_info, col), getattr(side, col)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert loaded.meta == {"seed": 3}

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_split_round_trips(self, tmp_path, data):
        """The split as ``leave_one_out_split`` returns it, through the file.
        User 0 views another item after its last explicit event, so its
        history is only the first part of its training row."""
        num_users, num_items = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 8))
        events = data.draw(st.lists(st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1),
                                              st.booleans()), max_size=30))
        last = data.draw(st.integers(0, num_items - 1))
        after = data.draw(st.lists(st.integers(0, num_items - 1), max_size=3))
        events += [(0, last, True), *((0, i, False) for i in after), (0, (last + 1) % num_items, False)]
        users, items, explicit = ([e[k] for e in events] for k in range(3))
        store = InteractionStore([f"u{u}" for u in range(num_users)], [f"i{i}" for i in range(num_items)],
                                 *event_table(num_users, users, items, explicit))
        train, cases = leave_one_out_split(store, num_negatives=data.draw(st.integers(0, num_items)),
                                           seed=data.draw(st.integers(0, 3)))
        assert next(c for c in cases if c.user == 0).history.size < np.diff(train.offsets)[0]
        path = tmp_path / "split.bin"
        save_prepared(str(path), PreparedDataset(train, cases, None))
        loaded = load_prepared(str(path))
        for col in ("offsets", "items", "explicit", "excluded_offsets", "excluded_flat"):
            got, want = getattr(loaded.store, col), getattr(train, col)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        for matrix in ("implicit", "explicit"):
            np.testing.assert_array_equal(loaded.store.observed_keys(matrix), train.observed_keys(matrix))
        assert [(c.user, c.item) for c in loaded.cases] == [(c.user, c.item) for c in cases]
        for got, want in zip(loaded.cases, cases):
            for attr in ("negatives", "history"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype == np.int64
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))

    def test_side_vectors_computed_on_training_view_only(self, tmp_path):
        # the held-out item's category must not leak into the user vector
        rows = [(t, "u", "view", item) for t, item in enumerate(["a", "b", "c", "d"])]
        rows.append((10, "u", "addtocart", "d"))
        store = ingest(str(write_events_csv(tmp_path / "e.csv", rows)))
        cats = write_categories_csv(tmp_path / "c.csv",
                                    [("a", "A"), ("b", "A"), ("c", "A"), ("d", "B")])
        train, _ = leave_one_out_split(store)
        side = build_side_info(train, read_category_pairs(str(cats)))
        ids, weights = side.user_matrix([0])
        np.testing.assert_array_equal(ids, [[0]])
        np.testing.assert_allclose(weights, [[1.0]])


MISSING = object()


class TestMalformedDataset:
    @pytest.fixture
    def dataset(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv", [("a", "A"), ("b", "B"), ("e", "A")])
        train, cases = leave_one_out_split(tiny_store, num_negatives=2, seed=3)
        side = build_side_info(train, read_category_pairs(str(cats)))
        path = tmp_path / "prep.bin"
        save_prepared(str(path), PreparedDataset(train, cases, side))
        return path

    def rewrite(self, path, change):
        config, arrays = read_container(str(path), "dataset")
        change(arrays)
        write_container(str(path), "dataset", config, arrays)

    # a side record absent beside the other four is missing, not a file without side info
    @pytest.mark.parametrize("record", ["event_offsets", "event_items", "event_explicit", "case_items",
                                        "case_history_len", "side_item_offsets", "side_user_val"])
    def test_missing_record_is_named(self, dataset, record):
        self.rewrite(dataset, lambda arrays: arrays.pop(record))
        with pytest.raises(FormatError, match=f"missing record.*{record}"):
            load_prepared(str(dataset))

    @pytest.mark.parametrize("record", ["event_offsets", "case_neg_offsets",
                                        "side_item_offsets", "side_user_offsets"])
    @pytest.mark.parametrize("change, message", [
        (lambda off: off + 1, "starts at 1, not 0"),
        (lambda off: np.concatenate([off[:1], [off[-1] + 1], off[1:]])[:off.size], "decreases"),
        (lambda off: np.concatenate([off[:-1], [off[-1] + 1]]), "ends at"),
        (lambda off: off[:-1], "entries for"),
    ])
    def test_bad_offsets_rejected(self, dataset, record, change, message):
        def apply(arrays):
            arrays[record] = change(arrays[record]).astype(np.int64)
        self.rewrite(dataset, apply)
        with pytest.raises(FormatError, match=f"{record}.*{message}"):
            load_prepared(str(dataset))

    @pytest.mark.parametrize("record, value", [("event_items", 6), ("event_explicit", 2),
                                               ("event_explicit", -1), ("case_users", -1),
                                               ("side_item_flat", 2)])
    def test_ids_out_of_range_rejected(self, dataset, record, value):
        def apply(arrays):
            arrays[record][0] = value
        self.rewrite(dataset, apply)
        with pytest.raises(FormatError, match=f"{record}.*outside"):
            load_prepared(str(dataset))

    @pytest.mark.parametrize("change", ["negative", "too-long", "wrong-size"])
    def test_bad_history_length_rejected(self, dataset, change):
        config, arrays = read_container(str(dataset), "dataset")
        lengths = arrays["case_history_len"]
        events = np.diff(arrays["event_offsets"])[arrays["case_users"][0]]
        if change == "wrong-size":
            arrays["case_history_len"] = lengths[:-1]
            message = f"has {lengths.size - 1} entries for {lengths.size} case users"
        else:
            lengths[0] = -1 if change == "negative" else events + 1
            message = f"holds {lengths[0]} for case 0, whose user has {events} events"
        write_container(str(dataset), "dataset", config, arrays)
        with pytest.raises(FormatError) as raised:
            load_prepared(str(dataset))
        assert str(raised.value) == f"{dataset}: record 'case_history_len' {message}"

    def test_side_info_is_there_exactly_when_its_records_are(self, dataset):
        assert load_prepared(str(dataset)).side_info is not None
        self.rewrite(dataset, lambda arrays: [arrays.pop(name) for name in list(arrays) if name.startswith("side_")])
        assert load_prepared(str(dataset)).side_info is None

    def test_wrong_dtype_rejected(self, dataset):
        def apply(arrays):
            arrays["event_explicit"] = arrays["event_explicit"].astype(np.float64)
        self.rewrite(dataset, apply)
        with pytest.raises(FormatError, match="event_explicit.*not a 1-D int64"):
            load_prepared(str(dataset))

    @pytest.mark.parametrize("value, message", [
        ([], "'meta' must be an object"),
        ("seed=0", "'meta' must be an object"),
        (MISSING, "missing config key.*meta"),
    ])
    def test_bad_meta_rejected(self, dataset, value, message):
        config, arrays = read_container(str(dataset), "dataset")
        config["meta"] = value
        if value is MISSING:
            del config["meta"]
        write_container(str(dataset), "dataset", config, arrays)
        with pytest.raises(FormatError, match=message):
            load_prepared(str(dataset))
