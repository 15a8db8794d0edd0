"""Ingestion, side info, and leave-one-out split against hand-counted
fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedrank.data import (ColumnSpec, DataError, DatasetStats, PreparedDataset, SideInfo,
                           build_side_info, ingest, leave_one_out_split, load_prepared,
                           read_category_pairs, read_retailrocket_properties, save_prepared)

from conftest import write_categories_csv, write_events_csv


class TestIngest:
    def test_threshold_boundary_drops_short_users(self, tiny_store):
        # u3 has only 4 events and is removed; u0-u2 stay
        assert tiny_store.num_users == 3
        assert set(tiny_store.user_ids) == {"u0", "u1", "u2"}

    def test_duplicate_events_collapse_to_one_membership(self, tiny_store):
        u2 = tiny_store.user_index["u2"]
        e = tiny_store.item_index["e"]
        assert list(tiny_store.implicit_items[u2]).count(e) == 1
        # but the event list keeps all three timestamped views
        assert (tiny_store.implicit_events[u2][2] == e).sum() == 3

    def test_explicit_implies_implicit_augmentation(self, tiny_store):
        u0 = tiny_store.user_index["u0"]
        assert tiny_store.explicit_items[u0] <= tiny_store.implicit_items[u0]

    def test_reindexing_is_a_bijection(self, tiny_store):
        for ext, idx in tiny_store.user_index.items():
            assert tiny_store.user_ids[idx] == ext
        for ext, idx in tiny_store.item_index.items():
            assert tiny_store.item_ids[idx] == ext
        assert len(set(tiny_store.user_index.values())) == tiny_store.num_users
        assert len(set(tiny_store.item_index.values())) == tiny_store.num_items

    def test_hand_counted_stats(self, tiny_store):
        stats = tiny_store.stats()
        # X+: u0 {a,b,c,d}, u1 {a,b,c,d,e}, u2 {e,f}; Y+: u0 {b,d}, u2 {f}
        assert stats.users == 3
        assert stats.items == 6
        assert stats.implicit == 11
        assert stats.explicit == 3
        assert abs(stats.sparsity - (1 - 14 / 18)) < 1e-12

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
        u0 = tiny_store.user_index["u0"]
        seq = [tiny_store.item_ids[j] for j in tiny_store.merged_sequence(u0)]
        assert seq == ["a", "b", "c", "d", "b", "d"]


class TestSideInfo:
    def test_item_multi_hot(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv", [
            ("a", "c2"), ("a", "c5"), ("b", "c0"), ("c", "c0"), ("d", "c1"),
            ("e", "c1"), ("f", "c5"),
        ])
        side = build_side_info(tiny_store, str(cats))
        assert side.num_categories == 4  # c0, c1, c2, c5
        vec = side.item_matrix([tiny_store.item_index["a"]])[0]
        np.testing.assert_array_equal(vec, [0.0, 0.0, 1.0, 1.0])

    @staticmethod
    def loop_item_matrix(side, items, dtype=np.float32):
        """The per-(row, category) loop the vectorised item_matrix replaced."""
        items = np.asarray(items)
        out = np.zeros(items.shape + (side.num_categories,), dtype=dtype)
        view = out.reshape(-1, side.num_categories)
        for pos, item in enumerate(items.reshape(-1)):
            for c in side.item_categories[int(item)]:
                view[pos, c] = 1.0
        return out

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_categories=st.integers(1, 12), num_items=st.integers(1, 15),
           shape=st.sampled_from([(0,), (1,), (7,), (3, 4), (2, 0), (2, 3, 2)]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_item_matrix_equals_loop(self, data, num_categories, num_items, shape, dtype):
        cats = [sorted(data.draw(st.sets(st.integers(0, num_categories - 1), max_size=num_categories)))
                for _ in range(num_items)]
        side = SideInfo(num_categories, [str(c) for c in range(num_categories)], cats, [])
        items = np.array(data.draw(st.lists(st.integers(-num_items, num_items - 1),
                                            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                         dtype=np.int64).reshape(shape)
        got = side.item_matrix(items, dtype=dtype)
        expected = self.loop_item_matrix(side, items, dtype=dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    def test_item_matrix_out_of_range_item(self):
        side = SideInfo(2, ["A", "B"], [[0], [1]], [])
        with pytest.raises(IndexError):
            side.item_matrix([0, 2])

    def test_user_frequency_vector_three_one(self, tmp_path):
        rows = [(t, "u", "view", item) for t, item in
                enumerate(["a", "b", "c", "d", "e"])]
        store = ingest(str(write_events_csv(tmp_path / "e.csv", rows)))
        cats = write_categories_csv(tmp_path / "c.csv", [
            ("a", "A"), ("b", "A"), ("c", "A"), ("d", "B"),
        ])
        side = build_side_info(store, str(cats))
        np.testing.assert_allclose(side.user_matrix([0])[0], [0.75, 0.25])

    def test_uncategorized_user_zero_vector(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv", [("a", "A")])
        side = build_side_info(tiny_store, str(cats))
        u2 = tiny_store.user_index["u2"]  # interacted only with e, f
        np.testing.assert_array_equal(side.user_matrix([u2])[0], [0.0])

    def test_malformed_rows_skipped_and_counted(self, tmp_path, tiny_store, caplog):
        path = tmp_path / "c.csv"
        path.write_text("itemid,categoryid\na,A\nbroken\n,B\nb,\nc,C\n")
        with caplog.at_level("WARNING"):
            side = build_side_info(tiny_store, str(path))
        assert side.skipped_rows == 3
        assert side.num_categories == 2

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
        u0 = tiny_store.user_index["u0"]
        d = tiny_store.item_index["d"]
        b = tiny_store.item_index["b"]
        assert by_user[u0].item == d          # explicit at t=90 beats t=50
        assert b in train.explicit_items[u0]  # earlier explicit item stays

    def test_users_without_explicit_events_have_no_case(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store)
        u1 = tiny_store.user_index["u1"]
        assert u1 not in {c.user for c in cases}

    def test_ground_truth_leaves_training_view_entirely(self, tiny_store):
        train, cases = leave_one_out_split(tiny_store)
        for case in cases:
            assert case.item not in train.implicit_items[case.user]
            assert case.item not in train.explicit_items[case.user]
            assert case.item in train.excluded_items[case.user]
            times, seqs, items = train.implicit_events[case.user]
            assert case.item not in items.tolist()

    def test_negatives_unobserved_and_distinct(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store, num_negatives=2, seed=1)
        for case in cases:
            negs = case.negatives.tolist()
            assert len(negs) == len(set(negs))
            observed = tiny_store.implicit_items[case.user] | {case.item}
            assert not set(negs) & observed

    def test_history_precedes_ground_truth_and_excludes_it(self, tiny_store):
        _, cases = leave_one_out_split(tiny_store)
        u0 = tiny_store.user_index["u0"]
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
        for case in cases:
            unobserved = tiny_store.num_items - len(tiny_store.implicit_items[case.user] | {case.item})
            assert case.negatives.size == unobserved


class TestPreparedRoundTrip:
    def test_save_load_preserves_everything(self, tiny_store, tmp_path):
        cats = write_categories_csv(tmp_path / "c.csv",
                                    [("a", "A"), ("b", "B"), ("e", "A"), ("f", "B")])
        train, cases = leave_one_out_split(tiny_store, num_negatives=2, seed=3)
        side = build_side_info(train, str(cats))
        prepared = PreparedDataset(train, cases, side, tiny_store.stats(side.num_categories),
                                   meta={"seed": 3})
        path = tmp_path / "prep.bin"
        save_prepared(str(path), prepared)
        loaded = load_prepared(str(path))

        assert loaded.store.user_ids == train.user_ids
        assert loaded.store.item_ids == train.item_ids
        for u in range(train.num_users):
            for attr in ("implicit_events", "explicit_events"):
                for got, want in zip(getattr(loaded.store, attr)[u], getattr(train, attr)[u]):
                    np.testing.assert_array_equal(got, want)
            assert loaded.store.excluded_items[u] == train.excluded_items[u]
            assert loaded.store.implicit_items[u] == train.implicit_items[u]
        assert len(loaded.cases) == len(cases)
        for got, want in zip(loaded.cases, cases):
            assert (got.user, got.item) == (want.user, want.item)
            np.testing.assert_array_equal(got.negatives, want.negatives)
            np.testing.assert_array_equal(got.history, want.history)
        assert loaded.side_info.labels == side.labels
        assert loaded.side_info.item_categories == side.item_categories
        for u in range(train.num_users):
            np.testing.assert_array_equal(loaded.side_info.user_vectors[u][0], side.user_vectors[u][0])
            np.testing.assert_allclose(loaded.side_info.user_vectors[u][1], side.user_vectors[u][1])
        assert loaded.stats == prepared.stats
        assert loaded.meta == {"seed": 3}

    def test_side_vectors_computed_on_training_view_only(self, tmp_path):
        # the held-out item's category must not leak into the user vector
        rows = [(t, "u", "view", item) for t, item in enumerate(["a", "b", "c", "d"])]
        rows.append((10, "u", "addtocart", "d"))
        store = ingest(str(write_events_csv(tmp_path / "e.csv", rows)))
        cats = write_categories_csv(tmp_path / "c.csv",
                                    [("a", "A"), ("b", "A"), ("c", "A"), ("d", "B")])
        train, _ = leave_one_out_split(store)
        side = build_side_info(train, str(cats))
        np.testing.assert_allclose(side.user_matrix([0])[0], [1.0, 0.0])
