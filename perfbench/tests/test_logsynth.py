import csv
from collections import Counter

from perfbench.logsynth import LogSpec, write_log


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_same_seed_gives_identical_bytes(tmp_path):
    first = write_log(tmp_path / "a", LogSpec(), seed=3)
    again = write_log(tmp_path / "b", LogSpec(), seed=3)
    other = write_log(tmp_path / "c", LogSpec(), seed=4)
    for a, b, c in zip(first, again, other):
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


def test_log_has_the_properties_the_workloads_need(tmp_path):
    spec = LogSpec()
    events_path, cats_path = write_log(tmp_path, spec, seed=1)
    events = _read(events_path)
    views = Counter(row["visitorid"] for row in events if row["event"] == "view")
    assert len(views) == spec.users
    # activity straddles seq_len=20: both padded and truncated contexts occur
    assert min(views.values()) < 20 < max(views.values())
    # every catalog item appears, so evaluation can draw 999 negatives
    assert len({row["itemid"] for row in events}) == spec.items
    # power-law popularity: the top 5% of items take far more than 5% of views
    per_item = sorted(Counter(row["itemid"] for row in events if row["event"] == "view").values())
    top = per_item[-spec.items // 20:]
    assert sum(top) > 0.15 * sum(per_item)
    # every user ends on an explicit event, which becomes their held-out case
    last = {}
    for row in events:
        last[row["visitorid"]] = row["event"]
    assert set(last.values()) <= {"addtocart", "transaction"}

    pairs = _read(cats_path)
    per_item_cats = Counter(row["itemid"] for row in pairs)
    assert set(per_item_cats.values()) <= {1, 2, 3}
    assert len({row["categoryid"] for row in pairs}) >= 200
