"""Event-log ingestion and dataset preparation.

Raw e-commerce logs (timestamp, user, event type, item) are classified into
implicit and explicit behaviour, filtered to users with enough activity,
reindexed densely, and split leave-one-out: each user's last explicitly
interacted item becomes their test case, ranked against sampled negatives.
Item-category side information is read from a companion file.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

IMPLICIT = "implicit"
EXPLICIT = "explicit"

# Retail Rocket event vocabulary out of the box; "click"/"order" cover the
# other log dialects the ingestion format supports.
DEFAULT_CLASSIFICATION = {
    "view": IMPLICIT,
    "click": IMPLICIT,
    "addtocart": EXPLICIT,
    "transaction": EXPLICIT,
    "order": EXPLICIT,
}


class DataError(ValueError):
    """Unusable input data (unknown event type, empty file, bad schema)."""


@dataclass
class ColumnSpec:
    timestamp: str = "timestamp"
    user: str = "visitorid"
    event: str = "event"
    item: str = "itemid"


@dataclass
class DatasetStats:
    users: int
    items: int
    implicit: int
    explicit: int
    labels: int
    sparsity: float

    def lines(self) -> list[str]:
        return [
            f"users      {self.users}",
            f"items      {self.items}",
            f"implicit   {self.implicit}",
            f"explicit   {self.explicit}",
            f"labels     {self.labels}",
            f"sparsity   {self.sparsity:.5%}",
        ]

    def to_dict(self) -> dict:
        return asdict(self)


class InteractionStore:
    """Dense-indexed per-user event lists plus membership sets.

    ``implicit_items`` is the augmented implicit matrix: every explicit
    interaction also counts as an implicit one. ``excluded_items`` holds
    per-user items removed by the evaluation split; they stay out of both
    training data and negative-sampling pools.
    """

    def __init__(self, user_ids: list[str], item_ids: list[str],
                 implicit_events: list[tuple], explicit_events: list[tuple],
                 excluded_items: Optional[list[set]] = None):
        self.user_ids = user_ids
        self.item_ids = item_ids
        self.user_index = {u: idx for idx, u in enumerate(user_ids)}
        self.item_index = {i: idx for idx, i in enumerate(item_ids)}
        self.implicit_events = implicit_events  # per user: (times, seqs, items) sorted
        self.explicit_events = explicit_events
        self.implicit_items = [set(ev[2].tolist()) | set(ex[2].tolist())
                               for ev, ex in zip(implicit_events, explicit_events)]
        self.explicit_items = [set(ev[2].tolist()) for ev in explicit_events]
        self.excluded_items = excluded_items if excluded_items is not None else [set() for _ in user_ids]
        self._merged: dict[int, np.ndarray] = {}
        self._first_pos: dict[int, dict[int, int]] = {}

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def observed_any(self, user: int) -> set:
        """Items the user has interacted with in any way, plus held-out ones."""
        return self.implicit_items[user] | self.excluded_items[user]

    def merged_sequence(self, user: int) -> np.ndarray:
        """All of the user's interactions in (timestamp, file-order) order."""
        cached = self._merged.get(user)
        if cached is None:
            ti, si, ii = self.implicit_events[user]
            te, se, ie = self.explicit_events[user]
            times = np.concatenate([ti, te])
            seqs = np.concatenate([si, se])
            items = np.concatenate([ii, ie])
            order = np.lexsort((seqs, times))
            cached = items[order]
            self._merged[user] = cached
        return cached

    def first_positions(self, user: int) -> dict[int, int]:
        cached = self._first_pos.get(user)
        if cached is None:
            cached = {}
            for pos, item in enumerate(self.merged_sequence(user)):
                cached.setdefault(int(item), pos)
            self._first_pos[user] = cached
        return cached

    def num_implicit_pairs(self) -> int:
        return sum(len(s) for s in self.implicit_items)

    def num_explicit_pairs(self) -> int:
        return sum(len(s) for s in self.explicit_items)

    def stats(self, labels: int = 0) -> DatasetStats:
        pairs = self.num_implicit_pairs() + self.num_explicit_pairs()
        cells = self.num_users * self.num_items
        return DatasetStats(
            users=self.num_users,
            items=self.num_items,
            implicit=self.num_implicit_pairs(),
            explicit=self.num_explicit_pairs(),
            labels=labels,
            sparsity=1.0 - pairs / cells if cells else 0.0,
        )

    def without_pairs(self, removals: dict[int, int]) -> "InteractionStore":
        """Training view with one (user -> item) pair dropped entirely."""
        impl, expl, excluded = [], [], []
        for u in range(self.num_users):
            drop = removals.get(u)
            for source, dest in ((self.implicit_events, impl), (self.explicit_events, expl)):
                times, seqs, items = source[u]
                if drop is None:
                    dest.append((times, seqs, items))
                else:
                    keep = items != drop
                    dest.append((times[keep], seqs[keep], items[keep]))
            exc = set(self.excluded_items[u])
            if drop is not None:
                exc.add(drop)
            excluded.append(exc)
        return InteractionStore(self.user_ids, self.item_ids, impl, expl, excluded)


def _sorted_event_arrays(events: list[tuple]) -> tuple:
    if not events:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    arr = np.array(events, dtype=np.int64)  # columns: t, seq, item
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()


def ingest(log_path: str, classification: Optional[dict] = None, min_interactions: int = 5,
           columns: Optional[ColumnSpec] = None, delimiter: str = ",") -> InteractionStore:
    """Read a delimiter-separated event log into an InteractionStore.

    Users with fewer than ``min_interactions`` raw events are dropped;
    remaining users and their items are reindexed densely in order of first
    appearance. Duplicate (user, item, type) events collapse into one
    membership but every event keeps its timestamp for ordering.
    """
    classification = classification or DEFAULT_CLASSIFICATION
    cols = columns or ColumnSpec()
    by_user: dict[str, list[tuple]] = {}
    seq = 0
    with open(log_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{log_path}: empty file")
        try:
            col_t = header.index(cols.timestamp)
            col_u = header.index(cols.user)
            col_e = header.index(cols.event)
            col_i = header.index(cols.item)
        except ValueError as exc:
            raise DataError(f"{log_path}: missing column ({exc}); have {header}") from exc
        for row in reader:
            if len(row) < len(header):
                raise DataError(f"{log_path}: data row {seq} has {len(row)} fields, "
                                f"the header has {len(header)}")
            event = row[col_e]
            kind = classification.get(event)
            if kind is None:
                raise DataError(f"{log_path}: unknown event type {event!r}; extend the classification map")
            try:
                t = int(row[col_t])
            except ValueError as exc:
                raise DataError(f"{log_path}: bad timestamp {row[col_t]!r} at data row {seq}") from exc
            by_user.setdefault(row[col_u], []).append((t, seq, kind, row[col_i]))
            seq += 1
    if seq == 0:
        raise DataError(f"{log_path}: no event rows")

    user_ids = [u for u, events in by_user.items() if len(events) >= min_interactions]
    if not user_ids:
        raise DataError(f"{log_path}: no user has >= {min_interactions} interactions")
    item_index: dict[str, int] = {}
    item_ids: list[str] = []
    implicit_events, explicit_events = [], []
    for u in user_ids:
        impl, expl = [], []
        for t, s, kind, item_ext in by_user[u]:
            idx = item_index.get(item_ext)
            if idx is None:
                idx = len(item_ids)
                item_index[item_ext] = idx
                item_ids.append(item_ext)
            (impl if kind == IMPLICIT else expl).append((t, s, idx))
        implicit_events.append(_sorted_event_arrays(impl))
        explicit_events.append(_sorted_event_arrays(expl))
    return InteractionStore(user_ids, item_ids, implicit_events, explicit_events)


# ---------------------------------------------------------------------------
# side information
# ---------------------------------------------------------------------------


@dataclass
class SideInfo:
    """Item category multi-hots and per-user category-frequency vectors."""

    num_categories: int
    labels: list[str]
    item_categories: list[list[int]]
    user_vectors: list[tuple]  # per user: (category indices, weights)
    skipped_rows: int = 0
    # item_categories as one flat array with per-item starts and counts,
    # built once so item_matrix fills its multi-hot in a single assignment
    _item_flat: np.ndarray = field(init=False, repr=False, compare=False)
    _item_starts: np.ndarray = field(init=False, repr=False, compare=False)
    _item_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = np.fromiter(map(len, self.item_categories), dtype=np.int64,
                             count=len(self.item_categories))
        self._item_counts = counts
        self._item_starts = np.cumsum(counts) - counts
        self._item_flat = np.fromiter(itertools.chain.from_iterable(self.item_categories),
                                      dtype=np.int64, count=int(counts.sum()))

    def item_matrix(self, items: np.ndarray, dtype=np.float32) -> np.ndarray:
        items = np.asarray(items)
        flat = items.reshape(-1)
        counts = self._item_counts[flat]
        ends = np.cumsum(counts)
        # the j-th 1 of the output lies in row rows[j]; its category is the
        # item's start in _item_flat plus j's rank among that row's 1s
        rows = np.repeat(np.arange(flat.size), counts)
        src = np.arange(rows.size) + np.repeat(self._item_starts[flat] - (ends - counts), counts)
        out = np.zeros((flat.size, self.num_categories), dtype=dtype)
        out[rows, self._item_flat[src]] = 1.0
        return out.reshape(items.shape + (self.num_categories,))

    def user_matrix(self, users: np.ndarray, dtype=np.float32) -> np.ndarray:
        users = np.asarray(users)
        out = np.zeros(users.shape + (self.num_categories,), dtype=dtype)
        view = out.reshape(-1, self.num_categories)
        for pos, user in enumerate(users.reshape(-1)):
            idx, val = self.user_vectors[int(user)]
            view[pos, idx] = val
        return out


def encode_side_user(items: Sequence[int], item_categories: Sequence[Sequence[int]],
                     num_categories: int) -> np.ndarray:
    """Category-frequency vector over a user's interacted items.

    Each item increments every category it belongs to; the vector is
    normalized by the total count. A user whose items carry no categories
    gets the all-zero vector (degenerate but valid input downstream).
    """
    counts = np.zeros(num_categories, dtype=np.float64)
    for item in items:
        for c in item_categories[item]:
            counts[c] += 1.0
    total = counts.sum()
    if total > 0:
        counts /= total
    return counts


def read_category_pairs(path: str, delimiter: str = ",") -> tuple[dict[str, set], int]:
    """item_id,category_id rows -> {item: {labels}}; malformed rows skipped."""
    mapping: dict[str, set] = {}
    skipped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty category file")
        for row in reader:
            if len(row) < 2 or not row[0] or not row[1]:
                skipped += 1
                continue
            mapping.setdefault(row[0], set()).add(row[1])
    if skipped:
        log.warning("%s: skipped %d malformed category rows", path, skipped)
    return mapping, skipped


def read_retailrocket_properties(paths: Sequence[str]) -> dict[str, set]:
    """Extract item -> category from Retail Rocket item_properties dumps.

    Rows are (timestamp, itemid, property, value); for property ==
    "categoryid" the latest timestamped value wins.
    """
    latest: dict[str, tuple[int, str]] = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                continue
            try:
                col_t = header.index("timestamp")
                col_i = header.index("itemid")
                col_p = header.index("property")
                col_v = header.index("value")
            except ValueError as exc:
                raise DataError(f"{path}: missing column ({exc}); have {header}") from exc
            for row in reader:
                if len(row) <= col_v or row[col_p] != "categoryid":
                    continue
                try:
                    t = int(row[col_t])
                except ValueError:
                    continue
                item = row[col_i]
                value = row[col_v]
                if not item or not value:
                    continue
                have = latest.get(item)
                if have is None or t >= have[0]:
                    latest[item] = (t, value)
    return {item: {value} for item, (_, value) in latest.items()}


def build_side_info(store: InteractionStore, category_path: Optional[str] = None,
                    mapping: Optional[dict[str, set]] = None, delimiter: str = ",") -> SideInfo:
    """Attach categories to a store (pass the training view so the per-user
    frequency vectors never see held-out items)."""
    skipped = 0
    if mapping is None:
        if category_path is None:
            raise DataError("build_side_info needs a category file or mapping")
        mapping, skipped = read_category_pairs(category_path, delimiter)
    labels = sorted({c for item, cats in mapping.items() if item in store.item_index for c in cats})
    label_index = {c: j for j, c in enumerate(labels)}
    item_categories: list[list[int]] = []
    for ext in store.item_ids:
        cats = mapping.get(ext, ())
        item_categories.append(sorted(label_index[c] for c in cats))
    user_vectors = []
    uncategorized_users = 0
    for u in range(store.num_users):
        vec = encode_side_user(sorted(store.implicit_items[u]), item_categories, len(labels))
        idx = np.flatnonzero(vec).astype(np.int64)
        if idx.size == 0:
            uncategorized_users += 1
        user_vectors.append((idx, vec[idx]))
    if uncategorized_users:
        log.warning("%d users have no categorized interactions; their side vectors are zero",
                    uncategorized_users)
    return SideInfo(len(labels), labels, item_categories, user_vectors, skipped)


# ---------------------------------------------------------------------------
# leave-one-out split
# ---------------------------------------------------------------------------


@dataclass
class EvalCase:
    """One user's held-out ranking problem: the ground-truth item against
    sampled unobserved negatives, with the pre-target interaction history
    (raw; padded to the model's sequence length at scoring time)."""

    user: int
    item: int
    negatives: np.ndarray
    history: np.ndarray


def sample_unobserved(num_items: int, excluded: set, count: int,
                      rng: np.random.Generator, allow_short: bool = False) -> np.ndarray:
    """Uniform sample, without replacement, of item ids outside ``excluded``.

    ``allow_short`` callers (evaluation negatives) accept however many items
    exist; training callers require at least one candidate.
    """
    available = num_items - len(excluded)
    if available <= 0:
        if allow_short:
            return np.zeros(0, dtype=np.int64)
        raise DataError("user has interacted with the whole catalog; nothing to sample")
    if available < count:
        eligible = np.array([i for i in range(num_items) if i not in excluded], dtype=np.int64)
        if allow_short:
            return rng.permutation(eligible)
        log.warning("only %d candidates for %d requested; sampling with replacement", available, count)
        return rng.choice(eligible, size=count, replace=True)
    chosen: list[int] = []
    seen = set()
    while len(chosen) < count:
        draw = rng.integers(0, num_items, size=max(16, 2 * (count - len(chosen))))
        for item in draw:
            item = int(item)
            if item in excluded or item in seen:
                continue
            seen.add(item)
            chosen.append(item)
            if len(chosen) == count:
                break
    return np.array(chosen, dtype=np.int64)


def leave_one_out_split(store: InteractionStore, num_negatives: int = 999,
                        seed: int = 0) -> tuple[InteractionStore, list[EvalCase]]:
    """Hold out each user's most recent explicitly interacted item.

    All events between the user and that item leave the training view; users
    without explicit events contribute training data only. Negatives are
    drawn per user from items the user never interacted with in either
    matrix (seeded and order-independent). If fewer than ``num_negatives``
    items are eligible, all of them are used.
    """
    removals: dict[int, int] = {}
    cases: list[EvalCase] = []
    for u in range(store.num_users):
        times, seqs, items = store.explicit_events[u]
        if items.size == 0:
            continue
        last = np.lexsort((seqs, times))[-1]
        gt = int(items[last])
        cutoff = (int(times[last]), int(seqs[last]))
        removals[u] = gt

        ti, si, ii = store.implicit_events[u]
        te, se, ie = store.explicit_events[u]
        all_t = np.concatenate([ti, te])
        all_s = np.concatenate([si, se])
        all_i = np.concatenate([ii, ie])
        order = np.lexsort((all_s, all_t))
        all_t, all_s, all_i = all_t[order], all_s[order], all_i[order]
        before = (all_t < cutoff[0]) | ((all_t == cutoff[0]) & (all_s < cutoff[1]))
        history = all_i[before & (all_i != gt)]

        rng = np.random.default_rng([seed, u])
        negatives = sample_unobserved(store.num_items, store.observed_any(u) | {gt},
                                      num_negatives, rng, allow_short=True)
        cases.append(EvalCase(user=u, item=gt, negatives=negatives, history=history))
    train = store.without_pairs(removals)
    return train, cases


# ---------------------------------------------------------------------------
# prepared-dataset cache
# ---------------------------------------------------------------------------


@dataclass
class PreparedDataset:
    store: InteractionStore           # training view
    cases: list[EvalCase]
    side_info: Optional[SideInfo]
    stats: DatasetStats               # of the full pre-split store
    meta: dict = field(default_factory=dict)


def _flatten(ragged: Iterable[np.ndarray], dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    parts = [np.asarray(part, dtype=dtype) for part in ragged]
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    for j, part in enumerate(parts):
        offsets[j + 1] = offsets[j] + part.size
    flat = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
    return flat, offsets


def _unflatten(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    return [flat[offsets[j]:offsets[j + 1]] for j in range(offsets.size - 1)]


def save_prepared(path: str, prepared: PreparedDataset) -> None:
    from . import container

    store = prepared.store
    config = {
        "kind": "dataset",
        "num_users": store.num_users,
        "num_items": store.num_items,
        "user_ids": store.user_ids,
        "item_ids": store.item_ids,
        "stats": prepared.stats.to_dict(),
        "has_side_info": prepared.side_info is not None,
        "labels": prepared.side_info.labels if prepared.side_info else [],
        "meta": prepared.meta,
    }
    arrays: dict[str, np.ndarray] = {}
    for name, events in (("implicit", store.implicit_events), ("explicit", store.explicit_events)):
        for col, idx in (("times", 0), ("seqs", 1), ("items", 2)):
            flat, offsets = _flatten([ev[idx] for ev in events])
            arrays[f"{name}_{col}"] = flat
            if col == "times":
                arrays[f"{name}_offsets"] = offsets
    arrays["excluded_flat"], arrays["excluded_offsets"] = _flatten(
        [np.array(sorted(s), dtype=np.int64) for s in store.excluded_items])
    arrays["case_users"] = np.array([c.user for c in prepared.cases], dtype=np.int64)
    arrays["case_items"] = np.array([c.item for c in prepared.cases], dtype=np.int64)
    arrays["case_neg_flat"], arrays["case_neg_offsets"] = _flatten([c.negatives for c in prepared.cases])
    arrays["case_hist_flat"], arrays["case_hist_offsets"] = _flatten([c.history for c in prepared.cases])
    if prepared.side_info is not None:
        side = prepared.side_info
        arrays["side_item_flat"], arrays["side_item_offsets"] = _flatten(side.item_categories)
        arrays["side_user_idx"], arrays["side_user_offsets"] = _flatten([v[0] for v in side.user_vectors])
        arrays["side_user_val"], _ = _flatten([v[1] for v in side.user_vectors], dtype=np.float64)
    container.write_container(path, config, arrays)


def load_prepared(path: str) -> PreparedDataset:
    from . import container

    config, arrays = container.read_container(path)
    if config.get("kind") != "dataset":
        raise container.FormatError(f"{path}: not a prepared-dataset file")
    num_users = config["num_users"]
    events = {}
    for name in ("implicit", "explicit"):
        offsets = arrays[f"{name}_offsets"]
        cols = [_unflatten(arrays[f"{name}_{col}"], offsets) for col in ("times", "seqs", "items")]
        events[name] = [tuple(col[u] for col in cols) for u in range(num_users)]
    excluded = [set(part.tolist()) for part in
                _unflatten(arrays["excluded_flat"], arrays["excluded_offsets"])]
    store = InteractionStore(config["user_ids"], config["item_ids"],
                             events["implicit"], events["explicit"], excluded)
    negatives = _unflatten(arrays["case_neg_flat"], arrays["case_neg_offsets"])
    histories = _unflatten(arrays["case_hist_flat"], arrays["case_hist_offsets"])
    cases = [EvalCase(int(u), int(i), neg, hist) for u, i, neg, hist in
             zip(arrays["case_users"], arrays["case_items"], negatives, histories)]
    side = None
    if config.get("has_side_info"):
        item_categories = [part.tolist() for part in
                           _unflatten(arrays["side_item_flat"], arrays["side_item_offsets"])]
        idx_parts = _unflatten(arrays["side_user_idx"], arrays["side_user_offsets"])
        val_flat = arrays["side_user_val"]
        offsets = arrays["side_user_offsets"]
        user_vectors = [(idx_parts[u], val_flat[offsets[u]:offsets[u + 1]]) for u in range(num_users)]
        side = SideInfo(len(config["labels"]), config["labels"], item_categories, user_vectors)
    stats = DatasetStats(**config["stats"])
    return PreparedDataset(store, cases, side, stats, config.get("meta", {}))
