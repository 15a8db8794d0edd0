"""Event-log ingestion and dataset preparation.

Raw e-commerce logs (timestamp, user, event type, item) are classified into
implicit and explicit behaviour, filtered to users with enough activity,
reindexed densely, and split leave-one-out: each user's last explicitly
interacted item becomes their test case, ranked against sampled negatives.
Item-category side information is read from a companion file.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import container
from .container import FormatError

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


def _row_offsets(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR offsets of a table that holds, row by row, the entries whose row
    ids are ``rows``."""
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=offsets[1:])
    return offsets


def _row_ids(offsets: np.ndarray) -> np.ndarray:
    """The row id of every flat entry of a CSR layout."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


class InteractionStore:
    """Every event in one table, each user's in the order ``ingest`` gave
    them (by timestamp, then file row), plus the held-out pairs.

    The table's columns are ``items`` and the behaviour flag ``explicit``;
    user u's events are rows ``offsets[u]:offsets[u + 1]``, kept in the
    order given. The implicit matrix is every event (an explicit one counts
    as implicit too), the explicit matrix the explicit events. The held-out
    pairs, kept out of both training data and negative-sampling pools, are
    ``held_keys``, their sorted distinct pair keys, given as
    ``excluded`` (users, items) pairs in any order, repeats allowed.
    """

    def __init__(self, user_ids: list[str], item_ids: list[str], offsets: np.ndarray,
                 items: np.ndarray, explicit: np.ndarray,
                 excluded: tuple[np.ndarray, np.ndarray] = ((), ())):
        self.user_ids = user_ids
        self.item_ids = item_ids
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.explicit = np.asarray(explicit, dtype=bool)
        self.held_keys = np.unique(self.pair_key(*excluded))
        self._matrix_keys: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def pair_key(self, users, items):
        """``user * num_items + item``: pair keys sort by user, then item."""
        return np.asarray(users, dtype=np.int64) * self.num_items + np.asarray(items, dtype=np.int64)

    def _keys(self, matrix: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A matrix's sorted distinct pair keys and its observed keys, each
        then a sentinel above every key, and the event-table row of each
        pair's first event, then -1: built on first use, kept read-only."""
        if matrix not in self._matrix_keys:
            if matrix not in (IMPLICIT, EXPLICIT):
                raise DataError(f"matrix must be 'implicit' or 'explicit', got {matrix!r}")
            rows = np.flatnonzero(self.explicit) if matrix == EXPLICIT else np.arange(self.items.size)
            pairs, first = np.unique(self.pair_key(_row_ids(self.offsets)[rows], self.items[rows]),
                                     return_index=True)
            pairs = np.append(pairs, self.pair_key(self.num_users, 0))
            held = self.held_keys
            held = held[pairs[np.searchsorted(pairs, held)] != held]  # the ones no event has
            cached = (pairs, np.insert(pairs, np.searchsorted(pairs, held), held), np.append(rows[first], -1))
            for arr in cached:
                arr.flags.writeable = False
            self._matrix_keys[matrix] = cached
        return self._matrix_keys[matrix]

    def pair_keys(self, matrix: str) -> np.ndarray:
        """Sorted distinct keys of the ``"implicit"`` or ``"explicit"`` matrix's pairs."""
        return self._keys(matrix)[0][:-1]

    def observed_keys(self, matrix: str) -> np.ndarray:
        """The sorted keys a draw from the matrix must avoid: its pairs and
        every held-out pair, then a sentinel that keeps searchsorted in range."""
        return self._keys(matrix)[1]

    def context_ends(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """The row each ``(users[j], items[j])`` session context ends before:
        the pair's first event, or the end of the user's rows if it has none."""
        pairs, _, first = self._keys(IMPLICIT)
        keys = self.pair_key(users, items)
        at = np.searchsorted(pairs, keys)
        return np.where(pairs[at] == keys, first[at], self.offsets[users + 1])

    def observed_items(self, user: int) -> np.ndarray:
        """Ids of the user's events and held-out items; ids may repeat."""
        held = self.held_keys[slice(*np.searchsorted(self.held_keys, self.pair_key([user, user + 1], 0)))]
        return np.concatenate((self.items[self.offsets[user]:self.offsets[user + 1]], held % self.num_items))

    def observed_any(self, user: int) -> set:
        """Items the user has interacted with in any way, plus held-out ones."""
        return set(self.observed_items(user).tolist())

    def num_implicit_pairs(self) -> int:
        return self.pair_keys(IMPLICIT).size

    def num_explicit_pairs(self) -> int:
        return self.pair_keys(EXPLICIT).size

    def stats(self, labels: int = 0) -> DatasetStats:
        implicit, explicit = self.num_implicit_pairs(), self.num_explicit_pairs()
        cells = self.num_users * self.num_items
        return DatasetStats(
            users=self.num_users,
            items=self.num_items,
            implicit=implicit,
            explicit=explicit,
            labels=labels,
            # every explicit pair is also an implicit one, so implicit pairs fill the cells
            sparsity=1.0 - implicit / cells if cells else 0.0,
        )

    def without_pairs(self, users: np.ndarray, items: np.ndarray) -> "InteractionStore":
        """Training view with every ``(users[j], items[j])`` event dropped and the pair held out."""
        event_users = _row_ids(self.offsets)
        keep = ~np.isin(self.pair_key(event_users, self.items), self.pair_key(users, items))
        excluded = np.divmod(np.concatenate((self.held_keys, self.pair_key(users, items))), self.num_items)
        offsets = _row_offsets(event_users[keep], self.num_users)
        return InteractionStore(self.user_ids, self.item_ids, offsets, self.items[keep],
                                self.explicit[keep], excluded)


def _csv_rows(path: str, fh, delimiter: str = ","):
    """``csv.reader`` rows of an open file, header first. A row it cannot
    parse raises DataError naming the file and the data row (0 follows the header)."""
    seq = -1
    try:
        for row in csv.reader(fh, delimiter=delimiter):
            yield row
            seq += 1
    except csv.Error as exc:
        where = f"data row {seq}" if seq >= 0 else "the header"
        raise DataError(f"{path}: cannot parse {where}: {exc}") from None


def ingest(log_path: str, classification: Optional[dict] = None, min_interactions: int = 5,
           columns: Optional[ColumnSpec] = None, delimiter: str = ",") -> InteractionStore:
    """Read a delimiter-separated event log into an InteractionStore.

    Users with fewer than ``min_interactions`` raw events are dropped;
    remaining users are reindexed densely in order of first appearance, and
    items in order of first appearance when the log is read user by user.
    Duplicate (user, item, type) events collapse into one membership but
    every event keeps its place in the order: each user's events sorted by
    timestamp, ties in file order.
    """
    classification = classification or DEFAULT_CLASSIFICATION
    cols = columns or ColumnSpec()
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, times, explicit, items = [], [], [], []
    with open(log_path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(log_path, fh, delimiter)
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
        for seq, row in enumerate(reader):
            if len(row) < len(header):
                raise DataError(f"{log_path}: data row {seq} has {len(row)} fields, "
                                f"the header has {len(header)}")
            event = row[col_e]
            kind = classification.get(event)
            if kind is None:
                raise DataError(f"{log_path}: unknown event type {event!r}; extend the classification map")
            try:
                times.append(int(row[col_t]))
            except ValueError as exc:
                raise DataError(f"{log_path}: bad timestamp {row[col_t]!r} at data row {seq}") from exc
            users.append(user_index.setdefault(row[col_u], len(user_index)))
            items.append(item_index.setdefault(row[col_i], len(item_index)))
            explicit.append(kind != IMPLICIT)
    if not times:
        raise DataError(f"{log_path}: no event rows")

    try:
        times = np.array(times, dtype=np.int64)
    except OverflowError:
        seq = next(seq for seq, t in enumerate(times) if not -2**63 <= t < 2**63)
        raise DataError(f"{log_path}: timestamp {times[seq]} at data row {seq} "
                        "does not fit in 64 bits") from None
    users = np.array(users, dtype=np.int64)
    kept = np.bincount(users) >= min_interactions
    if not kept.any():
        raise DataError(f"{log_path}: no user has >= {min_interactions} interactions")
    rows = np.flatnonzero(kept[users])
    users = (np.cumsum(kept) - 1)[users[rows]]
    # number items as they first appear when each user's events are read in file order
    raw_items = np.array(items, dtype=np.int64)[rows]
    by_user = np.argsort(users, kind="stable")
    seen, first = np.unique(raw_items[by_user], return_index=True)
    numbered = seen[np.argsort(first)]
    new_item = np.empty(len(item_index), dtype=np.int64)  # read only at seen items
    new_item[numbered] = np.arange(numbered.size)
    # the one event order every later step keeps: by user, then timestamp, then file row
    order = np.lexsort((rows, times[rows], users))
    user_names, item_names = list(user_index), list(item_index)
    return InteractionStore([user_names[u] for u in np.flatnonzero(kept)],
                            [item_names[i] for i in numbered], _row_offsets(users, int(kept.sum())),
                            new_item[raw_items[order]], np.array(explicit, dtype=bool)[rows[order]])


# ---------------------------------------------------------------------------
# side information
# ---------------------------------------------------------------------------


def _csr_entries(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of CSR rows ``rows`` (1-D, in range), row after row: the
    position in ``rows`` each entry belongs to, and its flat index."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    ends = np.cumsum(counts)
    # the j-th entry lies in row dest[j] at that row's start plus j's rank within the row
    dest = np.repeat(np.arange(rows.size), counts)
    src = np.arange(dest.size) + np.repeat(starts - (ends - counts), counts)
    return dest, src


def _csr_rows(offsets: np.ndarray, columns: np.ndarray, values: Optional[np.ndarray],
              rows: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """CSR rows ``rows`` as a bag ``[*rows.shape, m]``: each row's columns
    (and ``values``, unless None), padded with -1 (and 0) out to ``m``, the
    largest entry count among them. Row ids index like a list."""
    rows = np.asarray(rows)
    flat = np.arange(offsets.size - 1)[rows.reshape(-1)]  # bounds-checks, wraps negatives
    dest, src = _csr_entries(offsets, flat)
    starts = offsets[flat]
    width = int((offsets[flat + 1] - starts).max()) if flat.size else 0
    # an entry's slot is its offset from its row's start
    slot = (dest, src - starts[dest])
    ids = np.full((flat.size, width), -1, dtype=np.int64)
    ids[slot] = columns[src]
    shape = rows.shape + (width,)
    if values is None:
        return ids.reshape(shape), None
    weights = np.zeros((flat.size, width), dtype=values.dtype)
    weights[slot] = values[src]
    return ids.reshape(shape), weights.reshape(shape)


@dataclass(eq=False)
class SideInfo:
    """Item categories and per-user category frequencies, both as CSR rows:
    item i's categories are
    ``item_categories[item_offsets[i]:item_offsets[i + 1]]``, and user u's
    nonzero categories and their weights the same slice of
    ``user_categories`` and ``user_weights`` under ``user_offsets``.

    A model reads them as bags of category ids (``tensor.embedding_bag``):
    ``item_matrix`` and ``user_matrix`` return each asked row's ids padded
    with -1 to the longest of those rows, never a dense
    ``[..., num_categories]`` vector."""

    labels: list[str]
    item_offsets: np.ndarray
    item_categories: np.ndarray
    user_offsets: np.ndarray
    user_categories: np.ndarray
    user_weights: np.ndarray

    @property
    def num_categories(self) -> int:
        return len(self.labels)

    def item_matrix(self, items: np.ndarray) -> np.ndarray:
        """Category ids of ``items``: int64 ``[*items.shape, m]``, -1 padded."""
        return _csr_rows(self.item_offsets, self.item_categories, None, items)[0]

    def user_matrix(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Category ids of ``users`` as ``item_matrix`` gives them, and the
        matching float64 category frequencies (0 in pad slots)."""
        return _csr_rows(self.user_offsets, self.user_categories, self.user_weights, users)


def read_category_pairs(path: str, delimiter: str = ",") -> dict[str, set]:
    """item_id,category_id rows -> {item: {labels}}; malformed rows skipped."""
    mapping: dict[str, set] = {}
    skipped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh, delimiter)
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
    return mapping


def read_retailrocket_properties(paths: Sequence[str]) -> dict[str, set]:
    """Extract item -> category from Retail Rocket item_properties dumps.

    Rows are (timestamp, itemid, property, value); for property ==
    "categoryid" the latest timestamped value wins.
    """
    latest: dict[str, tuple[int, str]] = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = _csv_rows(path, fh)
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


def build_side_info(store: InteractionStore, mapping: dict[str, set]) -> SideInfo:
    """Attach an {item: {categories}} mapping, as the category readers give
    it, to a store (pass the training view so the per-user frequency vectors
    never see held-out items)."""
    labels = sorted({c for item in set(mapping) & set(store.item_ids) for c in mapping[item]})
    label_index = {c: j for j, c in enumerate(labels)}
    item_categories = [sorted(label_index[c] for c in mapping.get(ext, ())) for ext in store.item_ids]
    item_flat, item_offsets = _flatten(item_categories)
    # every (user, category) occurrence over the user's distinct items, as
    # the key user * T + category; a user's weights are each key's count
    # over the user's total, both exact integers, so each weight is their
    # correctly rounded quotient
    t = len(labels)
    pair_users, pair_items = np.divmod(store.pair_keys(IMPLICIT), store.num_items)
    dest, src = _csr_entries(item_offsets, pair_items)
    users = pair_users[dest]
    keys, counts = np.unique(users * t + item_flat[src], return_counts=True)
    key_users, user_flat = np.divmod(keys, t)
    weights = counts / np.bincount(users, minlength=store.num_users)[key_users]
    user_offsets = _row_offsets(key_users, store.num_users)
    uncategorized_users = int(np.count_nonzero(np.diff(user_offsets) == 0))
    if uncategorized_users:
        log.warning("%d users have no categorized interactions; their side vectors are zero",
                    uncategorized_users)
    return SideInfo(labels, item_offsets, item_flat, user_offsets, user_flat, weights)


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


def sample_unobserved(num_items: int, excluded: Iterable[int], count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Evaluation negatives: a uniform sample, without replacement, of ids
    outside ``excluded`` (a set or int array of ids in ``[0, num_items)``).

    Each round draws ``max(16, 2 * still needed)`` ids and keeps, in draw
    order, the first occurrence of every id neither excluded nor chosen in
    an earlier round, until ``count`` are chosen. When fewer than ``count``
    ids are eligible, the sample is a permutation of all of them.
    """
    ids = excluded if isinstance(excluded, np.ndarray) else np.fromiter(excluded, np.int64)
    blocked = np.zeros(num_items, dtype=bool)
    blocked[ids] = True
    if num_items - np.count_nonzero(blocked) < count:
        return rng.permutation(np.flatnonzero(~blocked))
    chosen = [np.zeros(0, dtype=np.int64)]
    first = np.empty(num_items, dtype=np.int64)  # read only at the current round's draws
    while count:
        draw = rng.integers(0, num_items, size=max(16, 2 * count))
        position = np.arange(draw.size)
        first[draw] = draw.size
        np.minimum.at(first, draw, position)
        picked = draw[(first[draw] == position) & ~blocked[draw]][:count]
        blocked[picked] = True
        chosen.append(picked)
        count -= picked.size
    return np.concatenate(chosen)


def leave_one_out_split(store: InteractionStore, num_negatives: int = 999,
                        seed: int = 0) -> tuple[InteractionStore, list[EvalCase]]:
    """Hold out each user's most recent explicitly interacted item.

    All events between the user and that item leave the training view; users
    without explicit events contribute training data only. Negatives are
    drawn per user from items the user never interacted with in either
    matrix (seeded and order-independent). If fewer than ``num_negatives``
    items are eligible, all of them are used.
    """
    explicit_rows = np.flatnonzero(store.explicit)
    owners = _row_ids(store.offsets)[explicit_rows]
    # rows are sorted by user: a user's last explicit row is the one before its owner changes
    is_last = np.diff(owners, append=-1) != 0
    users, lasts = owners[is_last], explicit_rows[is_last]
    cases: list[EvalCase] = []
    for u, last in zip(users.tolist(), lasts.tolist()):
        gt = int(store.items[last])
        before = store.items[store.offsets[u]:last]
        # the user's own events (the held-out item among them) and held-out items
        rng = np.random.default_rng([seed, u])
        negatives = sample_unobserved(store.num_items, store.observed_items(u), num_negatives, rng)
        cases.append(EvalCase(user=u, item=gt, negatives=negatives, history=before[before != gt]))
    train = store.without_pairs(users, store.items[lasts])
    return train, cases


# ---------------------------------------------------------------------------
# prepared-dataset cache
# ---------------------------------------------------------------------------


@dataclass
class PreparedDataset:
    store: InteractionStore           # training view
    cases: list[EvalCase]
    side_info: Optional[SideInfo]
    meta: dict = field(default_factory=dict)


def _flatten(ragged: Iterable[np.ndarray], dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    parts = [np.asarray(part, dtype=dtype) for part in ragged]
    offsets = np.cumsum([0, *(part.size for part in parts)], dtype=np.int64)
    flat = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
    return flat, offsets


# a dataset file's CSR records: offsets record -> (the records it splits into
# rows, what those rows are)
_DATASET_ROWS = {
    "event_offsets": (("event_items", "event_explicit"), "users"),
    "case_neg_offsets": (("case_neg_flat",), "cases"),
}
_SIDE_ROWS = {
    "side_item_offsets": (("side_item_flat",), "items"),
    "side_user_offsets": (("side_user_idx", "side_user_val"), "users"),
}
# records of ids -> what they index (an event's explicit flag is 0 or 1)
_ID_RECORDS = {
    "event_items": "items", "event_explicit": "flags", "case_users": "users", "case_items": "items",
    "case_neg_flat": "items", "side_item_flat": "labels", "side_user_idx": "labels",
}


def _check_dataset(path: str, config: dict, arrays: dict[str, np.ndarray]) -> None:
    """Raise a one-line FormatError unless the records of a dataset file fit
    together: every record present (the side records all or none), 1-D and
    of its dtype, offsets that start at 0, never decrease, end at their flat
    records' length and have one row per user, item or case, ids inside
    their range, one history length per case between 0 and its user's event
    count; config ``user_ids``, ``item_ids`` and ``labels`` lists of
    strings and a ``meta`` object."""
    missing = [key for key in ("user_ids", "item_ids", "labels", "meta") if key not in config]
    if missing:
        raise FormatError(f"{path}: missing config key(s) {', '.join(missing)}")
    for key in ("user_ids", "item_ids", "labels"):
        ids = config[key]
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise FormatError(f"{path}: config key {key!r} must be a list of strings")
    if not isinstance(config["meta"], dict):
        raise FormatError(f"{path}: config key 'meta' must be an object")
    layout = dict(_DATASET_ROWS, **(_SIDE_ROWS if any(name.startswith("side_") for name in arrays) else {}))
    names = ["case_users", "case_items", "case_history_len",
             *(n for off, (flat, _) in layout.items() for n in (off, *flat))]
    missing = [name for name in names if name not in arrays]
    if missing:
        raise FormatError(f"{path}: missing record(s) {', '.join(missing)}")
    counts = {"users": len(config["user_ids"]), "items": len(config["item_ids"]),
              "labels": len(config["labels"]), "cases": arrays["case_users"].size, "flags": 2}
    for name in names:
        arr, kind = arrays[name], _ID_RECORDS.get(name)
        want = np.dtype(np.float64 if name == "side_user_val" else np.int64)
        if arr.ndim != 1 or arr.dtype != want:
            problem = f"is {arr.dtype} of shape {arr.shape}, not a 1-D {want} array"
        elif kind and arr.size and (arr.min() < 0 or arr.max() >= counts[kind]):
            problem = f"holds ids outside [0, {counts[kind]}) {kind}"
        elif name in ("case_items", "case_history_len") and arr.size != counts["cases"]:
            problem = f"has {arr.size} entries for {counts['cases']} case users"
        else:
            continue
        raise FormatError(f"{path}: record {name!r} {problem}")
    for name, (flat, rows) in layout.items():
        offsets = arrays[name]
        if offsets.size != counts[rows] + 1:
            problem = f"has {offsets.size} entries for {counts[rows]} {rows}"
        elif offsets[0] != 0:
            problem = f"starts at {offsets[0]}, not 0"
        elif np.any(offsets[1:] < offsets[:-1]):
            problem = "decreases"
        else:
            short = [f for f in flat if arrays[f].size != offsets[-1]]
            if not short:
                continue
            problem = f"ends at {offsets[-1]} but {short[0]!r} holds {arrays[short[0]].size} values"
        raise FormatError(f"{path}: record {name!r} {problem}")
    lengths, events = arrays["case_history_len"], np.diff(arrays["event_offsets"])[arrays["case_users"]]
    bad = np.flatnonzero((lengths < 0) | (lengths > events))
    if bad.size:
        raise FormatError(f"{path}: record 'case_history_len' holds {lengths[bad[0]]} for case {bad[0]}, "
                          f"whose user has {events[bad[0]]} events")


def save_prepared(path: str, prepared: PreparedDataset) -> None:
    """Write a split as ``leave_one_out_split`` returns it, or raise DataError:
    its store must hold out exactly the cases' (user, item) pairs, and each
    case's history must be the first events of its user's training row, as
    the file keeps the pairs once, as the cases, and a history as its length."""
    store, cases, side = prepared.store, prepared.cases, prepared.side_info
    users = np.array([c.user for c in cases], dtype=np.int64)
    items = np.array([c.item for c in cases], dtype=np.int64)
    history, starts = _flatten([c.history for c in cases])
    lengths = np.diff(starts)
    at = np.arange(history.size) + np.repeat(store.offsets[users] - starts[:-1], lengths)
    if (not np.array_equal(store.held_keys, np.unique(store.pair_key(users, items)))
            or np.any(lengths > np.diff(store.offsets)[users]) or not np.array_equal(store.items[at], history)):
        raise DataError(f"cannot save {path}: it is not a split as leave_one_out_split returns it")
    config = {"user_ids": store.user_ids, "item_ids": store.item_ids,
              "labels": side.labels if side else [], "meta": prepared.meta}
    arrays = {"event_offsets": store.offsets, "event_items": store.items,
              "event_explicit": store.explicit.astype(np.int64),
              "case_users": users, "case_items": items, "case_history_len": lengths}
    arrays["case_neg_flat"], arrays["case_neg_offsets"] = _flatten([c.negatives for c in cases])
    if side is not None:
        arrays["side_item_flat"], arrays["side_item_offsets"] = side.item_categories, side.item_offsets
        arrays["side_user_idx"], arrays["side_user_offsets"] = side.user_categories, side.user_offsets
        arrays["side_user_val"] = side.user_weights
    container.write_container(path, "dataset", config, arrays)


def load_prepared(path: str) -> PreparedDataset:
    """The split ``save_prepared`` wrote: the store holds the cases' pairs
    out, and each case's history is a view of its user's first events."""
    config, arrays = container.read_container(path, "dataset")
    _check_dataset(path, config, arrays)
    users, items = arrays["case_users"], arrays["case_items"]
    store = InteractionStore(config["user_ids"], config["item_ids"], arrays["event_offsets"],
                             arrays["event_items"], arrays["event_explicit"], (users, items))
    negatives = np.split(arrays["case_neg_flat"], arrays["case_neg_offsets"][1:-1])
    cases = [EvalCase(int(u), int(i), neg, store.items[start:start + h]) for u, i, neg, start, h in
             zip(users, items, negatives, store.offsets[users], arrays["case_history_len"])]
    side = None
    if "side_item_flat" in arrays:
        side = SideInfo(config["labels"], arrays["side_item_offsets"], arrays["side_item_flat"],
                        arrays["side_user_offsets"], arrays["side_user_idx"], arrays["side_user_val"])
    return PreparedDataset(store, cases, side, config["meta"])
