"""Seeded synthetic event logs for the benchmark.

Writes the two CSV files ``feedrank prepare`` reads: an event log
(``timestamp,visitorid,event,itemid``) and item-category pairs
(``itemid,categoryid``). The log has the properties the benchmark's
workloads depend on:

* item popularity follows a power law, so sampled negatives and the
  held-out items are skewed the way real catalogs are;
* per-user activity straddles the session length (20), so both the
  padding and the truncation paths of the session-context builder run;
* each user prefers one item group, with a share of cross-group noise
  events, so a model learns something but does not saturate HR@10;
* there are hundreds of categories, with one to three per item, most of
  them drawn from the item's group.

The same ``LogSpec`` and seed always give byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np


GROUPS = 20                  # item groups a user prefers one of
CATEGORIES = 300
EVENTS_SIGMA = 0.6           # spread of events per user (lognormal)
MIN_EVENTS = 6
MAX_EVENTS = 80
NOISE = 0.3                  # share of events drawn from the whole catalog
POPULARITY_EXPONENT = 0.8
EXPLICIT_RATE = 0.25         # share of implicit events followed by an explicit one
CROSS_CATEGORY_RATE = 0.15


@dataclass(frozen=True)
class LogSpec:
    users: int = 400
    items: int = 1600
    median_events: float = 18.0      # median events per user


def _zipf_weights(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    ranks = rng.permutation(n) + 1.0
    weights = ranks ** -exponent
    return weights / weights.sum()


def write_log(out_dir: Path, spec: LogSpec, seed: int) -> tuple[Path, Path]:
    """Write ``events.csv`` and ``categories.csv`` under ``out_dir``."""
    rng = np.random.default_rng([seed, 0x10c5])
    item_group = rng.integers(0, GROUPS, size=spec.items)
    popularity = _zipf_weights(rng, spec.items, POPULARITY_EXPONENT)
    group_items = [np.flatnonzero(item_group == g) for g in range(GROUPS)]
    group_weights = [popularity[idx] / popularity[idx].sum() for idx in group_items]

    # Activity lengths are evenly spaced quantiles of a lognormal, dealt to
    # users at random: every seed gets the same total work, so runs on
    # different seeds differ in which users and items, not in how much.
    normal = NormalDist()
    quantiles = [normal.inv_cdf((i + 0.5) / spec.users) for i in range(spec.users)]
    lengths = [int(np.clip(round(spec.median_events * np.exp(EVENTS_SIGMA * z)), MIN_EVENTS, MAX_EVENTS))
               for z in quantiles]
    sessions = []
    for length in rng.permutation(lengths):
        group = int(rng.integers(0, GROUPS))
        noisy = rng.random(length) < NOISE
        own = rng.choice(group_items[group], size=length, p=group_weights[group])
        anywhere = rng.choice(spec.items, size=length, p=popularity)
        picks = np.where(noisy, anywhere, own)
        explicit = np.zeros(length, dtype=bool)
        explicit[rng.choice(length - 1, size=max(0, round(EXPLICIT_RATE * length) - 1),
                            replace=False)] = True
        explicit[-1] = True                      # every user has a held-out case
        sessions.append((picks, explicit))

    # Every catalog item gets at least one view, so that evaluation can draw
    # its full 999 negatives: the prepared store only knows items in the log.
    unseen = np.setdiff1d(np.arange(spec.items), np.concatenate([s[0] for s in sessions]))
    for item in unseen:
        u = int(rng.integers(0, spec.users))
        picks, explicit = sessions[u]
        at = int(rng.integers(0, picks.size))    # never after the held-out last event
        sessions[u] = (np.insert(picks, at, item), np.insert(explicit, at, False))

    rows: list[tuple] = []
    t = 1_000_000
    for u, (picks, explicit) in enumerate(sessions):
        gaps = rng.integers(1, 600, size=2 * picks.size)
        for j, item in enumerate(picks):
            t += int(gaps[2 * j])
            rows.append((t, f"u{u}", "view", f"i{item}"))
            if explicit[j]:
                t += int(gaps[2 * j + 1])
                kind = "transaction" if gaps[2 * j + 1] % 4 == 0 else "addtocart"
                rows.append((t, f"u{u}", kind, f"i{item}"))

    per_group = max(1, CATEGORIES // GROUPS)
    pairs: list[tuple] = []
    for item in range(spec.items):
        count = int(rng.integers(1, 4))
        base = int(item_group[item]) * per_group
        cats = set()
        while len(cats) < count:
            if rng.random() < CROSS_CATEGORY_RATE:
                cats.add(int(rng.integers(0, CATEGORIES)))
            else:
                cats.add(base + int(rng.integers(0, per_group)))
        pairs.extend((f"i{item}", f"c{c}") for c in sorted(cats))

    out_dir.mkdir(parents=True, exist_ok=True)
    events = out_dir / "events.csv"
    cats_path = out_dir / "categories.csv"
    with open(events, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("timestamp", "visitorid", "event", "itemid"))
        writer.writerows(rows)
    with open(cats_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("itemid", "categoryid"))
        writer.writerows(pairs)
    return events, cats_path
