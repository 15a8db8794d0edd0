"""Command-line pipeline: prepare raw logs, train a variant, evaluate a
checkpoint.

Run configs are INI files with [run]/[data]/[model]/[training] sections whose
keys are the fields of ``RunConfig``, ``ModelConfig`` and ``TrainingConfig``;
unknown keys and the keys the program derives itself are rejected. Every key
has a default matching the published settings (lr 0.001, implicit weight 0.5,
9 negatives per positive, 2 transformer layers with 2 heads, 20-item
sequences, batch 512 for sequence models and 2048 otherwise).
The effective merged config is written next to the outputs so a run can be
reproduced byte-for-byte from its own artifacts.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from . import container, data, evaluation, training
from .models import VARIANTS, ModelConfig, build_model
from .tensor import ConfigError

DEFAULT_EVAL_NEGATIVES = 999
CSV_HEADER = ["epoch", "K", "HR", "NDCG", "loss", "seconds"]

# glibc's mallopt parameters (malloc.h) and the values the command line sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD_BYTES = 256 << 20
MMAP_THRESHOLD_BYTES = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)  # glibc's cap


@dataclass
class RunConfig:
    variant: str = "ite"
    seed: int = 42
    out: str = "runs/run"
    eval_topk: int = 10
    prepared: str = ""
    model: ModelConfig = field(default_factory=ModelConfig)
    training: training.TrainingConfig = field(default_factory=training.TrainingConfig)


def keep_freed_memory() -> bool:
    """Keep freed heap memory mapped for the rest of the process, on glibc.

    By default glibc hands the free top of the heap back to the kernel once
    it exceeds a trim threshold, and serves blocks above an mmap threshold
    with their own mappings; both thresholds follow the largest block freed
    so far. Evaluation frees a few MB of activations after every candidate
    chunk, so each chunk would fault its pages in afresh. This sets the mmap
    threshold to glibc's cap and the trim threshold to 256 MiB: freed blocks
    stay in the heap for the next chunk, and each heap may keep up to
    256 MiB of freed memory at its top. Setting either one turns the moving
    thresholds off, so both are set. Returns whether they were; where
    ``mallopt`` is missing or refuses the mmap threshold, nothing changes.
    """
    if os.name != "posix":
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


def _needs_side(variant: str) -> bool:
    return VARIANTS[variant][1] != "none"


# Config fields the program sets itself, never read from or written to an INI
# file: key -> where its value comes from.
DERIVED_KEYS = {
    "model": {"side_info_mode": "the variant", "side_dim": "the dataset's category count"},
    "training": {"seed": "[run] seed"},
}


def _ini_sections(cfg: RunConfig) -> dict[str, tuple[object, list[str]]]:
    """INI section -> (the object its keys set, those keys in file order)."""
    run = [f.name for f in fields(RunConfig) if f.name not in ("prepared", "model", "training")]
    sections = {"run": (cfg, run), "data": (cfg, ["prepared"])}
    for name, derived in DERIVED_KEYS.items():
        obj = getattr(cfg, name)
        sections[name] = (obj, [f.name for f in fields(obj) if f.name not in derived])
    return sections


def load_run_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise OSError(f"cannot read config file {path!r}")
    cfg = RunConfig()
    sections = _ini_sections(cfg)
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]; expected {list(sections)}")
        obj, keys = sections[section]
        for key, raw in parser.items(section):
            source = DERIVED_KEYS.get(section, {}).get(key)
            if source is not None:
                raise ConfigError(f"{path}: [{section}] {key} is set from {source}; remove it")
            if key not in keys:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
            kind = type(getattr(obj, key))
            try:
                setattr(obj, key, kind(raw))
            except ValueError:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not "
                                  f"a valid {kind.__name__}") from None
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {cfg.variant!r}; expected one of {sorted(VARIANTS)}")
    if not parser.has_option("training", "batch_size"):
        cfg.training.batch_size = 512 if VARIANTS[cfg.variant][0] == "bert" else 2048
    cfg.training.seed = cfg.seed
    return cfg


def write_run_config(path: Path, cfg: RunConfig) -> None:
    parser = configparser.ConfigParser()
    for section, (obj, keys) in _ini_sections(cfg).items():
        parser[section] = {key: str(getattr(obj, key)) for key in keys}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def _parse_event_map(text: Optional[str]) -> Optional[dict]:
    if not text:
        return None
    mapping = {}
    for pair in text.split(","):
        if "=" not in pair:
            raise ConfigError(f"bad event-map entry {pair!r}; expected type=implicit|explicit")
        event, kind = pair.split("=", 1)
        if kind not in (data.IMPLICIT, data.EXPLICIT):
            raise ConfigError(f"event {event!r} mapped to {kind!r}; expected implicit or explicit")
        mapping[event.strip()] = kind
    return mapping


def _check_at_least_one(value: int, name: str) -> None:
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def _check_non_negative(value: Optional[int], name: str) -> None:
    """Seeds and counts; None means the option was not given."""
    if value is not None and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")


def cmd_prepare(args: argparse.Namespace) -> int:
    _check_non_negative(args.eval_negatives, "--eval-negatives")
    _check_non_negative(args.seed, "--seed")
    _check_non_negative(args.min_interactions, "--min-interactions")
    if args.categories == []:
        raise ConfigError("--categories needs at least one file name")
    if len(args.delimiter) != 1:
        raise ConfigError(f"--delimiter must be one character, got {args.delimiter!r}")
    columns = data.ColumnSpec(timestamp=args.column_timestamp, user=args.column_user,
                              event=args.column_event, item=args.column_item)
    store = data.ingest(args.events, classification=_parse_event_map(args.event_map),
                        min_interactions=args.min_interactions, columns=columns,
                        delimiter=args.delimiter)
    train_store, cases = data.leave_one_out_split(store, num_negatives=args.eval_negatives,
                                                  seed=args.seed)
    side = None
    if args.categories:
        if args.categories_format == "retailrocket-properties":
            mapping = data.read_retailrocket_properties(args.categories)
            side = data.build_side_info(train_store, mapping=mapping)
        else:
            if len(args.categories) != 1:
                raise ConfigError("pairs format takes exactly one category file")
            side = data.build_side_info(train_store, category_path=args.categories[0],
                                        delimiter=args.delimiter)
    stats = store.stats(labels=side.num_categories if side else 0)
    for line in stats.lines():
        print(line)
    print(f"eval cases {len(cases)}")
    if args.out:
        prepared = data.PreparedDataset(train_store, cases, side, stats,
                                        meta={"seed": args.seed,
                                              "eval_negatives": args.eval_negatives,
                                              "min_interactions": args.min_interactions})
        data.save_prepared(args.out, prepared)
        print(f"wrote {args.out}")
    return 0


def _open_metrics_csv(path: Path):
    fh = open(path, "w", newline="", encoding="utf-8")
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    return fh, writer


def cmd_train(args: argparse.Namespace) -> int:
    _check_non_negative(args.seed, "--seed")
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.training.seed = args.seed
    _check_non_negative(cfg.seed, "[run] seed")
    if args.out is not None:
        cfg.out = args.out
    if not cfg.prepared:
        raise ConfigError("config is missing [data] prepared = <path>")
    _check_at_least_one(cfg.eval_topk, "[run] eval_topk")
    _check_at_least_one(args.workers, "--workers")
    cfg.training.validate()
    prepared = data.load_prepared(cfg.prepared)
    if _needs_side(cfg.variant):
        if prepared.side_info is None:
            raise ConfigError(
                f"variant {cfg.variant!r} needs side information but {cfg.prepared!r} "
                "was prepared without a category file")
        cfg.model = replace(cfg.model, side_dim=prepared.side_info.num_categories)
    model = build_model(cfg.variant, prepared.store.num_users, prepared.store.num_items,
                        cfg.model, seed=cfg.seed)

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_config(out_dir / "config.ini", cfg)
    csv_fh, csv_writer = _open_metrics_csv(out_dir / "metrics.csv")
    jsonl_fh = open(out_dir / "epochs.jsonl", "w", encoding="utf-8")

    def on_epoch(record: dict) -> None:
        row = dict(record)
        seconds = row.pop("seconds", None)
        if not args.no_timestamps and seconds is not None:
            row["seconds"] = round(seconds, 3)
        jsonl_fh.write(json.dumps(row, sort_keys=True) + "\n")
        jsonl_fh.flush()
        hr = record.get("hr")
        ndcg = record.get("ndcg")
        csv_writer.writerow([record["epoch"], cfg.eval_topk,
                             "" if hr is None else repr(hr),
                             "" if ndcg is None else repr(ndcg),
                             repr(record["mean_loss"]),
                             "" if args.no_timestamps else f"{seconds:.3f}"])
        csv_fh.flush()
        status = f" hr@{cfg.eval_topk}={hr:.4f} ndcg@{cfg.eval_topk}={record['ndcg']:.4f}" if hr is not None else ""
        print(f"epoch {record['epoch']}: loss={record['mean_loss']:.5f}{status}")

    try:
        result = training.fit(model, prepared.store, cfg.training, cases=prepared.cases,
                              side_info=prepared.side_info if _needs_side(cfg.variant) else None,
                              eval_topk=cfg.eval_topk, workers=args.workers, on_epoch=on_epoch)
    finally:
        csv_fh.close()
        jsonl_fh.close()

    model.params.load_arrays(result.best_params)
    ckpt = out_dir / "model.ckpt"
    container.save_checkpoint(str(ckpt), model, cfg.variant,
                              meta={"epoch": result.best_epoch, "hr": result.best_hr,
                                    "ndcg": result.best_ndcg, "eval_topk": cfg.eval_topk,
                                    "seed": cfg.seed})
    print(f"best epoch {result.best_epoch}: hr@{cfg.eval_topk}={result.best_hr:.4f} "
          f"ndcg@{cfg.eval_topk}={result.best_ndcg:.4f}")
    print(f"wrote {ckpt}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_at_least_one(args.topk, "--topk")
    _check_at_least_one(args.workers, "--workers")
    _check_non_negative(args.seed, "--seed")
    model, variant, meta = container.load_checkpoint(args.checkpoint)
    prepared = data.load_prepared(args.dataset)
    side = None
    if _needs_side(variant):
        if prepared.side_info is None:
            raise ConfigError(f"checkpoint variant {variant!r} needs a dataset with side info")
        if prepared.side_info.num_categories != model.config.side_dim:
            raise ConfigError(
                f"checkpoint expects {model.config.side_dim} categories, dataset has "
                f"{prepared.side_info.num_categories}")
        side = prepared.side_info
    seed = args.seed if args.seed is not None else int(meta.get("seed", 0))
    started = time.perf_counter()
    ks = list(range(1, 21)) if args.topk_sweep else [args.topk]
    rows = evaluation.topk_sweep(model, prepared.cases, store=prepared.store, side_info=side,
                                 ks=ks, seed=seed, workers=args.workers)
    seconds = time.perf_counter() - started
    for k, hr, ndcg in rows:
        if k == args.topk or args.topk_sweep:
            print(f"K={k} HR={hr:.6f} NDCG={ndcg:.6f}")
    if args.out:
        fh, writer = _open_metrics_csv(Path(args.out))
        with fh:
            for k, hr, ndcg in rows:
                writer.writerow([meta.get("epoch", 0), k, repr(hr), repr(ndcg), "",
                                 "" if args.no_timestamps else f"{seconds:.3f}"])
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feedrank",
                                     description="multi-behaviour recommender pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest an event log and write a prepared dataset")
    p.add_argument("--events", required=True, help="event log CSV")
    p.add_argument("--categories", nargs="*", default=None,
                   help="item category file(s); format set by --categories-format")
    p.add_argument("--categories-format", choices=["pairs", "retailrocket-properties"],
                   default="pairs")
    p.add_argument("--out", default=None, help="prepared dataset output path")
    p.add_argument("--min-interactions", type=int, default=5)
    p.add_argument("--eval-negatives", type=int, default=DEFAULT_EVAL_NEGATIVES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--event-map", default=None,
                   help="comma-separated type=implicit|explicit overrides")
    p.add_argument("--column-timestamp", default="timestamp")
    p.add_argument("--column-user", default="visitorid")
    p.add_argument("--column-event", default="event")
    p.add_argument("--column-item", default="itemid")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model per an INI run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timestamps", action="store_true",
                   help="omit wall-clock fields so reruns are byte-identical")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank held-out items with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="prepared dataset file")
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--topk-sweep", action="store_true", help="emit metrics for K in 1..20")
    p.add_argument("--out", default=None, help="metrics CSV output path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timestamps", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_memory()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
