"""Binary container for checkpoints and prepared datasets.

Layout (all integers little-endian):

    header             HEADERS[kind]: b"FEEDRANK <kind> <format number>\n"
    config_len         uint32
    config             JSON, UTF-8
    repeated records:
        name_len       uint32
        name           UTF-8
        dtype tag      uint8 (0 = float32, 1 = float64, 2 = int64)
        rank           uint32
        extents        uint32 * rank
        data           raw row-major little-endian values

Model checkpoints store every parameter as float32; the dataset cache uses
the integer/double tags for event lists and side-info weights. Writes are
deterministic, so save -> load -> save round-trips byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import secrets
import struct
from contextlib import contextmanager
from typing import IO, Iterator

import numpy as np

# kind -> (format number, the command that writes it); a change to a kind's
# records or config keys bumps its number
FORMATS = {"dataset": (3, "prepare"), "checkpoint": (2, "train")}
HEADERS = {kind: f"FEEDRANK {kind} {number}\n".encode("ascii") for kind, (number, _) in FORMATS.items()}

_TAG_BY_DTYPE = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<i8"): 2}
_DTYPE_BY_TAG = {tag: dt for dt, tag in _TAG_BY_DTYPE.items()}


class FormatError(ValueError):
    """The file is not a valid container of its kind (another header, truncation, a bad record)."""


@contextmanager
def atomic_write(path, mode: str = "xb", **open_args) -> Iterator[IO]:
    """Yield a new temporary file beside ``path``, opened with ``mode`` (an
    exclusive-create mode) and ``open_args``; when the block ends cleanly,
    rename it onto ``path``. A failed or interrupted write removes it and
    leaves any old file as it was. There is no fsync, so this guards
    against a process crash, not against power loss."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, mode, **open_args)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_container(path: str, kind: str, config: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a container of ``kind`` through ``atomic_write``."""
    with atomic_write(path) as fh:
        fh.write(HEADERS[kind])
        blob = json.dumps(config, separators=(",", ":")).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            dt = arr.dtype.newbyteorder("<")
            if dt not in _TAG_BY_DTYPE:
                raise FormatError(f"record {name!r}: unsupported dtype {arr.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BI", _TAG_BY_DTYPE[dt], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(dt, copy=False).tobytes())


def read_container(path: str, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The config and records of a container of ``kind``; another header is a one-line FormatError."""
    with open(path, "rb") as fh:
        line = fh.readline(64)
        if line != HEADERS[kind]:
            found = re.fullmatch(rb"FEEDRANK (\w+) (\d+)\n", line)
            if found:
                held = b" format ".join(found.groups()).decode("ascii")
            elif line.startswith(b"FEEDRANK1"):
                held = "an unnumbered FEEDRANK1 file"
            else:
                held = "not a feedrank file"
            number, command = FORMATS[kind]
            raise FormatError(f"{path} is {held}; this feedrank reads {kind} format {number}: "
                              f"re-run feedrank {command}")
        size = os.fstat(fh.fileno()).st_size

        def read(count: int, what: str) -> bytes:
            # checked before reading, so a corrupt length never becomes a huge allocation
            if count > size - fh.tell():
                raise FormatError(f"{path}: truncated container while reading {what}: "
                                  f"{count} bytes declared, {size - fh.tell()} left")
            return fh.read(count)

        (config_len,) = struct.unpack("<I", read(4, "config length"))
        try:
            config = json.loads(read(config_len, "config").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt config record") from exc
        if not isinstance(config, dict):
            raise FormatError(f"{path}: corrupt config record (not a JSON object)")
        arrays: dict[str, np.ndarray] = {}
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", read(4, "record header"))
            try:
                name = read(name_len, "record name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: corrupt record name") from exc
            if name in arrays:
                raise FormatError(f"{path}: duplicate record {name!r}")
            tag, rank = struct.unpack("<BI", read(5, f"record {name!r} header"))
            if tag not in _DTYPE_BY_TAG:
                raise FormatError(f"{path}: record {name!r}: unknown dtype tag {tag}")
            shape = struct.unpack(f"<{rank}I", read(4 * rank, f"record {name!r} extents"))
            dt = _DTYPE_BY_TAG[tag]
            raw = read(math.prod(shape) * dt.itemsize, f"record {name!r} data")
            try:
                arrays[name] = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
            except ValueError:  # an empty record whose other extents overflow numpy's size
                raise FormatError(f"{path}: record {name!r}: extents {list(shape)} "
                                  "are too large for an array") from None
    return config, arrays


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, model, meta: dict | None = None) -> None:
    """Write a model's variant, build config and parameters (as float32)."""
    config = {
        "variant": model.variant,
        "num_users": model.num_users,
        "num_items": model.num_items,
        "model": dataclasses.asdict(model.config),
        "meta": meta or {},
    }
    arrays = {name: arr.astype("<f4") for name, arr in model.params.state_arrays().items()}
    write_container(path, "checkpoint", config, arrays)


def load_checkpoint(path: str):
    """Rebuild the model a checkpoint describes and load its parameters.

    Returns (model, variant, meta).
    """
    from .models import VARIANTS, ModelConfig, build_model

    config, arrays = read_container(path, "checkpoint")
    _check_checkpoint(path, config, ModelConfig, VARIANTS)
    model = build_model(config["variant"], config["num_users"], config["num_items"],
                        ModelConfig(**config["model"]), seed=0)
    model.params.load_arrays(arrays)
    return model, config["variant"], config["meta"]


# what a checkpoint's ``model`` record may hold for a field of each declared
# type (by name: ModelConfig's module postpones its annotations)
_FIELD_KINDS = {"int": (int, "an int"), "float": ((int, float), "a number")}


def _check_checkpoint(path: str, config: dict, model_config: type, variants: dict) -> None:
    """Raise a one-line FormatError unless the config record holds a string
    ``variant``, ``num_users`` and ``num_items`` as ints >= 0, a ``meta``
    object whose ``seed``, if present, is a non-bool int >= 0, and a
    ``model`` object with exactly the fields of ``model_config`` (a
    dataclass), each of its field's type: a non-bool int for an int, an int
    or float for a float. For a variant named in ``variants`` (variant ->
    (kind, side mode)) whose side mode is "none", ``side_dim`` must be 0."""
    if not isinstance(config.get("variant"), str):
        raise FormatError(f"{path}: config key 'variant' must be a string")
    for key in ("num_users", "num_items"):
        value = config.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise FormatError(f"{path}: config key {key!r} is {value!r}, not an int >= 0")
    for key in ("model", "meta"):
        if not isinstance(config.get(key), dict):
            raise FormatError(f"{path}: config key {key!r} must be an object")
    seed = config["meta"].get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise FormatError(f"{path}: config key 'meta.seed' is {seed!r}, not an int >= 0")
    record = config["model"]
    fields = dataclasses.fields(model_config)
    unknown = [key for key in record if key not in {f.name for f in fields}]
    if unknown:
        raise FormatError(f"{path}: config key 'model' holds unknown keys {', '.join(map(repr, unknown))}")
    for f in fields:
        if f.name not in record:
            raise FormatError(f"{path}: config key 'model.{f.name}' is missing")
        value, (kind, what) = record[f.name], _FIELD_KINDS[f.type]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise FormatError(f"{path}: config key 'model.{f.name}' is {value!r}, not {what}")
    variant, side_dim = config["variant"], record["side_dim"]
    if variant in variants and variants[variant][1] == "none" and side_dim != 0:
        raise FormatError(f"{path}: config key 'model.side_dim' is {side_dim!r}, "
                          f"not 0 as variant {variant!r} reads no side info")
