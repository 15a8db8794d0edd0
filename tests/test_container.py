"""Container format round trips and corruption handling."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from feedrank.container import (FORMATS, HEADERS, FormatError, load_checkpoint, read_container,
                                save_checkpoint, write_container)
from feedrank.data import (EvalCase, PreparedDataset, build_side_info, ingest, leave_one_out_split,
                           read_category_pairs, save_prepared)
from feedrank.evaluation import evaluate
from feedrank.models import VARIANTS, ModelConfig, build_model
from feedrank.tensor import ConfigError

from conftest import planted_dataset

HEADER = HEADERS["dataset"]


class TestContainer:
    def arrays(self):
        return {
            "floats": np.arange(6, dtype=np.float32).reshape(2, 3),
            "doubles": np.linspace(0, 1, 4),
            "ints": np.array([[1, 2], [3, 4]], dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64),
        }

    def test_round_trip_values_and_config(self, tmp_path):
        path = tmp_path / "c.bin"
        config = {"name": "test", "nested": {"a": [1, 2, 3]}}
        write_container(str(path), "dataset", config, self.arrays())
        got_config, got_arrays = read_container(str(path), "dataset")
        assert got_config == config
        for name, want in self.arrays().items():
            np.testing.assert_array_equal(got_arrays[name], want)
            assert got_arrays[name].dtype == want.dtype

    def test_save_load_save_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(str(a), "dataset", {"k": 1}, self.arrays())
        config, arrays = read_container(str(a), "dataset")
        write_container(str(b), "dataset", config, arrays)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC!" + b"\x00" * 32)
        with pytest.raises(FormatError, match=r"bad.bin is not a feedrank file; this feedrank reads dataset"):
            read_container(str(path), "dataset")

    @pytest.mark.parametrize("head, held", [
        (b"FEEDRANK1", "an unnumbered FEEDRANK1 file"),
        (b"FEEDRANK dataset 2\n", "dataset format 2"),
        (b"FEEDRANK checkpoint 2\n", "checkpoint format 2"),
        (b"FEEDRANK dataset\n", "not a feedrank file"),
        (b"PK\x03\x04", "not a feedrank file"),
    ])
    def test_another_header_is_named_before_the_config_is_read(self, tmp_path, head, held):
        # the body is not a container at all, so only the header check can raise this
        path = tmp_path / "other.bin"
        path.write_bytes(head + b"\xff" * 8)
        with pytest.raises(FormatError) as raised:
            read_container(str(path), "dataset")
        assert str(raised.value) == (f"{path} is {held}; this feedrank reads dataset format "
                                     f"{FORMATS['dataset'][0]}: re-run feedrank prepare")

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_container(str(path), "dataset", {"k": 1}, self.arrays())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(FormatError, match="truncated"):
            read_container(str(path), "dataset")

    def test_corrupt_config_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        payload = b"\xff\xfejunk"
        path.write_bytes(HEADER + len(payload).to_bytes(4, "little") + payload)
        with pytest.raises(FormatError, match="corrupt config"):
            read_container(str(path), "dataset")

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="unsupported dtype"):
            write_container(str(tmp_path / "x.bin"), "dataset", {}, {"bad": np.zeros(2, dtype=np.int16)})

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_at=st.integers(0, 4))
    def test_failed_write_keeps_old_file(self, tmp_path, bad_at):
        # the write fails after ``bad_at`` good records reached the file
        path = tmp_path / "keep.bin"
        write_container(str(path), "dataset", {"k": 1}, self.arrays())
        before = path.read_bytes()
        arrays = list(self.arrays().items())
        arrays.insert(bad_at, ("bad", np.zeros(2, dtype=np.int16)))
        with pytest.raises(FormatError, match="unsupported dtype"):
            write_container(str(path), "dataset", {"k": 2}, dict(arrays))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["keep.bin"]

    def test_huge_declared_extents_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.bin"
        header = struct.pack("<I", 1) + b"x" + struct.pack("<BI", 0, 3) + struct.pack("<3I", *[2**32 - 1] * 3)
        path.write_bytes(HEADER + struct.pack("<I", 2) + b"{}" + header + b"\0" * 16)
        with pytest.raises(FormatError, match="record 'x' data: .* bytes declared, 16 left"):
            read_container(str(path), "dataset")

    def test_empty_record_with_huge_extents_rejected(self, tmp_path):
        # 0 bytes of data, but 0 x (2^32 - 1) x (2^32 - 1) is no numpy shape
        path = tmp_path / "empty.bin"
        header = struct.pack("<I", 1) + b"x" + struct.pack("<BI", 0, 3) + struct.pack("<3I", 0, *[2**32 - 1] * 2)
        path.write_bytes(HEADER + struct.pack("<I", 2) + b"{}" + header)
        with pytest.raises(FormatError, match="record 'x': extents .* too large"):
            read_container(str(path), "dataset")

    def test_huge_declared_name_and_config_lengths_rejected(self, tmp_path):
        path = tmp_path / "name.bin"
        path.write_bytes(HEADER + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 2**32 - 1) + b"ab")
        with pytest.raises(FormatError, match="record name"):
            read_container(str(path), "dataset")
        path.write_bytes(HEADER + struct.pack("<I", 2**32 - 1) + b"{}")
        with pytest.raises(FormatError, match="config"):
            read_container(str(path), "dataset")

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.bin"
        write_container(str(path), "dataset", {}, {"a": np.arange(3)})
        blob = path.read_bytes()
        record = blob[len(HEADER) + 4 + 2:]
        path.write_bytes(blob + record)
        with pytest.raises(FormatError, match="duplicate record 'a'"):
            read_container(str(path), "dataset")

    @pytest.mark.parametrize("payload", [b"[1, 2]", b"3", b"null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, payload):
        path = tmp_path / "c.bin"
        path.write_bytes(HEADER + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(FormatError, match="not a JSON object"):
            read_container(str(path), "dataset")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_overwritten_header_parses_or_raises_format_error(self, tmp_path, data):
        path = tmp_path / "h.bin"
        config = {"name": "test", "n": 12}
        write_container(str(path), "dataset", config, self.arrays())
        blob = bytearray(path.read_bytes())
        # every byte that is not array data: header, config, record headers
        header = list(range(len(HEADER) + 4 + len(json.dumps(config, separators=(",", ":")))))
        pos = len(header)
        for name, arr in self.arrays().items():
            size = 4 + len(name) + 5 + 4 * arr.ndim
            header += range(pos, pos + size)
            pos += size + arr.nbytes
        assert pos == len(blob)
        start = data.draw(st.sampled_from(header))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        blob[start:start + len(patch)] = patch
        path.write_bytes(bytes(blob[:data.draw(st.integers(start, len(blob)))]))
        try:
            got_config, got_arrays = read_container(str(path), "dataset")
        except FormatError:
            return
        assert isinstance(got_config, dict) and all(isinstance(a, np.ndarray) for a in got_arrays.values())

    def test_overwrite_replaces_old_file(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, "dataset", {"k": 1}, self.arrays())
        write_container(path, "dataset", {"k": 2}, {})
        assert read_container(str(path), "dataset") == ({"k": 2}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


class TestCheckpoint:
    def build(self, seed=0):
        cfg = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1, attention_heads=2)
        return build_model("bert-ite", 6, 9, cfg, seed=seed)

    def test_round_trip_restores_parameters_exactly(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model, meta={"epoch": 3})
        loaded, variant, meta = load_checkpoint(str(path))
        assert variant == "bert-ite"
        assert meta == {"epoch": 3}
        assert asdict(loaded.config) == asdict(model.config)
        for name, arr in model.params.state_arrays().items():
            np.testing.assert_array_equal(loaded.params.state_arrays()[name], arr)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = self.build()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(a), model, meta={"epoch": 1})
        loaded, _, meta = load_checkpoint(str(a))
        save_checkpoint(str(b), loaded, meta=meta)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_checkpoint_evaluates_identically(self, tmp_path):
        events, _ = planted_dataset(tmp_path, num_groups=3, users_per_group=3,
                                    items_per_group=5, explicit_per_user=2)
        train, cases = leave_one_out_split(ingest(str(events)), num_negatives=8, seed=0)
        cfg = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1, attention_heads=2)
        model = build_model("bert-ite", train.num_users, train.num_items, cfg, seed=4)
        before = evaluate(model, cases, store=train, k=5, seed=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        loaded, _, _ = load_checkpoint(str(path))
        after = evaluate(loaded, cases, store=train, k=5, seed=2)
        assert before == after

    def test_record_naming_no_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), self.build())
        config, arrays = read_container(str(path), "checkpoint")
        write_container(str(path), "checkpoint", config, {**arrays, "trm9.stray": np.zeros(2, dtype=np.float32)})
        with pytest.raises(ConfigError, match="names no parameter.*'trm9.stray'"):
            load_checkpoint(str(path))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        write_container(str(path), "dataset", {}, {})
        with pytest.raises(FormatError, match=r"d.bin is dataset format \d+; this feedrank reads checkpoint"):
            load_checkpoint(str(path))


def layout(text):
    """[(name, dtype, rank)] from "name dtype rank" lines; blank lines are skipped."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    return [(name, np.dtype(dtype).str, int(rank)) for name, dtype, rank in rows]


# Each kind's layout at its format number: the config keys and every
# record's name, dtype and rank, in the order the writer puts them. A writer
# change that keeps the number fails here: bump the kind's number in
# container.FORMATS and pin the new layout in place of this one.
PINNED_NUMBERS = {"dataset": 3, "checkpoint": 2}
DATASET_KEYS = ["user_ids", "item_ids", "labels", "meta"]
DATASET_RECORDS = layout("""
    event_offsets i8 1
    event_items i8 1
    event_explicit i8 1
    case_users i8 1
    case_items i8 1
    case_history_len i8 1
    case_neg_flat i8 1
    case_neg_offsets i8 1
""")
SIDE_RECORDS = layout("""
    side_item_flat i8 1
    side_item_offsets i8 1
    side_user_idx i8 1
    side_user_offsets i8 1
    side_user_val f8 1
""")
# the model record is ModelConfig's fields; the records are every parameter
# as float32, here for the side variants' "-si" form at CHECKPOINT_CONFIG
CHECKPOINT_KEYS = ["variant", "num_users", "num_items", "model", "meta"]
MODEL_KEYS = ["embedding_dim", "seq_len", "transformer_layers", "attention_heads", "implicit_mlp_layers",
              "explicit_mlp_layers", "dropout", "side_dim"]
CHECKPOINT_CONFIG = ModelConfig(embedding_dim=4, seq_len=3, transformer_layers=1, attention_heads=2)
TOWER_AND_HEAD = """
    explicit_mlp.layer0.weight f4 2
    explicit_mlp.layer0.bias f4 1
    explicit_mlp.layer1.weight f4 2
    explicit_mlp.layer1.bias f4 1
    explicit_mlp.layer2.weight f4 2
    explicit_mlp.layer2.bias f4 1
    explicit_head f4 1
"""
CHECKPOINT_RECORDS = {
    "ite": layout("""
        gmf.user.rows f4 2
        gmf.user.side_projection f4 2
        gmf.item.rows f4 2
        gmf.item.side_projection f4 2
        mlp.user.rows f4 2
        mlp.user.side_projection f4 2
        mlp.item.rows f4 2
        mlp.item.side_projection f4 2
        implicit_mlp.layer0.weight f4 2
        implicit_mlp.layer0.bias f4 1
        implicit_mlp.layer1.weight f4 2
        implicit_mlp.layer1.bias f4 1
        implicit_mlp.layer2.weight f4 2
        implicit_mlp.layer2.bias f4 1
        implicit_head f4 1
    """ + TOWER_AND_HEAD),
    "bert": layout("""
        user.rows f4 2
        user.side_projection f4 2
        item.rows f4 2
        item.side_projection f4 2
        trm0.head0.wq f4 2
        trm0.head1.wq f4 2
        trm0.head0.wk f4 2
        trm0.head1.wk f4 2
        trm0.head0.wv f4 2
        trm0.head1.wv f4 2
        trm0.wo f4 2
        trm0.ffn.w1 f4 2
        trm0.ffn.b1 f4 1
        trm0.ffn.w2 f4 2
        trm0.ffn.b2 f4 1
        trm0.ln1.gain f4 1
        trm0.ln1.bias f4 1
        trm0.ln2.gain f4 1
        trm0.ln2.bias f4 1
        implicit_head f4 1
    """ + TOWER_AND_HEAD),
}
PINNED_VARIANTS = ("ite", "ite-si", "ite-ossi", "bert-ite", "bert-ite-si", "bert-ite-ossi")
# the side projections each side mode keeps (by name suffix)
SIDE_PROJECTIONS = {"none": (), "item_only": ("item.side_projection",),
                    "user_and_item": ("user.side_projection", "item.side_projection")}


class TestFormatLayouts:
    def test_each_kind_has_one_pinned_number_and_every_variant_is_pinned(self):
        assert {kind: number for kind, (number, _) in FORMATS.items()} == PINNED_NUMBERS
        assert sorted(VARIANTS) == sorted(PINNED_VARIANTS)

    @pytest.mark.parametrize("with_side", [False, True])
    def test_dataset_layout(self, tmp_path, with_side):
        events, cats = planted_dataset(tmp_path, num_groups=2, users_per_group=3, items_per_group=4)
        train, cases = leave_one_out_split(ingest(str(events)), num_negatives=3, seed=0)
        side = build_side_info(train, read_category_pairs(str(cats))) if with_side else None
        path = tmp_path / "p.bin"
        save_prepared(str(path), PreparedDataset(train, cases, side, {"seed": 0}))
        config, arrays = read_container(str(path), "dataset")
        assert list(config) == DATASET_KEYS
        want = DATASET_RECORDS + (SIDE_RECORDS if with_side else [])
        assert [(name, arr.dtype.str, arr.ndim) for name, arr in arrays.items()] == want

    @pytest.mark.parametrize("variant", PINNED_VARIANTS)
    def test_checkpoint_layout(self, tmp_path, variant):
        kind, mode = VARIANTS[variant]
        config = ModelConfig(**{**asdict(CHECKPOINT_CONFIG), "side_dim": 0 if mode == "none" else 3})
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), build_model(variant, 5, 7, config, seed=0))
        record, arrays = read_container(str(path), "checkpoint")
        assert list(record) == CHECKPOINT_KEYS and list(record["model"]) == MODEL_KEYS
        want = [r for r in CHECKPOINT_RECORDS[kind]
                if not r[0].endswith("side_projection") or r[0].endswith(SIDE_PROJECTIONS[mode])]
        assert [(name, arr.dtype.str, arr.ndim) for name, arr in arrays.items()] == want
