"""End-to-end pipeline through the command-line interface."""

import configparser
import csv
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from feedrank import cli
from feedrank.cli import RunConfig, load_run_config, main, write_run_config
from feedrank.container import FORMATS, HEADERS, load_checkpoint, read_container, write_container
from feedrank.data import load_prepared
from feedrank.models import VARIANTS, ModelConfig, build_model
from feedrank.tensor import no_grad
from feedrank.training import TrainingConfig

from conftest import planted_dataset
from perfbench.logsynth import LogSpec, write_log


@pytest.fixture
def prepared_path(tmp_path):
    events, cats = planted_dataset(tmp_path, num_groups=4, users_per_group=4,
                                   items_per_group=6, explicit_per_user=2)
    out = tmp_path / "prepared.bin"
    code = main(["prepare", "--events", str(events), "--categories", str(cats),
                 "--out", str(out), "--eval-negatives", "15", "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture
def trained(tmp_path, prepared_path):
    run_dir = tmp_path / "trained"
    cfg = write_config(tmp_path / "cfg-t.ini", prepared_path, epochs=1, out=run_dir)
    assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
    return run_dir / "model.ckpt"


def write_config(path, prepared, variant="ite", epochs=2, out=None, extra_model=(), extra_train=()):
    lines = [
        "[run]",
        f"variant = {variant}",
        "seed = 5",
        f"out = {out or path.parent / 'run'}",
        "eval_topk = 10",
        "[data]",
        f"prepared = {prepared}",
        "[model]",
        "embedding_dim = 8",
        "seq_len = 4",
        "transformer_layers = 1",
        "attention_heads = 2",
        "dropout = 0.1",
        *extra_model,
        "[training]",
        "learning_rate = 0.01",
        "batch_size = 256",
        "negatives_per_positive = 3",
        f"epochs = {epochs}",
        *extra_train,
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestPrepare:
    def test_prints_fixture_stats(self, tmp_path, capsys):
        events, cats = planted_dataset(tmp_path, num_groups=2, users_per_group=3,
                                       items_per_group=4, explicit_per_user=2)
        assert main(["prepare", "--events", str(events), "--categories", str(cats)]) == 0
        out = capsys.readouterr().out
        # 6 users, 8 items; every user touches all 4 group items, 2 explicitly
        assert "users      6" in out
        assert "items      8" in out
        assert "implicit   24" in out
        assert "explicit   12" in out
        assert "labels     2" in out
        assert "eval cases 6" in out

    def test_unknown_event_type_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,visitorid,event,itemid\n1,u,warp,i\n")
        assert main(["prepare", "--events", str(bad)]) == 1
        assert "warp" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["prepare", "--events", str(tmp_path / "nope.csv")]) == 2

    def test_blank_and_short_rows_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,visitorid,event,itemid\n1,2,view,3\n\n1,2\n")
        assert main(["prepare", "--events", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "data row 1" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("reader", ["ingest", "read_category_pairs", "read_retailrocket_properties"])
    def test_unparsable_row_exits_one(self, tmp_path, capsys, reader):
        # a field longer than csv's field size limit is a parse error
        events, cats = planted_dataset(tmp_path, num_groups=2, users_per_group=3,
                                       items_per_group=4, explicit_per_user=2)
        long = "x" * (csv.field_size_limit() + 1)
        out = tmp_path / "p.bin"
        categories = ["--categories", str(cats)]
        if reader == "ingest":
            bad, row = events, 36  # after 6 users' 4 views and 2 carts
            events.write_text(events.read_text() + f"2,u0,view,{long}\n")
        elif reader == "read_category_pairs":
            bad, row = cats, 8
            cats.write_text(cats.read_text() + f"i0,{long}\n")
        else:
            bad, row = tmp_path / "props.csv", 1
            bad.write_text(f"timestamp,itemid,property,value\n1,i0,categoryid,c0\n2,i1,categoryid,{long}\n")
            categories = ["--categories", str(bad), "--categories-format", "retailrocket-properties"]
        assert main(["prepare", "--events", str(events), *categories, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"{bad}: cannot parse data row {row}: field larger than field limit" in captured.err
        assert len(captured.err.splitlines()) == 1 and not out.exists()

    def test_prepare_idempotent_byte_for_byte(self, tmp_path):
        events, cats = planted_dataset(tmp_path, num_groups=2, users_per_group=3,
                                       items_per_group=4, explicit_per_user=2)
        outs = []
        for name in ("p1.bin", "p2.bin"):
            out = tmp_path / name
            assert main(["prepare", "--events", str(events), "--categories", str(cats),
                         "--out", str(out), "--eval-negatives", "3", "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # sha256 of prepared.bin for the default planted log, taken at dataset
    # format 3 (held-out pairs kept once, as the cases; histories as
    # lengths); any change to the file format, the split or the negative
    # draw moves it
    @pytest.mark.parametrize("with_categories, digest", [
        (True, "e78ecfdaa51889d5554744626641bba21642a52434be7f606cf975366c5ee4f5"),
        (False, "46c228ea9078028f28cf5174d9a4c8a276802d2f19693b768be4895c64b23b28"),
    ], ids=["with-categories", "without-categories"])
    def test_prepared_file_matches_golden_digest(self, tmp_path, with_categories, digest):
        events, cats = planted_dataset(tmp_path)
        out = tmp_path / "p.bin"
        args = ["prepare", "--events", str(events), "--out", str(out),
                "--eval-negatives", "20", "--seed", "11"]
        assert main(args + (["--categories", str(cats)] if with_categories else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("count, code", [("-5", 1), ("-1", 1), ("0", 0)])
    def test_eval_negatives_must_not_be_negative(self, tmp_path, capsys, count, code):
        events, cats = planted_dataset(tmp_path, num_groups=2, users_per_group=3,
                                       items_per_group=4, explicit_per_user=2)
        out = tmp_path / "p.bin"
        assert main(["prepare", "--events", str(events), "--out", str(out),
                     "--eval-negatives", count]) == code
        err = capsys.readouterr().err
        if code:
            assert f"--eval-negatives must be >= 0, got {count}" in err
            assert len(err.splitlines()) == 1 and not out.exists()
        else:
            assert all(case.negatives.size == 0 for case in load_prepared(str(out)).cases)

    @pytest.mark.parametrize("seed", ["-1", "-9"])
    def test_negative_seed_exits_one_before_reading(self, tmp_path, capsys, seed):
        # a missing events file would exit 2, so exit 1 shows the check ran first
        out = tmp_path / "p.bin"
        assert main(["prepare", "--events", str(tmp_path / "none.csv"), "--out", str(out),
                     "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert f"--seed must be >= 0, got {seed}" in captured.err
        assert len(captured.err.splitlines()) == 1 and not captured.out and not out.exists()

    @pytest.mark.parametrize("count", ["-1", "-7"])
    def test_negative_min_interactions_exits_one_before_reading(self, tmp_path, capsys, count):
        # a missing events file would exit 2, so exit 1 shows the check ran first
        out = tmp_path / "p.bin"
        assert main(["prepare", "--events", str(tmp_path / "none.csv"), "--out", str(out),
                     "--min-interactions", count]) == 1
        captured = capsys.readouterr()
        assert f"--min-interactions must be >= 0, got {count}" in captured.err
        assert len(captured.err.splitlines()) == 1 and not captured.out and not out.exists()

    def test_categories_without_file_names_exits_one_before_reading(self, tmp_path, capsys):
        # without the check this would prepare a dataset with no side info
        events, _ = planted_dataset(tmp_path, num_groups=2, users_per_group=3,
                                    items_per_group=4, explicit_per_user=2)
        out = tmp_path / "p.bin"
        assert main(["prepare", "--events", str(events), "--out", str(out), "--categories"]) == 1
        captured = capsys.readouterr()
        assert "--categories needs at least one file name" in captured.err
        assert len(captured.err.splitlines()) == 1 and not captured.out and not out.exists()

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_not_one_character_exits_one_before_reading(self, tmp_path, capsys, delimiter):
        # a missing events file would exit 2, so exit 1 shows the check ran first
        out = tmp_path / "p.bin"
        assert main(["prepare", "--events", str(tmp_path / "none.csv"), "--out", str(out),
                     "--delimiter", delimiter]) == 1
        captured = capsys.readouterr()
        assert f"--delimiter must be one character, got {delimiter!r}" in captured.err
        assert len(captured.err.splitlines()) == 1 and not captured.out and not out.exists()

    def test_delimiter_reaches_the_category_file(self, tmp_path, capsys):
        events, cats = planted_dataset(tmp_path, num_groups=3, users_per_group=3,
                                       items_per_group=4, explicit_per_user=2)
        outs = []
        for name, delimiter in (("comma", ","), ("semicolon", ";")):
            paths = [tmp_path / f"{name}-{path.name}" for path in (events, cats)]
            for src, dst in zip((events, cats), paths):
                dst.write_text(src.read_text().replace(",", delimiter))
            out = tmp_path / f"{name}.bin"
            assert main(["prepare", "--events", str(paths[0]), "--categories", str(paths[1]),
                         "--delimiter", delimiter, "--out", str(out), "--seed", "2"]) == 0
            assert "labels     3" in capsys.readouterr().out
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_writes_loadable_cache(self, prepared_path):
        prepared = load_prepared(str(prepared_path))
        assert prepared.store.num_users == 16
        assert prepared.side_info is not None
        assert len(prepared.cases) == 16


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path, prepared_path):
        run_dir = tmp_path / "run-ite"
        cfg = write_config(tmp_path / "cfg.ini", prepared_path, out=run_dir)
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "config.ini").exists()
        lines = (run_dir / "epochs.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        # epochs.jsonl is the one per-epoch log
        assert sorted(f.name for f in run_dir.iterdir()) == ["config.ini", "epochs.jsonl", "model.ckpt"]

    def test_rerun_is_byte_identical(self, tmp_path, prepared_path):
        outs = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            cfg = write_config(tmp_path / f"cfg-{name}.ini", prepared_path, out=run_dir)
            assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
            outs.append({f.name: f.read_bytes() for f in run_dir.iterdir()
                         if f.name != "config.ini"})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{name} differs between reruns"

    def test_effective_config_reproduces_run(self, tmp_path, prepared_path):
        run1 = tmp_path / "r1"
        cfg = write_config(tmp_path / "cfg.ini", prepared_path, out=run1)
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
        run2 = tmp_path / "r2"
        assert main(["train", "--config", str(run1 / "config.ini"), "--out", str(run2),
                     "--no-timestamps"]) == 0
        assert (run1 / "model.ckpt").read_bytes() == (run2 / "model.ckpt").read_bytes()
        assert (run1 / "epochs.jsonl").read_bytes() == (run2 / "epochs.jsonl").read_bytes()

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, prepared_path):
        run_dir = tmp_path / "run0"
        cfg = write_config(tmp_path / "cfg0.ini", prepared_path, epochs=0, out=run_dir)
        assert main(["train", "--config", str(cfg)]) == 0
        model, variant, _ = load_checkpoint(str(run_dir / "model.ckpt"))
        prepared = load_prepared(str(prepared_path))
        fresh = build_model("ite", prepared.store.num_users, prepared.store.num_items,
                            model.config, seed=5)
        for name, arr in fresh.params.state_arrays().items():
            np.testing.assert_array_equal(model.params.state_arrays()[name], arr)

    def test_si_variant_without_side_info_fails_early(self, tmp_path, capsys):
        events, _ = planted_dataset(tmp_path, num_groups=2, users_per_group=3,
                                    items_per_group=4, explicit_per_user=2)
        plain = tmp_path / "plain.bin"
        assert main(["prepare", "--events", str(events), "--out", str(plain),
                     "--eval-negatives", "3"]) == 0
        cfg = write_config(tmp_path / "cfg-si.ini", plain, variant="ite-si")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "side information" in capsys.readouterr().err

    def test_invalid_training_config_creates_no_run_dir(self, tmp_path, prepared_path, capsys):
        run_dir = tmp_path / "run-bad"
        cfg = write_config(tmp_path / "bad.ini", prepared_path, out=run_dir)
        text = cfg.read_text().replace("negatives_per_positive = 3", "negatives_per_positive = -1")
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "negatives_per_positive must be >= 0" in err and len(err.splitlines()) == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "0"),
        ("implicit_weight", "nan"), ("implicit_weight", "-0.5"), ("implicit_weight", "inf"),
        ("l2_weight", "nan"), ("l2_weight", "-1e-6"), ("l2_weight", "inf"),
        # Adam's beta1, beta2 and eps are constants, so any value of theirs is an unknown key
        ("adam_beta1", "nan"), ("adam_beta1", "1.0"), ("adam_beta1", "-0.1"),
        ("adam_beta2", "nan"), ("adam_beta2", "1.0"),
        ("adam_eps", "nan"), ("adam_eps", "0"), ("adam_eps", "-1e-8"), ("adam_eps", "inf"),
    ])
    def test_bad_training_float_creates_no_run_dir(self, tmp_path, prepared_path, capsys, key, value):
        run_dir = tmp_path / "run-bad"
        cfg = write_config(tmp_path / "bad.ini", prepared_path, out=run_dir)
        lines = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        if key.startswith("adam_"):
            assert err == f"error: {cfg}: unknown key [training] {key}\n"
        else:
            assert f"{key} must be" in err and len(err.splitlines()) == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("key, value", [
        ("attention_heads", "0"), ("attention_heads", "-2"), ("implicit_mlp_layers", "0"),
        ("explicit_mlp_layers", "0"), ("dropout", "1.5"), ("dropout", "-0.1"),
    ])
    @pytest.mark.parametrize("variant", ["ite", "bert-ite"])
    def test_invalid_model_config_creates_no_run_dir(self, tmp_path, prepared_path, capsys,
                                                     variant, key, value):
        run_dir = tmp_path / "run-bad"
        cfg = write_config(tmp_path / "bad.ini", prepared_path, variant=variant, out=run_dir)
        lines = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
        lines.insert(lines.index("[model]") + 1, f"{key} = {value}")
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_eval_topk_below_one_creates_no_run_dir(self, tmp_path, prepared_path, capsys, value):
        run_dir = tmp_path / "run-bad"
        cfg = write_config(tmp_path / "bad.ini", prepared_path, out=run_dir)
        cfg.write_text(cfg.read_text().replace("eval_topk = 10", f"eval_topk = {value}"))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"eval_topk must be >= 1, got {value}" in err and len(err.splitlines()) == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_creates_no_run_dir(self, tmp_path, prepared_path, capsys, value):
        run_dir = tmp_path / "run-bad"
        cfg = write_config(tmp_path / "cfg.ini", prepared_path, out=run_dir)
        assert main(["train", "--config", str(cfg), "--workers", value]) == 1
        err = capsys.readouterr().err
        assert f"--workers must be >= 1, got {value}" in err and len(err.splitlines()) == 1
        assert not run_dir.exists()

    def test_negative_seed_flag_exits_one_before_reading(self, tmp_path, capsys):
        # a missing config would exit 2
        assert main(["train", "--config", str(tmp_path / "none.ini"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed must be >= 0, got -1" in err and len(err.splitlines()) == 1

    def test_negative_config_seed_creates_no_run_dir(self, tmp_path, prepared_path, capsys):
        run_dir = tmp_path / "run-bad"
        cfg = write_config(tmp_path / "bad.ini", prepared_path, out=run_dir)
        cfg.write_text(cfg.read_text().replace("seed = 5", "seed = -2"))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "[run] seed must be >= 0, got -2" in err and len(err.splitlines()) == 1
        assert not run_dir.exists()
        # a valid --seed overrides the config's
        assert main(["train", "--config", str(cfg), "--seed", "4", "--no-timestamps"]) == 0

    @pytest.mark.parametrize("variant, code", [("ite", 0), ("bert-ite", 1)])
    def test_odd_embedding_dim_refused_only_by_attention(self, tmp_path, prepared_path, capsys,
                                                         variant, code):
        # ITE has no attention heads to split K=3 among; BERT-ITE's 2 heads cannot
        run_dir = tmp_path / "run-k3"
        cfg = write_config(tmp_path / "k3.ini", prepared_path, variant=variant, epochs=1, out=run_dir)
        cfg.write_text(cfg.read_text().replace("embedding_dim = 8", "embedding_dim = 3"))
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == code
        err = capsys.readouterr().err
        if code == 0:
            model, _, _ = load_checkpoint(str(run_dir / "model.ckpt"))
            assert model.config.embedding_dim == 3
        else:
            assert "model dim 3 not divisible by 2 heads" in err and len(err.splitlines()) == 1
            assert not run_dir.exists()

    def test_dataset_missing_a_record_exits_one(self, tmp_path, prepared_path, capsys):
        from feedrank.container import save_checkpoint

        config, arrays = read_container(str(prepared_path), "dataset")
        num_users, num_items = len(config["user_ids"]), len(config["item_ids"])
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(str(checkpoint), build_model("ite", num_users, num_items, ModelConfig()))
        no_offsets = tmp_path / "no-offsets.bin"
        write_container(str(no_offsets), "dataset", config,
                        {k: v for k, v in arrays.items() if k != "event_offsets"})
        # the layout before the events became one table, behind a current
        # header: each behaviour's events in records of their own, with
        # timestamps and file rows
        older = {k: v for k, v in arrays.items() if not k.startswith("event_")}
        users = np.repeat(np.arange(num_users), np.diff(arrays["event_offsets"]))
        flags = arrays["event_explicit"]
        for name, rows in (("implicit", flags == 0), ("explicit", flags == 1)):
            older[f"{name}_offsets"] = np.cumsum([0, *np.bincount(users[rows], minlength=num_users)])
            older[f"{name}_items"] = arrays["event_items"][rows]
            older[f"{name}_times"] = older[f"{name}_seqs"] = np.flatnonzero(rows)
        parent_format = tmp_path / "parent-format.bin"
        write_container(str(parent_format), "dataset", config, older)
        run_dir = tmp_path / "run-bad"
        for dataset, missing in ((no_offsets, "event_offsets"),
                                 (parent_format, "event_offsets, event_items, event_explicit")):
            cfg = write_config(tmp_path / "cfg.ini", dataset, out=run_dir)
            assert main(["train", "--config", str(cfg)]) == 1
            assert main(["evaluate", "--checkpoint", str(checkpoint), "--dataset", str(dataset)]) == 1
            err = capsys.readouterr().err
            assert err.splitlines() == [f"error: {dataset}: missing record(s) {missing}"] * 2
            assert not run_dir.exists()

    def test_non_finite_loss_exits_one(self, tmp_path, prepared_path, capsys, monkeypatch):
        def poisoned_build(*args, **kwargs):
            model = build_model(*args, **kwargs)
            model.gmf_user.rows.data[0] = np.nan
            return model

        cfg = write_config(tmp_path / "nan.ini", prepared_path, out=tmp_path / "run-nan")
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "build_model", poisoned_build)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "non-finite training loss nan at step" in err and len(err.splitlines()) == 1
        # the earlier run's model would be read as this run's
        assert not (tmp_path / "run-nan" / "model.ckpt").exists()

    @pytest.mark.parametrize("variant", ["ite", "bert-ite"])
    def test_overflowing_learning_rate_exits_one_with_one_line(self, tmp_path, prepared_path, capsys,
                                                               variant):
        # float32 overflows in the first steps; numpy's warnings would print
        # before the non-finite loss line
        run_dir = tmp_path / "run-big"
        cfg = write_config(tmp_path / "big.ini", prepared_path, variant=variant, out=run_dir)
        cfg.write_text(cfg.read_text().replace("learning_rate = 0.01", "learning_rate = 1e38"))
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite training loss nan at step ")
        assert not (run_dir / "model.ckpt").exists()

    def test_five_epoch_smoke_loss_decreases(self, tmp_path, prepared_path):
        import json
        import time

        run_dir = tmp_path / "run5"
        cfg = write_config(tmp_path / "cfg5.ini", prepared_path, epochs=5, out=run_dir)
        started = time.perf_counter()
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
        assert time.perf_counter() - started < 60.0
        losses = [json.loads(line)["mean_loss"]
                  for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_bert_variant_trains(self, tmp_path, prepared_path):
        run_dir = tmp_path / "run-bert"
        cfg = write_config(tmp_path / "cfg-bert.ini", prepared_path, variant="bert-ite-si",
                           epochs=1, out=run_dir)
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
        model, variant, _ = load_checkpoint(str(run_dir / "model.ckpt"))
        assert variant == "bert-ite-si"
        assert model.config.side_dim == 4


class TestEvaluate:
    def test_prints_and_writes_metrics(self, tmp_path, prepared_path, trained, capsys):
        out_csv = tmp_path / "metrics.csv"
        assert main(["evaluate", "--checkpoint", str(trained), "--dataset", str(prepared_path),
                     "--out", str(out_csv), "--no-timestamps"]) == 0
        printed = capsys.readouterr().out
        assert "K=10 HR=" in printed
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "K", "HR", "NDCG", "seconds"]
        assert len(rows) == 2 and rows[1][1] == "10"
        # only the wall-clock field is left empty
        assert [field == "" for field in rows[1]] == [False, False, False, False, True]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_topk_below_one_exits_one(self, tmp_path, prepared_path, trained, capsys, k):
        out_csv = tmp_path / "metrics.csv"
        assert main(["evaluate", "--checkpoint", str(trained), "--dataset", str(prepared_path),
                     "--topk", k, "--out", str(out_csv)]) == 1
        captured = capsys.readouterr()
        assert f"--topk must be >= 1, got {k}" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "HR=" not in captured.out and not out_csv.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_exits_one_before_reading_checkpoint(self, tmp_path,
                                                                   prepared_path, capsys, value):
        # a missing checkpoint would exit 2, so exit 1 shows the check ran first
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--dataset", str(prepared_path), "--workers", value]) == 1
        captured = capsys.readouterr()
        assert f"--workers must be >= 1, got {value}" in captured.err
        assert len(captured.err.splitlines()) == 1 and "HR=" not in captured.out

    def test_takes_no_seed(self, tmp_path, prepared_path, trained, capsys):
        with pytest.raises(SystemExit) as done:
            main(["evaluate", "--help"])
        assert done.value.code == 0 and "--seed" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as done:
            main(["evaluate", "--checkpoint", str(trained), "--dataset", str(prepared_path), "--seed", "1"])
        assert done.value.code == 2 and "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_ranks_with_the_pads_of_the_train_run(self, tmp_path, prepared_path, capsys):
        # the pads come from the checkpoint's seed, the run's [run] seed, so
        # the figures are those train recorded for its one epoch; each
        # history holds 6 events, so sequences of 8 give every case two pads,
        # and pads drawn from seed 0 instead would move NDCG@10
        run_dir = tmp_path / "bert"
        cfg = write_config(tmp_path / "bert.ini", prepared_path, variant="bert-ite", epochs=1, out=run_dir)
        cfg.write_text(cfg.read_text().replace("seq_len = 4", "seq_len = 8"))
        assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
        record = json.loads((run_dir / "epochs.jsonl").read_text())
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--dataset", str(prepared_path)]) == 0
        assert capsys.readouterr().out == f"K=10 HR={record['hr']:.6f} NDCG={record['ndcg']:.6f}\n"

    def test_topk_sweep_monotone(self, tmp_path, prepared_path, trained):
        out_csv = tmp_path / "sweep.csv"
        assert main(["evaluate", "--checkpoint", str(trained), "--dataset", str(prepared_path),
                     "--topk-sweep", "--out", str(out_csv)]) == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(r[1]) for r in rows] == list(range(1, 21))
        hrs = [float(r[2]) for r in rows]
        ndcgs = [float(r[3]) for r in rows]
        assert all(b >= a for a, b in zip(hrs, hrs[1:]))
        assert all(b >= a for a, b in zip(ndcgs, ndcgs[1:]))

    def test_oracle_checkpoint_known_metrics(self, tmp_path, capsys):
        # hand-set scores: user 0 ranks its item 1st, user 1 ranks its 3rd,
        # so HR@10 = 1.0 and NDCG@10 = (1 + 0.5) / 2 = 0.75 exactly
        from feedrank.container import save_checkpoint
        from feedrank.data import EvalCase, PreparedDataset, save_prepared
        from feedrank.models import ITEModel, ModelConfig
        from test_training import store_from_sets

        store = store_from_sets(2, 6, [{0, 3}, {2, 3}], [set(), set()], held_out_sets=[{2}, {1}])
        cases = [EvalCase(0, 2, np.array([3, 4, 5]), np.zeros(0, dtype=np.int64)),
                 EvalCase(1, 1, np.array([0, 4, 5]), np.zeros(0, dtype=np.int64))]
        prepared = PreparedDataset(store, cases, None)
        dataset = tmp_path / "oracle.bin"
        save_prepared(str(dataset), prepared)

        model = ITEModel(2, 6, ModelConfig(embedding_dim=2, attention_heads=1), seed=0)
        for p in model.params:
            p.data[:] = 0.0
        model.gmf_user.rows.data[:] = np.eye(2)
        model.gmf_item.rows.data[:, 0] = [0, 0, 3, 0, -1, -2]   # user 0 scores
        model.gmf_item.rows.data[:, 1] = [2, 0, 0, 0, 1, -1]    # user 1 scores
        model.implicit_head.data[:2] = 1.0
        ckpt = tmp_path / "oracle.ckpt"
        save_checkpoint(str(ckpt), model)

        assert main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(dataset)]) == 0
        printed = capsys.readouterr().out
        assert "K=10 HR=1.000000 NDCG=0.750000" in printed

    def test_corrupt_checkpoint_exits_one(self, tmp_path, prepared_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(HEADERS["checkpoint"] + b"garbage-but-not-a-container")
        assert main(["evaluate", "--checkpoint", str(bad), "--dataset", str(prepared_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_checkpoint_with_huge_extents_exits_one(self, tmp_path, prepared_path, trained, capsys):
        # every extent of the first record, rewritten to 2**32 - 1
        bad = tmp_path / "huge.ckpt"
        blob = bytearray(trained.read_bytes())
        config_at = len(HEADERS["checkpoint"]) + 4
        config_len = int.from_bytes(blob[config_at - 4:config_at], "little")
        name_len = int.from_bytes(blob[config_at + config_len:config_at + config_len + 4], "little")
        extents = config_at + config_len + 4 + name_len + 5
        rank = int.from_bytes(blob[extents - 4:extents], "little")
        blob[extents:extents + 4 * rank] = b"\xff" * 4 * rank
        bad.write_bytes(bytes(blob))
        assert main(["evaluate", "--checkpoint", str(bad), "--dataset", str(prepared_path)]) == 1
        err = capsys.readouterr().err
        assert "bytes declared" in err and len(err.splitlines()) == 1

    def test_workers_print_no_numpy_warnings(self, tmp_path, prepared_path, trained, capsys):
        # every parameter at 1e30 overflows float32 products; the pool's
        # threads must run under the command's np.errstate as one thread does
        from feedrank.container import save_checkpoint

        model, _, meta = load_checkpoint(str(trained))
        for p in model.params:
            p.data[:] = 1e30
        huge = tmp_path / "huge.ckpt"
        save_checkpoint(str(huge), model, meta=meta)
        outs = []
        for workers in ("1", "2"):
            assert main(["evaluate", "--checkpoint", str(huge), "--dataset", str(prepared_path),
                         "--workers", workers]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] == outs[1]

    def test_nan_parameter_exits_one(self, tmp_path, prepared_path, trained, capsys):
        from feedrank.container import save_checkpoint

        model, _, meta = load_checkpoint(str(trained))
        model.gmf_user.rows.data[0] = np.nan
        poisoned = tmp_path / "nan.ckpt"
        save_checkpoint(str(poisoned), model, meta=meta)
        assert main(["evaluate", "--checkpoint", str(poisoned), "--dataset", str(prepared_path)]) == 1
        err = capsys.readouterr().err
        assert "NaN or infinite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("variant,more_users,more_items",
                             [("ite", 0, -5), ("bert-ite", 0, 5), ("ite", 3, 0)])
    def test_checkpoint_for_another_dataset_exits_one(self, tmp_path, prepared_path, capsys,
                                                      variant, more_users, more_items):
        from feedrank.container import save_checkpoint

        store = load_prepared(str(prepared_path)).store
        users, items = store.num_users + more_users, store.num_items + more_items
        model = build_model(variant, users, items,
                            ModelConfig(embedding_dim=4, seq_len=4, transformer_layers=1), seed=0)
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(str(ckpt), model)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(prepared_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: checkpoint is built for {users} users and {items} items, "
                                f"dataset has {store.num_users} users and {store.num_items} items\n")
        assert "HR=" not in captured.out

    @pytest.mark.parametrize("variant", ["ite-si", "bert-ite-ossi"])
    def test_checkpoint_for_other_categories_exits_one(self, tmp_path, prepared_path, capsys, variant):
        from feedrank.container import save_checkpoint

        prepared = load_prepared(str(prepared_path))
        side_dim = prepared.side_info.num_categories + 1
        model = build_model(variant, prepared.store.num_users, prepared.store.num_items,
                            ModelConfig(embedding_dim=4, seq_len=4, transformer_layers=1,
                                        side_dim=side_dim), seed=0)
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(str(ckpt), model)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(prepared_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: side info has {side_dim - 1} categories, "
                                f"the model's side_dim is {side_dim}\n")
        assert "HR=" not in captured.out

    @pytest.mark.parametrize("key,value,message", [
        ("variant", None, "'variant' must be a string"),
        ("variant", 3, "'variant' must be a string"),
        ("model", 7, "'model' must be an object"),
        ("num_items", "24", "'num_items' is '24', not an int >= 0"),
        ("num_users", True, "'num_users' is True, not an int >= 0"),
        ("num_users", -1, "'num_users' is -1, not an int >= 0"),
        ("meta", [], "'meta' must be an object"),
        ("meta", None, "'meta' must be an object"),
    ])
    def test_malformed_checkpoint_record_exits_one(self, tmp_path, prepared_path, trained, capsys,
                                                   key, value, message):
        config, arrays = read_container(str(trained), "checkpoint")
        if value is None:
            del config[key]
        else:
            config[key] = value
        bad = tmp_path / "bad.ckpt"
        write_container(str(bad), "checkpoint", config, arrays)
        assert main(["evaluate", "--checkpoint", str(bad), "--dataset", str(prepared_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: config key {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [None, [1], 2.7, -1, True, "3"])
    def test_malformed_meta_seed_exits_one(self, tmp_path, prepared_path, trained, capsys, seed):
        config, arrays = read_container(str(trained), "checkpoint")
        config["meta"]["seed"] = seed
        bad = tmp_path / "bad.ckpt"
        write_container(str(bad), "checkpoint", config, arrays)
        assert main(["evaluate", "--checkpoint", str(bad), "--dataset", str(prepared_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: config key 'meta.seed' is {seed!r}, not an int >= 0\n"

    @pytest.mark.parametrize("key, value, message", [
        ("user_ids", 5, "'user_ids' must be a list of strings"),
        ("user_ids", None, "'user_ids' must be a list of strings"),
        ("item_ids", "i0", "'item_ids' must be a list of strings"),
        ("item_ids", [0, 1], "'item_ids' must be a list of strings"),
        ("labels", None, "'labels' must be a list of strings"),
        ("labels", {"c0": 0}, "'labels' must be a list of strings"),
    ])
    def test_malformed_dataset_config_exits_one(self, tmp_path, prepared_path, trained, capsys,
                                                key, value, message):
        config, arrays = read_container(str(prepared_path), "dataset")
        config[key] = value
        write_container(str(prepared_path), "dataset", config, arrays)
        assert main(["evaluate", "--checkpoint", str(trained), "--dataset", str(prepared_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {prepared_path}: config key {message}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("embedding_dim", "8", "'model.embedding_dim' is '8', not an int"),
        ("seq_len", 4.0, "'model.seq_len' is 4.0, not an int"),
        ("transformer_layers", True, "'model.transformer_layers' is True, not an int"),
        ("dropout", "x", "'model.dropout' is 'x', not a number"),
        ("dropout", False, "'model.dropout' is False, not a number"),
        # the record as written before the variant alone fixed the side mode
        ("side_info_mode", "none", "'model' holds unknown keys 'side_info_mode'"),
        ("side_dim", None, "'model.side_dim' is missing"),
        ("attention_heads", None, "'model.attention_heads' is missing"),
        ("hidden_size", 8, "'model' holds unknown keys 'hidden_size'"),
    ])
    def test_malformed_model_record_exits_one(self, tmp_path, prepared_path, trained, capsys,
                                              key, value, message):
        config, arrays = read_container(str(trained), "checkpoint")
        if value is None:
            del config["model"][key]
        else:
            config["model"][key] = value
        bad = tmp_path / "bad.ckpt"
        write_container(str(bad), "checkpoint", config, arrays)
        assert main(["evaluate", "--checkpoint", str(bad), "--dataset", str(prepared_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: config key {message}\n"

    # a record that still holds a side mode (the older format) is refused
    # for that key, whichever mode it names
    @pytest.mark.parametrize("variant, changes, message", [
        ("bert-ite", {"side_info_mode": "user_and_item", "side_dim": 12},
         "'model' holds unknown keys 'side_info_mode'"),
        ("bert-ite", {"side_info_mode": "bogus"}, "'model' holds unknown keys 'side_info_mode'"),
        ("bert-ite", {"side_dim": 12}, "'model.side_dim' is 12, not 0 as variant 'bert-ite' reads no side info"),
        ("ite", {"side_dim": 4}, "'model.side_dim' is 4, not 0 as variant 'ite' reads no side info"),
        ("ite-si", {"side_info_mode": "item_only"}, "'model' holds unknown keys 'side_info_mode'"),
        ("bert-ite-ossi", {"side_info_mode": "none", "side_dim": 0},
         "'model' holds unknown keys 'side_info_mode'"),
    ])
    def test_side_mode_other_than_the_variants_exits_one(self, tmp_path, prepared_path, capsys,
                                                         variant, changes, message):
        from feedrank.container import save_checkpoint

        store = load_prepared(str(prepared_path)).store
        model = build_model(variant, store.num_users, store.num_items,
                            ModelConfig(embedding_dim=4, seq_len=4, transformer_layers=1, side_dim=4),
                            seed=0)
        ckpt = tmp_path / "side.ckpt"
        save_checkpoint(str(ckpt), model)
        config, arrays = read_container(str(ckpt), "checkpoint")
        config["model"].update(changes)
        write_container(str(ckpt), "checkpoint", config, arrays)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(prepared_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ckpt}: config key {message}\n"
        assert "HR=" not in captured.out

    def test_missing_checkpoint_exits_two(self, tmp_path, prepared_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--dataset", str(prepared_path)]) == 2

    def test_evaluate_deterministic_across_runs(self, tmp_path, prepared_path, trained):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["evaluate", "--checkpoint", str(trained), "--dataset",
                         str(prepared_path), "--out", str(out), "--no-timestamps"]) == 0
        assert a.read_bytes() == b.read_bytes()


def parent_written(path, kind):
    """The bytes the tree before format numbers wrote for the same inputs:
    magic FEEDRANK1, then a config record that starts with a ``kind`` key;
    every other config key and every record is the same."""
    raw = path.read_bytes()[len(HEADERS[kind]):]
    size = int.from_bytes(raw[:4], "little")
    config = json.loads(raw[4:4 + size])
    blob = json.dumps({"kind": kind, **config}, separators=(",", ":")).encode("utf-8")
    return b"FEEDRANK1" + len(blob).to_bytes(4, "little") + blob + raw[4 + size:]


class TestFileFormats:
    """A file of another format number or kind stops ``train`` and
    ``evaluate`` with one line that names what the file holds, what this
    program reads, and the command that writes it, before any run
    directory is made."""

    COMMANDS = {"dataset": "prepare", "checkpoint": "train"}

    @pytest.mark.parametrize("source", ["dataset", "checkpoint"])
    @pytest.mark.parametrize("change", ["FEEDRANK1", "previous number", "next number", "other kind"])
    def test_exits_one_with_one_line(self, tmp_path, prepared_path, trained, capsys, source, change):
        files = {"dataset": prepared_path, "checkpoint": trained}
        other = "checkpoint" if source == "dataset" else "dataset"
        number = FORMATS[source][0]
        bad, role = tmp_path / f"bad-{source}", source
        if change == "FEEDRANK1":
            bad.write_bytes(parent_written(files[source], source))
            held = "an unnumbered FEEDRANK1 file"
        elif change.endswith("number"):
            other_number = number + 1 if change == "next number" else number - 1
            body = files[source].read_bytes()[len(HEADERS[source]):]
            bad.write_bytes(f"FEEDRANK {source} {other_number}\n".encode("ascii") + body)
            held = f"{source} format {other_number}"
        else:
            bad.write_bytes(files[source].read_bytes())
            held, role = f"{source} format {number}", other

        def line(kind):
            return (f"error: {bad} is {held}; this feedrank reads {kind} format {FORMATS[kind][0]}: "
                    f"re-run feedrank {self.COMMANDS[kind]}")

        paths = dict(files, **{role: bad})
        assert main(["evaluate", "--checkpoint", str(paths["checkpoint"]),
                     "--dataset", str(paths["dataset"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line(role)] and "HR=" not in captured.out
        # a dataset in a checkpoint's place is a good dataset for train
        if role == "dataset" or change != "other kind":
            run_dir = tmp_path / "run-bad"
            cfg = write_config(tmp_path / "bad.ini", bad, out=run_dir)
            assert main(["train", "--config", str(cfg)]) == 1
            assert capsys.readouterr().err.splitlines() == [line("dataset")]
            assert not run_dir.exists()


class TestInterruptedWrites:
    """``train``'s config.ini and ``evaluate --out`` go through
    ``container.atomic_write``: a writer that raises mid-write leaves the
    file from the run before byte-identical, with no temporary file beside
    it."""

    @pytest.mark.parametrize("target", ["config.ini", "evaluate --out"])
    def test_old_file_survives(self, tmp_path, prepared_path, monkeypatch, target):
        run_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.ini", prepared_path, epochs=1, out=run_dir)
        if target == "config.ini":
            path = run_dir / "config.ini"
            argv = ["train", "--config", str(cfg), "--no-timestamps"]
            again = argv + ["--seed", "6"]     # a config.ini that differs
        else:
            assert main(["train", "--config", str(cfg), "--no-timestamps"]) == 0
            path = tmp_path / "metrics.csv"
            argv = ["evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--dataset",
                    str(prepared_path), "--out", str(path)]
            again = argv + ["--topk-sweep"]     # 20 rows, not 1
        assert main(argv) == 0
        before = path.read_bytes()
        writes = []

        def write(fh, text):
            # the first write goes through, the second is interrupted
            writes.append(text)
            if len(writes) > 1:
                raise KeyboardInterrupt
            return fh.write(text)

        if target == "config.ini":
            real = configparser.ConfigParser.write
            monkeypatch.setattr(configparser.ConfigParser, "write",
                                lambda self, fh: real(self, types.SimpleNamespace(
                                    write=lambda text: write(fh, text))))
        else:
            real = csv.writer
            monkeypatch.setattr(csv, "writer", lambda fh: real(types.SimpleNamespace(
                write=lambda text: write(fh, text))))
        with pytest.raises(KeyboardInterrupt):
            main(again)
        assert len(writes) == 2
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp"))


class TestConfigParsing:
    def test_variant_specific_batch_default(self, tmp_path, prepared_path):
        from feedrank.cli import load_run_config

        cfg_path = tmp_path / "nb.ini"
        cfg_path.write_text("[run]\nvariant = bert-ite\n[data]\nprepared = x\n")
        assert load_run_config(str(cfg_path)).training.batch_size == 512
        cfg_path.write_text("[run]\nvariant = ite\n[data]\nprepared = x\n")
        assert load_run_config(str(cfg_path)).training.batch_size == 2048

    def test_paper_defaults_prefilled(self, tmp_path):
        from feedrank.cli import load_run_config

        cfg_path = tmp_path / "d.ini"
        cfg_path.write_text("[run]\nvariant = bert-ite\n")
        cfg = load_run_config(str(cfg_path))
        assert cfg.training.learning_rate == 0.001
        assert cfg.training.implicit_weight == 0.5
        assert cfg.training.negatives_per_positive == 9
        assert cfg.model.transformer_layers == 2
        assert cfg.model.attention_heads == 2
        assert cfg.model.seq_len == 20

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "u.ini"
        cfg_path.write_text("[run]\nvariant = svd\n")
        assert main(["train", "--config", str(cfg_path)]) == 1

    def test_written_config_parses_back(self, tmp_path, prepared_path):
        run_dir = tmp_path / "cfg-run"
        cfg = write_config(tmp_path / "w.ini", prepared_path, epochs=0, out=run_dir)
        assert main(["train", "--config", str(cfg)]) == 0
        parser = configparser.ConfigParser()
        parser.read(run_dir / "config.ini")
        assert parser["run"]["variant"] == "ite"
        assert parser["training"]["learning_rate"] == "0.01"
        assert parser["model"]["embedding_dim"] == "8"

    @pytest.mark.parametrize("text, message", [
        pytest.param("[run]\nvariant = ite\n[training]\nlearning_rte = 0.5\n",
                     "unknown key [training] learning_rte", id="training-typo"),
        pytest.param("[run]\nvariant = ite\nsed = 3\n", "unknown key [run] sed", id="run-typo"),
        pytest.param("[data]\nprepard = x\n", "unknown key [data] prepard", id="data-typo"),
        pytest.param("[model]\nembeding_dim = 4\n", "unknown key [model] embeding_dim",
                     id="model-typo"),
        pytest.param("[trainig]\nepochs = 3\n", "unknown section [trainig]", id="section-typo"),
        pytest.param("[model]\nside_dim = 4\n", "[model] side_dim is set from", id="side-dim"),
        pytest.param("[model]\nside_info_mode = item_only\n", "unknown key [model] side_info_mode",
                     id="side-info-mode"),
        pytest.param("[training]\nseed = 3\n", "[training] seed is set from", id="training-seed"),
        pytest.param("[training]\nepochs = two\n", "[training] epochs = 'two' is not a valid int",
                     id="bad-int"),
        pytest.param("[run]\nseed = 1\n[run]\nseed = 2\n", "section 'run' already exists",
                     id="duplicate-section"),
        pytest.param("variant = ite\n", "no section headers", id="no-section"),
    ])
    def test_unknown_derived_and_malformed_keys_exit_one(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(variant=st.sampled_from(sorted(VARIANTS)),
           seed=st.integers(-2**31, 2**31),
           names=st.lists(st.text(alphabet="abz09/._-", max_size=12), min_size=2, max_size=2),
           ints=st.lists(st.integers(-2**31, 2**31), min_size=9, max_size=9),
           reals=st.lists(st.floats(allow_nan=False), min_size=4, max_size=4))
    def test_written_config_loads_back_equal(self, tmp_path, variant, seed, names, ints, reals):
        model = ModelConfig(*ints[:6], reals[0])
        training = TrainingConfig(reals[1], ints[6], reals[2], reals[3], ints[7], ints[8], seed)
        cfg = RunConfig(variant, seed, names[0], ints[0], names[1], model, training)
        path = tmp_path / "round-trip.ini"
        write_run_config(path, cfg)
        assert load_run_config(str(path)) == cfg


class TestMemoryPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc")
    def test_chunked_bert_forward_reuses_freed_memory(self):
        # eval-bert's shape: a bert-ite model over 1,100 items scoring one
        # case's 1,000 candidates in one forward; without the policy each
        # forward faults about 500 fresh pages in
        assert cli.keep_freed_memory()
        model = build_model("bert-ite", 60, 1100, ModelConfig(embedding_dim=8), seed=42)
        rng = np.random.default_rng(0)
        users = np.array([7], dtype=np.int64)
        contexts = rng.integers(0, 1100, size=(1, 20))
        candidates = rng.integers(0, 1100, size=1000)

        def chunks(count):
            with no_grad():
                for _ in range(count):
                    model.forward_batch(users, candidates, contexts)

        chunks(2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        chunks(10)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500, f"{faults} minor faults in ten chunks"

    @pytest.mark.parametrize("os_name, libc", [
        ("posix", types.SimpleNamespace()),
        ("nt", None),
    ], ids=["no-mallopt", "not-posix"])
    def test_without_mallopt_nothing_is_set(self, monkeypatch, os_name, libc):
        def cdll(name):
            if libc is None:
                raise TypeError("no C library to load")
            return libc

        monkeypatch.setattr(cli.os, "name", os_name)
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli.keep_freed_memory() is False

    def test_refused_mmap_threshold_leaves_trimming_alone(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 0

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert cli.keep_freed_memory() is False
        assert calls == [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD_BYTES)]

    @pytest.mark.parametrize("argv", [
        ["prepare", "--events", "events.csv"],
        ["train", "--config", "run.ini"],
        ["evaluate", "--checkpoint", "model.ckpt", "--dataset", "prepared.bin"],
    ], ids=lambda argv: argv[0])
    def test_every_command_sets_the_policy_before_it_runs(self, monkeypatch, argv):
        order = []
        monkeypatch.setattr(cli, "keep_freed_memory", lambda: order.append("policy"))
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: order.append(argv[0]) or 0)
        assert main(argv) == 0
        assert order == ["policy", argv[0]]


class TestRuntimeDependencies:
    """pyproject.toml lists numpy alone at runtime. Each test prepares,
    trains and evaluates bert-ite-si, the variant that reads side
    information, in a fresh process that runs ``prelude`` first and
    ``check`` last."""

    @staticmethod
    def run_pipeline(tmp_path, prelude, check):
        events, categories = write_log(tmp_path, LogSpec(users=30, items=120, median_events=8), 1)
        prepared, run_dir = tmp_path / "prepared.bin", tmp_path / "run"
        cfg = write_config(tmp_path / "run.ini", prepared, variant="bert-ite-si", epochs=1, out=run_dir)
        commands = [
            ["prepare", "--events", str(events), "--categories", str(categories), "--out", str(prepared),
             "--eval-negatives", "15"],
            ["train", "--config", str(cfg), "--no-timestamps"],
            ["evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--dataset", str(prepared)],
        ]
        script = (
            "import sys\n"
            f"{prelude}"
            "from feedrank import cli\n"
            f"for argv in {commands!r}:\n"
            "    if cli.main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n"
            f"{check}"
        )
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
        assert done.returncode == 0, done.stderr

    def test_a_side_information_run_loads_no_scipy(self, tmp_path):
        # scipy.sparse alone would map about 15 MB into the process
        self.run_pipeline(tmp_path, "", "sys.exit('scipy was imported' if 'scipy' in sys.modules else 0)\n")

    def test_a_side_information_run_needs_no_scipy(self, tmp_path):
        # as where scipy is not installed: every import of it fails
        blocker = (
            "import importlib.abc\n"
            "class NoScipy(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
        )
        self.run_pipeline(tmp_path, blocker, "")
