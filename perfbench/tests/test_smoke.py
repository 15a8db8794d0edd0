"""Tiny-scale runs of every workload, traced and untraced, through the
same entry point the benchmark command uses."""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import worker
from perfbench.logsynth import LogSpec
from perfbench.workloads import WORKLOADS

TINY = LogSpec(users=12, items=200)
BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(WORKLOADS[name], spec=TINY))
    monkeypatch.setattr(worker, "OUT", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = worker.main(["--workload", name, "--seed", "5", "--seconds", "0",
                            "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["tensor.ops.calls"]["value"] > 0
        assert (result["metrics"]["tensor.Tensor.backward.s"]["value"] > 0) == (name != "eval-bert")
    assert (tmp_path / "results" / f"{name}-seed5-trace{trace}.json").is_file()
    assert not list((tmp_path / "work").iterdir())


def test_every_per_layer_metric_names_a_traced_function():
    special = {"trace.overhead_ratio", "refclock.slowdown", "tensor.ops.calls"}
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        assert name in special or name.startswith("group.") or worker._is_count_or_time(name), name


def test_benchmark_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit-ite", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
