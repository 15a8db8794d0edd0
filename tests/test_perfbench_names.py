"""The names the benchmark harness reaches into the package by. A per-layer
metric of a function the package no longer has makes every traced
benchmark run fail, so a rename or deletion in ``src`` must fail here."""

import json

from feedrank import tensor as T
from perfbench import worker
from perfbench.spantrace import Patcher, Tracer

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# sums over every traced op, not the figure of one function
AGGREGATES = {"tensor.ops.calls"}


def test_every_function_metric_names_a_traced_function():
    traced = set(worker.traced_names())
    names = [m["name"] for m in BENCHMARK["per_layer"]
             if m["name"].split(".")[0] in worker.TRACED and m["name"] not in AGGREGATES]
    assert "tensor.clamp.calls" in names
    for name in names:
        function, _, field = name.rpartition(".")
        assert function in traced, f"{name}: no traced function {function}"
        assert field in worker.COUNT_FIELDS + ("s", "self_s"), name


def test_tracer_installs_on_every_traced_function_and_restores():
    matmul = T.matmul
    with Patcher("feedrank") as patcher:
        worker.install_tracer(Tracer(), patcher)
        assert T.matmul is not matmul
    assert T.matmul is matmul
