"""The names the benchmark harness reaches into the package by. A traced
function the package no longer has makes every traced benchmark run fail,
so a rename or deletion in ``src`` must fail here. That every per-layer
metric names a traced function is checked by
``perfbench/tests/test_smoke.py``."""

from feedrank import tensor as T
from perfbench import worker
from perfbench.spantrace import Patcher, Tracer


def test_tracer_installs_on_every_traced_function_and_restores():
    matmul = T.matmul
    with Patcher("feedrank") as patcher:
        worker.install_tracer(Tracer(), patcher)
        assert T.matmul is not matmul
    assert T.matmul is matmul
