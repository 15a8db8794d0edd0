"""Run one workload in this process and print its metrics.

``run.py`` starts this module in a fresh process per workload, with BLAS
pinned to one thread. A run makes the workload's inputs from the seed,
then repeats the workload's pass until ``--seconds`` have passed (and at
least ``MIN_PASSES`` times). Small probes on a few program functions mark
where set-up ends and time each training step and ranked case; they run in
every pass. Times go through ``refclock.RefClock``, which rescales them by
a reference kernel timed between steps, so that a host whose speed drifts
does not move the figures: the reported times are corrected times, not
wall times. The unscaled wall times and the run's median kernel slowdown
are reported beside them.
With ``--trace 1`` every other pass is also traced: each function in
``TRACED`` is wrapped from outside and records a span per call. The
end-to-end metrics come from the untraced passes; the per-layer metrics
from the traced passes, whose time against the untraced passes gives the
tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .refclock import RefClock
from .spantrace import Patcher, Tracer, self_times, summarize
from .workloads import WORKLOADS, Checks, ProgramError, Workload

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"       # scratch inputs and result files, inside the checkout
MIN_PASSES = 3
TRACED_MIN_PASSES = 4        # untraced and traced passes alternate


def _rows(args, kwargs, result):
    yield "rows", len(args[1])


def _result_bytes(args, kwargs, result):
    yield "bytes", result.nbytes


def _file_bytes(args, kwargs, result):
    yield "bytes", os.path.getsize(args[0])


def _matmul_flop(args, kwargs, result):
    yield "flop", 2 * result.data.size * args[0].shape[-1]


TRACED = {
    "cli": ("cmd_prepare", "cmd_train", "cmd_evaluate"),
    "data": ("ingest", "leave_one_out_split", "build_side_info", "save_prepared", "load_prepared",
             "sample_unobserved", "SideInfo.item_matrix", "SideInfo.user_matrix"),
    "training": ("fit", "train_epoch", "build_epoch_examples", "sample_negatives",
                 "pad_sequence", "joint_loss", "Adam.step"),
    "models": ("build_model", "ITEModel.forward", "BertITEModel.forward", "predict_score"),
    "layers": ("EmbeddingTable.lookup", "multi_head_self_attention", "pffn",
               "transformer_layer", "apply_tower"),
    "evaluation": ("evaluate", "case_ranks", "case_rank", "topk_sweep"),
    "container": ("write_container", "read_container", "save_checkpoint", "load_checkpoint"),
    "tensor": ("Tensor.backward",),
}
COUNTERS = {
    "data.SideInfo.item_matrix": _result_bytes,
    "models.ITEModel.forward": _rows,
    "models.BertITEModel.forward": _rows,
    "tensor.matmul": _matmul_flop,
    "container.write_container": _file_bytes,
    "container.read_container": _file_bytes,
}
# Self time summed per group, to show each workload's emphasis. A span's
# scope is the nearest of these functions it runs under, if any.
SCOPES = {"training.train_epoch": "epoch", "evaluation.case_ranks": "eval"}
EPOCH_DATA = ("training.build_epoch_examples", "training.sample_negatives", "training.pad_sequence",
              "data.sample_unobserved")
GROUPS = {
    # the per-epoch data path: example building and negative sampling
    "data_path": lambda name, scope: scope == "epoch" and name in EPOCH_DATA,
    # data work outside epochs and evaluation: ingest, split, side info, prepared I/O
    "data_setup": lambda name, scope: scope is None and name.startswith("data."),
    "forward_ops": lambda name, scope: name.startswith("tensor.") and name != "tensor.Tensor.backward",
    "backward": lambda name, scope: name == "tensor.Tensor.backward",
    "optimizer": lambda name, scope: name == "training.Adam.step",
}
COUNT_FIELDS = ("calls", "rows", "bytes", "flop")
# Figures each run prints, whether or not BENCHMARK.json gates them.
FIGURE_UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "step_ms.p50": "ms", "step_ms.p90": "ms",
    "step_samples": "count", "train_examples_per_s": "1/s", "eval_cases_per_s": "1/s",
    "eval_case_ms.p50": "ms", "eval_case_ms.p90": "ms", "eval_case_samples": "count",
    "train_loss": "loss", "hr_at_10": "ratio", "peak_rss_mb": "MB", "refclock.slowdown": "ratio",
}


def tensor_ops() -> list[str]:
    """Every public forward op of the tensor engine (functions returning a Tensor)."""
    from feedrank import tensor

    return [name for name, fn in vars(tensor).items()
            if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
            and not name.startswith("_") and fn.__annotations__.get("return") == "Tensor"]


def traced_names() -> list[str]:
    names = [f"{module}.{qualname}" for module, qualnames in TRACED.items() for qualname in qualnames]
    return names + [f"tensor.{op}" for op in tensor_ops()]


def install_tracer(tracer: Tracer, patcher: Patcher) -> None:
    for name in traced_names():
        module, qualname = name.split(".", 1)
        patcher.replace(f"feedrank.{module}", qualname, tracer.wrapper(name, COUNTERS.get(name)))


class Probes:
    """Boundary timestamps and output checks taken in every pass.

    Intervals are kept as (start, end) perf-counter pairs so that ``RefClock``
    can rescale them. When a ``RefClock`` is given, it is sampled between
    steps and cases once ``INTERVAL_S`` has passed, outside every interval.
    """

    def __init__(self, checks: Checks, refclock: Optional[RefClock]):
        self.checks = checks
        self.refclock = refclock
        self.work_start: Optional[float] = None
        self.epochs: list[tuple[float, float]] = []
        self.steps: list[tuple[float, float]] = []
        self.cases: list[tuple[float, float]] = []
        self._mark = 0.0

    def _calibrate(self, now: float) -> float:
        if self.refclock is not None and self.refclock.due(now):
            return self.refclock.sample()
        return now

    def install(self, patcher: Patcher) -> None:
        clock = time.perf_counter

        def first_work(record: Optional[list]):
            def make(original):
                def probe(*args, **kwargs):
                    start = clock()
                    if self.work_start is None:
                        self.work_start = start
                    result = original(*args, **kwargs)
                    if record is not None:
                        record.append((start, clock()))
                    return result
                return probe
            return make

        def epoch_built(original):
            def probe(*args, **kwargs):
                result = original(*args, **kwargs)
                self._mark = clock()
                return result
            return probe

        def stepped(original):
            def probe(*args, **kwargs):
                result = original(*args, **kwargs)
                now = clock()
                self.steps.append((self._mark, now))
                self._mark = self._calibrate(now)
                return result
            return probe

        def loss_checked(original):
            def probe(*args, **kwargs):
                loss = original(*args, **kwargs)
                value = loss.item()
                self.checks.check(math.isfinite(value), f"non-finite training loss {value}")
                return loss
            return probe

        def ranked(original):
            def probe(*args, **kwargs):
                start = clock()
                rank = original(*args, **kwargs)
                end = clock()
                self.cases.append((start, end))
                self._calibrate(end)
                return rank
            return probe

        patcher.replace("feedrank.training", "train_epoch", first_work(self.epochs))
        patcher.replace("feedrank.evaluation", "topk_sweep", first_work(None))
        patcher.replace("feedrank.training", "build_epoch_examples", epoch_built)
        patcher.replace("feedrank.training", "Adam.step", stepped)
        patcher.replace("feedrank.training", "joint_loss", loss_checked)
        patcher.replace("feedrank.evaluation", "case_rank", ranked)


def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import scipy

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "feedrank").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": h.hexdigest(),
    }


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def group_self_times(spans: list) -> dict[str, float]:
    """Self time of each group in ``GROUPS`` over one pass's spans."""
    selfs = self_times(spans)
    scopes: list[Optional[str]] = []
    out = dict.fromkeys(GROUPS, 0.0)
    for index, (name, _, _, parent) in enumerate(spans):
        scope = None if parent < 0 else SCOPES.get(spans[parent][0], scopes[parent])
        scopes.append(scope)
        for group, member in GROUPS.items():
            if member(name, scope):
                out[group] += selfs[index]
    return out


def _per_layer(summaries: list[dict], groups: list[dict], counts: list[dict]) -> dict[str, float]:
    """Per-layer figures from the traced passes: times are medians over
    passes, counts come from one pass (they must repeat exactly)."""
    ops = {f"tensor.{op}" for op in tensor_ops()}
    per_pass = []
    for summary, group, count in zip(summaries, groups, counts):
        figures = dict(count)
        for name, entry in summary.items():
            for key, value in entry.items():
                figures[f"{name}.{key}"] = value
        figures["tensor.ops.calls"] = sum(summary[n]["calls"] for n in ops if n in summary)
        figures.update({f"group.{name}.self_s": value for name, value in group.items()})
        per_pass.append(figures)
    keys = sorted(set().union(*per_pass))
    out = {}
    for key in keys:
        values = [p.get(key, 0) for p in per_pass]
        out[key] = values[0] if key.rsplit(".", 1)[-1] in COUNT_FIELDS else statistics.median(values)
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Optional[Path] = None) -> dict:
    """Run ``workload`` and return its result: checks, every figure, report."""
    checks = Checks()
    inputs = workload.make_inputs(workdir, seed)
    clock = time.perf_counter
    refclock = RefClock()
    min_passes = TRACED_MIN_PASSES if trace else MIN_PASSES
    passes = []
    summaries, groups, counts = [], [], []
    first_outputs = None
    started = clock()
    spans_out = gzip.open(spans_path, "wt", encoding="utf-8") if spans_path else None
    try:
        while len(passes) < min_passes or clock() - started < seconds:
            traced = trace and len(passes) % 2 == 1
            # traced passes sample the reference only at their ends, so that
            # no kernel time lands inside a span
            probes = Probes(checks, None if traced else refclock)
            tracer = Tracer() if traced else None
            with Patcher("feedrank") as patcher:
                if tracer is not None:
                    install_tracer(tracer, patcher)
                probes.install(patcher)
                refclock.sample()
                begin = clock()
                raw = workload.work(inputs)
                end = clock()
                refclock.sample()
            result = workload.collect(inputs, raw, checks)
            if first_outputs is None:
                first_outputs = result.outputs
            else:
                checks.check(result.outputs == first_outputs,
                             f"{workload.name}: pass {len(passes)} outputs differ from pass 0")
            passes.append({"begin": begin, "end": end, "units": result.work_units, "traced": traced,
                           "probes": probes, "figures": result.figures})
            if tracer is not None:
                summaries.append(summarize(tracer.spans))
                groups.append(group_self_times(tracer.spans))
                counts.append(dict(tracer.counts))
                if spans_out is not None:
                    spans_out.write(json.dumps({"pass": len(passes) - 1, "spans": tracer.spans}) + "\n")
    finally:
        if spans_out is not None:
            spans_out.close()
    workload.after_run(inputs, checks)

    def timings(scale) -> dict:
        """The end-to-end figures, with intervals measured by ``scale``."""
        plain = [p for p in passes if not p["traced"]]
        steps = [scale(*span) * 1e3 for p in plain for span in getattr(p["probes"], workload.step_source)]
        cases = [scale(*span) * 1e3 for p in plain for span in p["probes"].cases]
        epochs = [scale(*span) for p in plain for span in p["probes"].epochs]
        out = {
            "setup_s": statistics.median(scale(p["begin"], p["probes"].work_start) for p in plain),
            "throughput_per_s": statistics.median(p["units"] / scale(p["probes"].work_start, p["end"])
                                                  for p in plain),
            "step_ms.p50": _percentile(steps, 50),
            "step_ms.p90": _percentile(steps, 90),
            "step_samples": len(steps),
        }
        if epochs:
            out["train_examples_per_s"] = sum(p["units"] for p in plain) / sum(epochs)
        if cases:
            out["eval_cases_per_s"] = len(cases) / (sum(cases) / 1e3)
            out["eval_case_ms.p50"] = _percentile(cases, 50)
            out["eval_case_ms.p90"] = _percentile(cases, 90)
            out["eval_case_samples"] = len(cases)
        wall = [scale(p["begin"], p["end"]) for p in passes]
        if trace:
            out["trace.overhead_ratio"] = (
                statistics.median(w for w, p in zip(wall, passes) if p["traced"])
                / statistics.median(w for w, p in zip(wall, passes) if not p["traced"]))
        return out

    figures = timings(refclock.scaled)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["refclock.slowdown"] = refclock.median_slowdown()
    report = {"passes": len(passes), "traced_passes": len(summaries), "stats": inputs["stats"],
              "seconds": clock() - started, "reference_kernel_ms": refclock.median_kernel_s() * 1e3,
              "reference_samples": len(refclock.starts),
              "unscaled": timings(lambda a, b: b - a),
              "per_pass": [{"traced": p["traced"], "wall_s": p["end"] - p["begin"],
                            "scaled_s": refclock.scaled(p["begin"], p["end"])}
                           for p in passes]}
    figures.update(passes[0]["figures"])
    if summaries:
        figures.update(_per_layer(summaries, groups, counts))
        report["lead_group"] = max(GROUPS, key=lambda g: figures[f"group.{g}.self_s"])
        calls = [({n: e["calls"] for n, e in summary.items()}, count)
                 for summary, count in zip(summaries, counts)]
        for later in calls[1:]:
            checks.check(later == calls[0], f"{workload.name}: traced counts differ between passes")
        missing = [n for n in workload.required if all(n not in s for s in summaries)]
        if missing:
            raise TraceError(f"{workload.name}: traced run never called {', '.join(missing)}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures[:20], "figures": figures, "report": report}


class TraceError(RuntimeError):
    """A function the workload must exercise was never traced."""


def metric_table(trace: bool) -> dict[str, str]:
    """Metric names and units this run must emit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload in this process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    table = metric_table(bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir,
                     results / f"{tag}-spans.jsonl.gz" if args.trace else None)
    except (ProgramError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = result["figures"]
    unknown = [name for name in table if name not in figures and not _is_count_or_time(name)]
    if unknown:
        print(f"error: no figure for {', '.join(unknown)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(figures.get(name, 0.0)), "unit": unit}
               for name, unit in table.items()}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result, "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    report = result["report"]
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} ==")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("log " + " ".join(f"{k}={v}" for k, v in report["stats"].items()))
    print(" ".join(f"{k}={report[k]:.4g}" for k in ("passes", "traced_passes", "seconds",
                                                     "reference_kernel_ms", "reference_samples")))
    print("figures (times at reference speed; unscaled wall time in brackets)")
    for name, unit in FIGURE_UNITS.items():
        if name in figures:
            raw = report["unscaled"].get(name)
            unscaled = f"  [{raw:.6g}]" if raw is not None and unit not in ("count",) else ""
            print(f"  {name:<24} {figures[name]:.6g} {unit}{unscaled}")
    if args.trace:
        print(f"per-layer (lead group: {report['lead_group']})")
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _is_count_or_time(name: str) -> bool:
    """A per-layer figure of a traced function that may simply not have
    been called in this workload (its value is then 0)."""
    function, _, field = name.rpartition(".")
    return field in COUNT_FIELDS + ("s", "self_s") and function in traced_names()


if __name__ == "__main__":
    sys.exit(main())
