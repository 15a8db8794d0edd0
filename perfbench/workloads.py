"""The benchmark's three workloads.

Each workload makes its inputs once from the benchmark seed (the program's
own seed stays fixed at 42), then runs the same *pass* again and again in a
closed loop: the next pass starts when the last one returns. A pass begins
with set-up and ends with the timed work. Every pass of a run does the same
work on the same inputs, so its outputs must repeat bit for bit.

* ``fit-ite``: ``feedrank prepare`` then ``feedrank train`` for ``ite``
  through ``cli.main``, with per-epoch evaluation and a checkpoint.
* ``train-bert-si``: ``feedrank prepare``, then ``training.train_epoch``
  for ``bert-ite-si``; no evaluation.
* ``eval-bert``: ``feedrank evaluate`` on an untrained ``bert-ite``
  checkpoint (written once by ``feedrank train`` with ``epochs = 0``).

The program is reached only through ``cli.main``, ``training.train_epoch``
and ``evaluation``; the data, model and container functions called here
either build what ``train_epoch`` takes or read back the program's outputs
to check them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .logsynth import LogSpec, write_log

PROGRAM_SEED = 42
TOPK = 10
EVAL_NEGATIVES = 999
SCORE_RTOL = 1e-5            # float32 agreement of single-row and batched scores
SCORE_ATOL = 1e-6
CONSISTENCY_CASES = 8        # eval-bert cases re-scored candidate by candidate


class ProgramError(RuntimeError):
    """A CLI command exited non-zero: the run cannot go on."""


@dataclass
class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class PassOutput:
    work_units: int          # example rows trained, or cases ranked
    outputs: object          # compared across passes
    figures: dict            # issue-level figures of this pass (train_loss, hr_at_10, ...)


def run_cli(argv: list[str]) -> str:
    from feedrank import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise ProgramError(f"feedrank {' '.join(argv)} exited {code}")
    return buf.getvalue()


def parse_stats(prepare_stdout: str) -> dict:
    """users/items/implicit/explicit/labels/eval cases as printed by prepare."""
    stats = {}
    for line in prepare_stdout.splitlines():
        key, _, value = line.rpartition(" ")
        key = key.strip()
        if key in ("users", "items", "implicit", "explicit", "labels", "eval cases"):
            stats[key.replace(" ", "_")] = int(value)
    return stats


def rows_per_epoch(dataset: Path, negatives: int = 9) -> int:
    """Example rows ``build_epoch_examples`` yields: each positive of both
    matrices plus its sampled negatives."""
    from feedrank import data

    store = data.load_prepared(str(dataset)).store
    return (store.num_implicit_pairs() + store.num_explicit_pairs()) * (1 + negatives)


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def _write_ini(path: Path, variant: str, dataset: Path, out: Path, epochs: int) -> None:
    path.write_text(
        f"[run]\nvariant = {variant}\nseed = {PROGRAM_SEED}\nout = {out}\neval_topk = {TOPK}\n"
        f"[data]\nprepared = {dataset}\n"
        f"[model]\nembedding_dim = 8\nseq_len = 20\n"
        f"[training]\nepochs = {epochs}\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: LogSpec
    epochs: int
    # functions the traced run must see called at least once
    required: tuple
    # probe whose latencies make step_ms: training batches or ranked cases
    step_source: str = "steps"

    def make_inputs(self, workdir: Path, seed: int) -> dict:
        events, categories = write_log(workdir / "log", self.spec, seed)
        return {"events": events, "categories": categories, "dataset": workdir / "dataset.bin",
                "stats": {}}

    def prepare(self, inputs: dict) -> None:
        out = run_cli(["prepare", "--events", str(inputs["events"]),
                       "--categories", str(inputs["categories"]),
                       "--out", str(inputs["dataset"])])
        inputs["stats"] = parse_stats(out)

    def work(self, inputs: dict) -> object:
        """One pass: set-up, then the timed work. Returns what ``collect``
        needs; nothing after the program's last call belongs here."""
        raise NotImplementedError

    def collect(self, inputs: dict, raw: object, checks: Checks) -> PassOutput:
        """Read back and check one pass's outputs, outside its timing."""
        raise NotImplementedError

    def after_run(self, inputs: dict, checks: Checks) -> None:
        """Checks made once per run, outside the timed passes."""


class FitIte(Workload):
    def make_inputs(self, workdir, seed):
        inputs = super().make_inputs(workdir, seed)
        inputs["config"] = workdir / "run.ini"
        inputs["run_dir"] = workdir / "run"
        _write_ini(inputs["config"], "ite", inputs["dataset"], inputs["run_dir"], self.epochs)
        return inputs

    def work(self, inputs):
        self.prepare(inputs)
        run_cli(["train", "--config", str(inputs["config"]), "--no-timestamps"])

    def collect(self, inputs, raw, checks):
        run_dir = inputs["run_dir"]
        epochs = [json.loads(line) for line in
                  (run_dir / "epochs.jsonl").read_text(encoding="utf-8").splitlines()]
        if "rows_per_epoch" not in inputs:
            inputs["rows_per_epoch"] = rows_per_epoch(inputs["dataset"])
        hr = epochs[-1]["hr"]
        random_hr = TOPK / (1 + EVAL_NEGATIVES)
        checks.check(hr > random_hr, f"fit-ite: hr@{TOPK} {hr} at or below random rate {random_hr}")
        outputs = ((run_dir / "epochs.jsonl").read_bytes(),
                   hashlib.sha256((run_dir / "model.ckpt").read_bytes()).hexdigest())
        figures = {"train_loss": float(np.mean([e["mean_loss"] for e in epochs])), "hr_at_10": hr}
        return PassOutput(inputs["rows_per_epoch"] * self.epochs, outputs, figures)


class TrainBertSi(Workload):
    def work(self, inputs):
        from feedrank import data, models, training

        self.prepare(inputs)
        prepared = data.load_prepared(str(inputs["dataset"]))
        config = models.ModelConfig(embedding_dim=8, seq_len=20, transformer_layers=2,
                                    attention_heads=2, dropout=0.1,
                                    side_dim=prepared.side_info.num_categories)
        model = models.build_model("bert-ite-si", prepared.store.num_users,
                                   prepared.store.num_items, config, seed=PROGRAM_SEED)
        train_config = training.TrainingConfig(batch_size=512, seed=PROGRAM_SEED)
        optimizer = training.Adam.from_config(model.params, train_config)
        losses = []
        for epoch in range(self.epochs):
            rng = np.random.default_rng([PROGRAM_SEED, epoch])
            report = training.train_epoch(model, prepared.store, train_config, rng,
                                          prepared.side_info, optimizer)
            losses.append(report.mean_loss)
        return losses, model

    def collect(self, inputs, raw, checks):
        losses, model = raw
        if "rows_per_epoch" not in inputs:
            inputs["rows_per_epoch"] = rows_per_epoch(inputs["dataset"])
        outputs = (tuple(losses), _digest(model.params.state_arrays()))
        return PassOutput(inputs["rows_per_epoch"] * self.epochs, outputs,
                          {"train_loss": float(np.mean(losses))})


class EvalBert(Workload):
    def make_inputs(self, workdir, seed):
        inputs = super().make_inputs(workdir, seed)
        self.prepare(inputs)
        config = workdir / "run.ini"
        run_dir = workdir / "run"
        _write_ini(config, "bert-ite", inputs["dataset"], run_dir, epochs=0)
        run_cli(["train", "--config", str(config), "--no-timestamps"])
        inputs["checkpoint"] = run_dir / "model.ckpt"
        return inputs

    def work(self, inputs):
        return run_cli(["evaluate", "--checkpoint", str(inputs["checkpoint"]),
                        "--dataset", str(inputs["dataset"]), "--topk", str(TOPK),
                        "--no-timestamps"])

    def collect(self, inputs, out, checks):
        hr = float(out.split("HR=")[1].split()[0])
        return PassOutput(inputs["stats"]["eval_cases"], out, {"hr_at_10": hr})

    def after_run(self, inputs, checks):
        """Re-score every candidate of a few cases one at a time through
        ``model.forward`` and ``predict_score``, and check the rank
        ``evaluation.case_rank`` returns against those scores: it must lie
        within the ranks they allow at float32 tolerance. Scoring many
        candidates together must not let them see each other, as a
        K/V-reuse change could; a leak moves the batched scores and so the
        rank. Only public functions are used, however evaluation batches."""
        from feedrank import container, data, evaluation, models, no_grad, training

        model, _, meta = container.load_checkpoint(str(inputs["checkpoint"]))
        prepared = data.load_prepared(str(inputs["dataset"]))
        store, seed = prepared.store, int(meta.get("seed", 0))
        for case in prepared.cases[:CONSISTENCY_CASES]:
            rank = evaluation.case_rank(model, case, store, None, seed=seed)
            # the session context evaluation builds for this case
            rng = np.random.default_rng([seed, case.user])
            seq = training.pad_sequence(case.history, model.config.seq_len, store.num_items,
                                        store.observed_any(case.user) | {case.item}, rng)
            candidates = np.concatenate([[case.item], case.negatives]).astype(np.int64)
            user = np.array([case.user], dtype=np.int64)
            scores = np.empty(candidates.size)
            with no_grad():
                for j in range(candidates.size):
                    res = model.forward(user, seq[None, :], candidates[j:j + 1])
                    scores[j] = models.predict_score(res.x_hat.data.astype(np.float64),
                                                     res.y_hat.data.astype(np.float64))[0]
            slack = SCORE_ATOL + SCORE_RTOL * abs(scores[0])
            lowest = 1 + int(np.sum(scores[1:] > scores[0] + slack))
            highest = 1 + int(np.sum(scores[1:] >= scores[0] - slack))
            checks.check(lowest <= rank <= highest,
                         f"eval-bert: user {case.user} ranked {rank} by evaluation, "
                         f"{lowest}..{highest} by candidates scored one at a time")


_COMMON = ("cli.cmd_prepare", "data.ingest", "data.leave_one_out_split", "data.build_side_info",
           "data.save_prepared", "data.load_prepared", "data.sample_unobserved",
           "training.build_epoch_examples", "training.sample_negatives", "training.joint_loss",
           "training.Adam.step", "training.train_epoch", "tensor.Tensor.backward",
           "layers.EmbeddingTable.lookup", "layers.apply_tower", "tensor.matmul", "tensor.relu",
           "tensor.sigmoid", "container.write_container", "container.read_container")
_ENCODER = ("models.BertITEModel.forward", "layers.multi_head_self_attention", "layers.pffn",
            "layers.transformer_layer", "tensor.gelu", "tensor.softmax_rows", "tensor.layer_norm",
            "training.pad_sequence")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    FitIte(
        name="fit-ite",
        # long histories and few users: training rows outweigh the 1000
        # candidates ranked per user, so the per-epoch data path leads
        spec=LogSpec(users=200, items=1600, median_events=40.0),
        epochs=2,
        required=_COMMON + ("cli.cmd_train", "models.ITEModel.forward", "models.predict_score",
                            "evaluation.case_rank")),
    TrainBertSi(
        name="train-bert-si",
        spec=LogSpec(users=60, items=600),
        epochs=1,
        required=_COMMON + _ENCODER + ("data.SideInfo.item_matrix", "data.SideInfo.user_matrix",
                                       "tensor.dropout")),
    EvalBert(
        name="eval-bert",
        spec=LogSpec(users=60, items=1100),
        epochs=0,
        required=_ENCODER + ("cli.cmd_evaluate", "data.load_prepared", "container.read_container",
                             "container.load_checkpoint", "layers.EmbeddingTable.lookup",
                             "layers.apply_tower", "tensor.matmul", "tensor.relu", "tensor.sigmoid",
                             "models.predict_score", "evaluation.case_rank",
                             "evaluation.topk_sweep"),
        step_source="cases"),
)}
