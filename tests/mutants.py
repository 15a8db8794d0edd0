"""Seeded faults the test suite must catch, and a runner that checks it does.

Each mutant names a file, a text that occurs in it exactly once, the text
that replaces it, and the tests that must fail once it is applied. A
mutant whose text is missing or not unique is an error, not a skip: a
change to that code updates its mutants with it. A test added to catch a
fault adds the fault here.

    python tests/mutants.py

copies the tree into a temporary directory, runs every named test on the
unmutated copy (each must pass), then applies each mutant alone and runs
only its tests. It exits 1 if a named test passes under its mutant, or if a
mutant cannot be applied. Mutation analysis measures whether a suite
detects seeded faults (Jia and Harman, IEEE TSE 2011).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package, its tests, pytest's settings in pyproject.toml, and the
# benchmark harness that the metric-name tests import
COPIED = ("src", "tests", "pyproject.toml", "perfbench", "BENCHMARK.json")


@dataclass(frozen=True)
class Mutant:
    fault: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("evaluation pads may draw the case's own item when the store does not hold it out",
           "src/feedrank/evaluation.py",
           "observed = np.insert(observed, at, key)", "pass",
           ("tests/test_evaluation.py::TestSequenceModelEvaluation::test_context_equals_the_one_history_rebuild",)),
    Mutant("held-out pairs left out of the keys draws avoid",
           "src/feedrank/data.py",
           "cached = (pairs, np.insert(pairs, np.searchsorted(pairs, held), held), np.append(rows[first], -1))",
           "cached = (pairs, pairs.copy(), np.append(rows[first], -1))",
           ("tests/test_data.py::TestStoreAgainstReference::test_matrices_stats_and_held_out_rows",
            "tests/test_training.py::TestSampleNegatives::test_excluded_items_never_sampled")),
    Mutant("a dataset file's history lengths go unchecked against their users' event counts",
           "src/feedrank/data.py",
           "bad = np.flatnonzero((lengths < 0) | (lengths > events))", "bad = np.flatnonzero(lengths < 0)",
           ("tests/test_data.py::TestMalformedDataset::test_bad_history_length_rejected[too-long]",)),
    Mutant("a loaded dataset does not hold its cases' pairs out",
           "src/feedrank/data.py",
           'arrays["event_explicit"], (users, items))', 'arrays["event_explicit"], ((), ()))',
           ("tests/test_data.py::TestPreparedRoundTrip::test_split_round_trips",
            "tests/test_data.py::TestStoreAgainstReference::test_save_load_round_trip")),
    Mutant("ingest puts later file rows first among equal timestamps",
           "src/feedrank/data.py",
           "order = np.lexsort((rows, times[rows], users))",
           "order = np.lexsort((-rows, times[rows], users))",
           ("tests/test_data.py::TestLeaveOneOutSplit::test_timestamp_tie_breaks_by_file_order",
            "tests/test_data.py::TestEventTable::test_rows_are_each_users_events_by_time_then_file_order")),
    Mutant("a prepared file's explicit flags go unchecked",
           "src/feedrank/data.py",
           '"event_explicit": "flags", ', "",
           ("tests/test_data.py::TestMalformedDataset::test_ids_out_of_range_rejected[event_explicit-2]",
            "tests/test_data.py::TestMalformedDataset::test_ids_out_of_range_rejected[event_explicit--1]")),
    Mutant("without_pairs builds its offsets from every event, dropped ones too",
           "src/feedrank/data.py",
           "offsets = _row_offsets(event_users[keep], self.num_users)",
           "offsets = _row_offsets(event_users, self.num_users)",
           ("tests/test_data.py::TestStoreAgainstReference::"
            "test_without_pairs_moves_pairs_from_table_to_held_out",)),
    Mutant("the cached key arrays left writable",
           "src/feedrank/data.py",
           "arr.flags.writeable = False", "pass",
           ("tests/test_data.py::TestStoreAgainstReference::test_cached_keys_are_built_once_and_read_only",)),
    Mutant("add hands one gradient array to both operands",
           "src/feedrank/tensor.py",
           "_accumulate(b, gb.copy() if gb is g and a.grad is g else gb)", "_accumulate(b, gb)",
           ("tests/test_tensor.py::TestGradientOwnership::test_fan_out_gradients_match_the_copying_engine",
            "tests/test_tensor.py::TestAccumulate::test_two_leaves_get_separate_gradient_arrays")),
    Mutant("scale scales its gradient after handing it on",
           "src/feedrank/tensor.py",
           "_accumulate(x, np.multiply(g, c, out=g))", "_accumulate(x, g)\n        g *= c",
           ("tests/test_tensor.py::TestGradientOwnership::test_fan_out_gradients_match_the_copying_engine",)),
    Mutant("the folded one-query attention scores without 1/sqrt(d_h)",
           "src/feedrank/layers.py",
           "axis=-1), 1.0 / math.sqrt(hd))", "axis=-1), 1.0)",
           ("tests/test_layers.py::TestOneQueryAttention::test_matches_per_head_form_and_full_layer",)),
    Mutant("the folded one-query attention swaps Wq and Wk",
           "src/feedrank/layers.py",
           "T.matmul(wq, T.transpose_last2(wk))", "T.matmul(wk, T.transpose_last2(wq))",
           ("tests/test_layers.py::TestOneQueryAttention::test_matches_per_head_form_and_full_layer",)),
    Mutant("tensor.clamp, which the benchmark traces, deleted",
           "src/feedrank/tensor.py",
           "def clamp(", "def _clamp(",
           ("perfbench/tests/test_smoke.py::test_every_per_layer_metric_names_a_traced_function",
            "tests/test_training.py::TestJointLoss::test_float32_saturated_predictions_stay_finite",
            "tests/test_tensor.py::TestScalarAndLossOps::test_clamp_and_log_gradients")),
    Mutant("the sampler keeps the latest column of a repeated item",
           "src/feedrank/training.py",
           "keep[:, 1:] &= item[:, 1:] != item[:, :-1]", "keep[:, :-1] &= item[:, :-1] != item[:, 1:]",
           ("tests/test_training.py::TestDrawUnobservedMatchesReference::test_bit_identical",
            "tests/test_training.py::TestDrawUnobservedMatchesReference::test_rows_of_several_rounds")),
    Mutant("BERT's targets take their side bags from the sequences' inverse",
           "src/feedrank/models.py",
           "tgt_emb = self.item_table.lookup(targets, item_columns, target_at)",
           "tgt_emb = self.item_table.lookup(targets, item_columns, target_at if seq_at is None "
           "else np.resize(seq_at, target_at.shape))",
           ("tests/test_models.py::TestDistinctSideBags::test_training_forward_and_gradients",
            "tests/test_models.py::TestPrunedEncoder::test_matches_full_encoder",
            "tests/test_models.py::TestSharedPrefixForward::test_scores_ignore_candidate_order_and_chunking")),
    Mutant("the distinct users' side bags read in reverse order",
           "src/feedrank/models.py",
           "side_info.user_matrix(distinct)", "side_info.user_matrix(distinct[::-1])",
           ("tests/test_models.py::TestDistinctSideBags::test_training_forward_and_gradients",
            "tests/test_models.py::TestForwardBatchSideInfo::test_bert_si_reads_side_info_once_per_distinct_id")),
    Mutant("gather_rows scatters g feature-major over row-major offsets",
           "src/feedrank/tensor.py",
           "offsets.reshape(-1), g.reshape(-1))", "offsets.reshape(-1), g.reshape(idx.size, k).T.reshape(-1))",
           ("tests/test_tensor.py::TestGatherScatter::test_gradient_equals_row_wise_scatter_bit_for_bit",)),
    Mutant("the shared-prefix layer writes its candidate blocks in reverse order",
           "src/feedrank/layers.py",
           "out[block] = rows", "out[c - stop:c - start] = rows",
           ("tests/test_layers.py::TestSharedPrefixLayer::test_candidate_blocks_match_the_whole_array_layer",
            "tests/test_evaluation.py::TestSequenceModelEvaluation::"
            "test_shared_context_scores_match_one_candidate_at_a_time")),
    Mutant("the shared-prefix layer skips the first layer norm after its first candidate block",
           "src/feedrank/layers.py",
           "        T._layer_norm_features(a, layer.ln1_gain.data",
           "        if start == 0:\n            T._layer_norm_features(a, layer.ln1_gain.data",
           ("tests/test_layers.py::TestSharedPrefixLayer::test_candidate_blocks_match_the_whole_array_layer",
            "tests/test_evaluation.py::TestSequenceModelEvaluation::"
            "test_shared_context_scores_match_one_candidate_at_a_time")),
    Mutant("a parameter shares the array it was built from",
           "src/feedrank/tensor.py",
           "p = Parameter(name, np.array(data))", "p = Parameter(name, data)",
           ("tests/test_tensor.py::TestParameterRegistry::test_add_copies_its_input_and_makes_ints_float32",)),
    Mutant("linear drops its bias gradient",
           "src/feedrank/tensor.py",
           "_accumulate(bias, _unbroadcast(g, bias.shape))", "pass",
           ("tests/test_tensor.py::TestLinear::test_bit_identical_to_the_composed_form",
            "tests/test_tensor.py::TestLinear::test_gradients_match_finite_differences")),
    Mutant("linear leaves its weight gradient untransposed, which only a square layer survives",
           "src/feedrank/tensor.py",
           "_accumulate(weight, _dot(x.data.reshape(-1, k).T, g2).T)",
           "_accumulate(weight, _dot(x.data.reshape(-1, k).T, g2))",
           ("tests/test_tensor.py::TestLinear::test_bit_identical_to_the_composed_form",
            "tests/test_tensor.py::TestLinear::test_gradients_match_finite_differences")),
    Mutant("the backward walk clears a node before its backward runs",
           "src/feedrank/tensor.py",
           "                if node.grad is not None:\n                    node._backward(node.grad)\n"
           "                node.grad, node._parents, node._backward = None, (), None\n",
           "                node.grad, node._parents, node._backward = None, (), None\n"
           "                if node.grad is not None:\n                    node._backward(node.grad)\n",
           ("tests/test_tensor.py::TestBackwardWalk::test_a_consumer_is_freed_before_its_parents_backward_runs",
            "tests/test_tensor.py::TestMatmul::test_gradient_matches_finite_differences")),
    Mutant("a model class builds another class's variant",
           "src/feedrank/models.py",
           "if kind != self.kind:", "if kind is None:",
           ("tests/test_models.py::TestVariantRoster::test_variant_of_another_class_rejected",)),
    Mutant("a side variant builds with no categories",
           "src/feedrank/models.py",
           'if mode != "none" and config.side_dim <= 0:', 'if mode != "none" and config.side_dim < 0:',
           ("tests/test_models.py::TestVariantRoster::test_side_variant_needs_side_dim",)),
    Mutant("a checkpoint records its class's side-free variant, not the model's",
           "src/feedrank/container.py",
           '"variant": model.variant,', '"variant": type(model).variant,',
           ("tests/test_models.py::TestVariantRoster::test_checkpoint_records_the_models_variant",)),
    Mutant("a side-free checkpoint's side_dim goes unchecked",
           "src/feedrank/container.py",
           'variants[variant][1] == "none" and side_dim != 0:', 'variants[variant][1] == "none" and side_dim < 0:',
           ("tests/test_cli.py::TestEvaluate::test_side_mode_other_than_the_variants_exits_one",)),
    Mutant("a file of another kind or format number is read as if its header were this one's",
           "src/feedrank/container.py",
           "if line != HEADERS[kind]:", "if False:",
           ("tests/test_container.py::TestContainer::test_another_header_is_named_before_the_config_is_read",
            "tests/test_cli.py::TestFileFormats::test_exits_one_with_one_line")),
    Mutant("the command line prints numpy's floating-point warnings",
           "src/feedrank/cli.py",
           'with np.errstate(all="ignore"):', "with np.errstate():",
           ("tests/test_cli.py::TestTrain::test_overflowing_learning_rate_exits_one_with_one_line",)),
    Mutant("evaluate's pool threads score under numpy's default error state, not the caller's",
           "src/feedrank/evaluation.py",
           "with np.errstate(**state):", "with np.errstate():",
           ("tests/test_cli.py::TestEvaluate::test_workers_print_no_numpy_warnings",
            "tests/test_evaluation.py::TestIteEvaluation::test_cases_score_under_the_callers_error_state[2]")),
    Mutant("a re-run of train keeps the earlier run's model.ckpt",
           "src/feedrank/cli.py",
           '(out_dir / "model.ckpt").unlink(missing_ok=True)', "pass",
           ("tests/test_cli.py::TestTrain::test_non_finite_loss_exits_one",)),
)


def unapplicable(root: Path) -> list[str]:
    """A line for each mutant whose old text is not in its file exactly once."""
    problems = []
    for m in MUTANTS:
        count = (root / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.file}: {m.old!r} occurs {count} times ({m.fault})")
    return problems


def failing(root: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit code over ``tests`` in ``root``, and the ids of the
    named tests that failed or errored (any of a test's parameter sets)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
                              cwd=root, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        # a mutant that makes a sampler loop forever fails every test it names
        return -1, set(tests)
    finally:
        # examples hypothesis saved under one mutant must not decide the next
        shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    reported = [line.split()[1] for line in done.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    return done.returncode, {t for t in tests if any(r == t or r.startswith(t + "[") for r in reported)}


def main() -> int:
    problems = unapplicable(ROOT)
    for line in problems:
        print(f"error: {line}")
    if problems:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, root / name)
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        start = time.perf_counter()
        code, failed = failing(root, named)
        if code != 0 or failed:
            print(f"error: the named tests do not all pass unmutated (pytest exit {code}): {sorted(failed)}")
            return 1
        print(f"unmutated: {len(named)} named tests pass ({time.perf_counter() - start:.1f} s)")
        survivors = 0
        for m in MUTANTS:
            path = root / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                _, failed = failing(root, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            missed = [t for t in m.tests if t not in failed]
            survivors += bool(missed)
            verdict = "killed" if not missed else "SURVIVED, passing: " + ", ".join(missed)
            print(f"{verdict} ({time.perf_counter() - start:.1f} s): {m.fault}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
