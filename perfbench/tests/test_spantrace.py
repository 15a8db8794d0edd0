import numpy as np
import pytest

from perfbench.spantrace import Patcher, Tracer, self_times, summarize


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 3.0, 5.0, 0], ["z", 9.0, 12.0, 0]]
    # children cover [1, 5] and [9, 10] of the root
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_summarize_counts_nested_same_name_spans_once_in_inclusive_time():
    spans = [["f", 0.0, 10.0, -1], ["g", 1.0, 3.0, 0], ["f", 4.0, 7.0, 0], ["f", 12.0, 13.0, -1]]
    summary = summarize(spans)
    assert summary["f"] == pytest.approx({"s": 11.0, "self_s": 5.0 + 3.0 + 1.0, "calls": 3})
    assert summary["g"] == pytest.approx({"s": 2.0, "self_s": 2.0, "calls": 1})


def test_patch_reaches_names_bound_at_import_time():
    from feedrank import data, evaluation, layers, models, tensor, training

    originals = (data.sample_unobserved, training.pad_sequence, models.predict_score,
                 tensor.relu, tensor.sigmoid, tensor.gelu)
    tracer = Tracer()
    with Patcher("feedrank") as patcher:
        patcher.replace("feedrank.data", "sample_unobserved", tracer.wrapper("data.sample_unobserved"))
        patcher.replace("feedrank.training", "pad_sequence", tracer.wrapper("training.pad_sequence"))
        patcher.replace("feedrank.models", "predict_score", tracer.wrapper("models.predict_score"))
        for op in ("relu", "sigmoid", "gelu"):
            patcher.replace("feedrank.tensor", op, tracer.wrapper(f"tensor.{op}"))
        assert training.sample_unobserved is data.sample_unobserved is not originals[0]
        assert evaluation.pad_sequence is training.pad_sequence is not originals[1]
        assert evaluation.predict_score is models.predict_score is not originals[2]
        assert layers.ACTIVATIONS["relu"] is tensor.relu is not originals[3]
        assert layers.ACTIVATIONS["sigmoid"] is tensor.sigmoid
        assert layers.ACTIVATIONS["gelu"] is tensor.gelu
        layers.ACTIVATIONS["gelu"](tensor.Tensor(np.ones(3)))
    assert [s[0] for s in tracer.spans] == ["tensor.gelu"]
    assert (data.sample_unobserved, training.pad_sequence, models.predict_score,
            tensor.relu, tensor.sigmoid, tensor.gelu) == originals
    assert training.sample_unobserved is originals[0]
    assert layers.ACTIVATIONS["relu"] is originals[3]


def test_tracer_links_children_and_counts():
    from feedrank import tensor

    tracer = Tracer()
    with Patcher("feedrank") as patcher:
        patcher.replace("feedrank.tensor", "concat", tracer.wrapper("tensor.concat"))
        patcher.replace("feedrank.tensor", "concat_many", tracer.wrapper(
            "tensor.concat_many", lambda args, kwargs, result: [("rows", result.shape[0])]))
        parts = [tensor.Tensor(np.ones((2, 3))) for _ in range(3)]
        tensor.concat_many(parts, axis=0)
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("tensor.concat_many", -1), ("tensor.concat", 0), ("tensor.concat", 0)]
    assert tracer.counts == {"tensor.concat_many.rows": 6}
