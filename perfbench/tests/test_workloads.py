import dataclasses

from perfbench.logsynth import LogSpec
from perfbench.workloads import CONSISTENCY_CASES, WORKLOADS, Checks


def test_eval_bert_check_catches_candidates_that_see_each_other(tmp_path, monkeypatch):
    from feedrank import models

    workload = dataclasses.replace(WORKLOADS["eval-bert"], spec=LogSpec(users=12, items=200))
    inputs = workload.make_inputs(tmp_path, seed=5)
    clean = Checks()
    workload.after_run(inputs, clean)
    assert clean.attempted == CONSISTENCY_CASES and clean.failed == 0

    forward = models.BertITEModel.forward

    def leaky(self, users, *args, **kwargs):
        result = forward(self, users, *args, **kwargs)
        # each candidate scored together gets another candidate's score
        result.x_hat.data[:] = result.x_hat.data[::-1].copy()
        return result

    monkeypatch.setattr(models.BertITEModel, "forward", leaky)
    leaked = Checks()
    workload.after_run(inputs, leaked)
    assert leaked.failed > 0


def test_groups_split_epoch_data_path_from_setup_data_work():
    from perfbench.worker import group_self_times

    spans = [
        ["data.leave_one_out_split", 0.0, 3.0, -1],
        ["data.sample_unobserved", 1.0, 2.0, 0],
        ["training.train_epoch", 4.0, 10.0, -1],
        ["training.build_epoch_examples", 4.0, 8.0, 2],
        ["training.sample_negatives", 5.0, 7.0, 3],
        ["data.sample_unobserved", 5.5, 6.5, 4],
        ["tensor.matmul", 8.0, 9.0, 2],
    ]
    groups = group_self_times(spans)
    assert groups["data_path"] == 2.0 + 1.0 + 1.0
    assert groups["data_setup"] == 2.0 + 1.0
    assert groups["forward_ops"] == 1.0
    assert groups["backward"] == groups["optimizer"] == 0.0
