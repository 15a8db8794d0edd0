"""feedrank: multi-behaviour sequential recommendation.

Models the implicit-then-explicit order of user actions on an item, with an
optional transformer session encoder blending long- and short-term
preferences, trained end-to-end on a hand-rolled gradient-checked tensor
engine.
"""

from .container import FormatError, load_checkpoint, read_container, save_checkpoint, write_container
from .data import (ColumnSpec, DataError, EvalCase, InteractionStore, PreparedDataset, SideInfo,
                   build_side_info, ingest, leave_one_out_split, load_prepared,
                   save_prepared)
from .evaluation import evaluate, hr_at_k, ndcg_at_k, topk_sweep
from .models import BertITEModel, ITEModel, ModelConfig, build_model, predict_score
from .tensor import ConfigError, Parameter, ParameterRegistry, ShapeError, Tensor, no_grad
from .training import (Adam, NonFiniteLossError, TrainingConfig, fit, joint_loss, pad_sequence,
                       sample_negatives, train_epoch)

__version__ = "0.1.0"

__all__ = [
    "Adam", "BertITEModel", "ColumnSpec", "ConfigError", "DataError", "EvalCase", "FormatError",
    "ITEModel", "InteractionStore", "ModelConfig", "NonFiniteLossError", "Parameter",
    "ParameterRegistry", "PreparedDataset", "ShapeError", "SideInfo", "Tensor", "TrainingConfig",
    "build_model", "build_side_info", "evaluate", "fit", "hr_at_k", "ingest",
    "joint_loss", "leave_one_out_split", "load_checkpoint", "load_prepared", "ndcg_at_k", "no_grad",
    "pad_sequence", "predict_score", "read_container", "sample_negatives", "save_checkpoint",
    "save_prepared", "topk_sweep", "train_epoch", "write_container",
]
