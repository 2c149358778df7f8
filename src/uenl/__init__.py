"""Out-of-distribution detection with a learned uncertainty temperature on
normalized logits, built on a self-contained float64 autodiff core.

The pieces: ``tensor`` (autodiff), ``model`` (MLP backbone + uncertainty
head), ``losses`` (the uncertainty-tempered objective and baselines),
``scoring`` (post-hoc OOD scores), ``metrics`` (FPR95/AUROC/AUPR),
``config`` (the schema; its data specs draw the synthetic benchmarks),
``data`` (IDX/CSV ingestion), and ``harness`` (training, evaluation,
sweeps) behind the ``uenl`` command-line tool.
"""

from .config import ExperimentConfig, load_config
from .data import Dataset, load_csv, load_idx
from .gradcheck import finite_diff_check
from .harness import Checkpoint, build_datasets, evaluate, sweep, train
from .losses import logitnorm_ce, plain_ce, uenl_total
from .metrics import MetricReport, aupr, auroc, fpr_at_95_tpr
from .model import ModelConfig, ModelParams, forward, init_params, uncertainty_forward
from .rng import RngStream
from .scoring import energy_score, msp_score, odin_score, uncertainty_score
from .tensor import GraphNode, Tensor, apply, backward, leaf

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "load_config",
    "Dataset",
    "load_csv",
    "load_idx",
    "finite_diff_check",
    "Checkpoint",
    "build_datasets",
    "evaluate",
    "sweep",
    "train",
    "logitnorm_ce",
    "plain_ce",
    "uenl_total",
    "MetricReport",
    "aupr",
    "auroc",
    "fpr_at_95_tpr",
    "ModelConfig",
    "ModelParams",
    "forward",
    "init_params",
    "uncertainty_forward",
    "RngStream",
    "energy_score",
    "msp_score",
    "odin_score",
    "uncertainty_score",
    "GraphNode",
    "Tensor",
    "apply",
    "backward",
    "leaf",
    "__version__",
]
