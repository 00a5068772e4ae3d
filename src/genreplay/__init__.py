"""Desk-scale generative-replay continual learning lab.

Trains a small binary detector through a stream of synthetic (or ingested)
domain-shifted tasks, replaying past tasks from fitted density models, and
weighting direct supervision of generated-real replays against a relative
separation objective according to how confusable they are with current fakes.
"""

from .confusion import DcsConfig, DcsRecord, compute_alpha, confusion_score
from .losses import BatchLossBreakdown, LossConfig, centroid, rs_loss
from .metrics import MetricsTable, accuracy, auc, build_table, performance_drop
from .model import MLP
from .numerics import AdamState, Rng, adam_step, finite_diff_grad
from .replay import GeneratorModel, GeneratorPair, Signature, fit_generator, sample_replay, signature_similarity
from .streams import DatasetStream, DomainSpec, FeatureTable, TaskStream, load_feature_dataset, make_scenario
from .trainer import (
    RunState, Strategy, TrainConfig, assemble_batch, fit_task_generators, run_incremental, train_task,
)

__all__ = [
    "AdamState", "BatchLossBreakdown", "DatasetStream", "DcsConfig",
    "DcsRecord", "DomainSpec", "FeatureTable", "GeneratorModel", "GeneratorPair",
    "LossConfig", "MLP", "MetricsTable", "Rng", "RunState",
    "Signature", "Strategy", "TaskStream", "TrainConfig", "accuracy",
    "adam_step", "assemble_batch", "auc", "build_table", "centroid",
    "compute_alpha", "confusion_score", "finite_diff_grad",
    "fit_generator", "fit_task_generators", "load_feature_dataset",
    "make_scenario", "performance_drop", "rs_loss", "run_incremental", "sample_replay",
    "signature_similarity", "train_task",
]
