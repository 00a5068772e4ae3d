"""Confusion score: how close past generated-real replays sit to current fakes.

A small centroid distance means replayed "real" samples resemble the fakes the
detector is currently learning, so direct supervision on them is risky and the
weight alpha should be low. Distance and normalizer variants are configurable.
"""

from dataclasses import dataclass

import numpy as np

from .losses import centroid

DISTANCE_METRICS = ("l2", "cosine_distance")
NORMALIZERS = ("tanh", "linear_over_5")
# the most rows of each pool that compute_alpha feeds through the model
PROBE_CAP = 512


@dataclass(frozen=True)
class DcsConfig:
    distance_metric: str = "l2"
    normalizer: str = "linear_over_5"

    def __post_init__(self):
        if self.distance_metric not in DISTANCE_METRICS:
            raise ValueError(f"unknown distance_metric {self.distance_metric!r}")
        if self.normalizer not in NORMALIZERS:
            raise ValueError(f"unknown normalizer {self.normalizer!r}")


@dataclass(frozen=True)
class DcsRecord:
    task_index: int
    epoch: int
    s: float
    alpha: float


def confusion_distance(past_gen_real_features, current_fake_features, cfg):
    a = centroid(past_gen_real_features)
    b = centroid(current_fake_features)
    if cfg.distance_metric == "l2":
        return float(np.linalg.norm(a - b))
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("degenerate geometry: zero-norm centroid under cosine distance")
    return float(1.0 - (a @ b) / (na * nb))


def normalize_score(s, normalizer):
    if s < 0:
        raise ValueError(f"confusion score must be >= 0, got {s}")
    if normalizer == "tanh":
        return float(np.tanh(s))
    if normalizer == "linear_over_5":
        return min(s / 5.0, 1.0)
    raise ValueError(f"unknown normalizer {normalizer!r}")


def confusion_score(past_gen_real_features, current_fake_features, cfg):
    """Distance and normalized alpha for directly supplied feature pools."""
    s = confusion_distance(past_gen_real_features, current_fake_features, cfg)
    # cosine distance of raw features can exceed 0 only; clip fp noise at 0
    s = max(s, 0.0)
    return s, normalize_score(s, cfg.normalizer)


def _subsample(rows, cap, rng):
    if len(rows) <= cap:
        return rows
    return rows[rng.choice(len(rows), size=cap, replace=False)]


def compute_alpha(model, past_gen_real, current_fakes, cfg, rng, task_index=0, epoch=0):
    """Alpha from model features of (subsampled) input rows.

    past_gen_real is an (n_real, input_dim) array of generated-real rows and
    current_fakes an (n_fake, input_dim) array of the current task's fake
    rows. Each pool is cut to PROBE_CAP rows by a draw without
    replacement, then both are fed through the model and compared by their
    feature centroids.
    """
    if len(past_gen_real) == 0 or len(current_fakes) == 0:
        raise ValueError("both sample pools must be non-empty")
    real_pool = _subsample(np.asarray(past_gen_real, dtype=float), PROBE_CAP, rng.fork("gen-real"))
    fake_pool = _subsample(np.asarray(current_fakes, dtype=float), PROBE_CAP, rng.fork("cur-fake"))
    f_real = model.features(real_pool)
    f_fake = model.features(fake_pool)
    s, alpha = confusion_score(f_real, f_fake, cfg)
    return DcsRecord(task_index=task_index, epoch=epoch, s=s, alpha=alpha)
