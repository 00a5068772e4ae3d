"""Confusion score: how close past generated-real replays sit to current fakes.

A small centroid distance means replayed "real" samples resemble the fakes the
detector is currently learning, so direct supervision on them is risky and the
weight alpha should be low. This module owns the whole score: it draws the
probe's gen-real rows from the stored pairs, cuts both pools to PROBE_CAP rows,
and maps the feature-centroid distance to alpha. Distance and normalizer
variants are configurable.
"""

import math
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


def confusion_score(past_gen_real_features, current_fake_features, cfg):
    """(s, alpha) for two feature pools: their centroid distance and its normalized weight."""
    a = centroid(past_gen_real_features)
    b = centroid(current_fake_features)
    if cfg.distance_metric == "l2":
        s = float(np.linalg.norm(a - b))
    else:
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise ValueError("degenerate geometry: zero-norm centroid under cosine distance")
        # cosine distance of raw features can exceed 0 only; clip fp noise at 0
        s = max(float(1.0 - (a @ b) / (na * nb)), 0.0)
    if cfg.normalizer == "tanh":
        return s, float(np.tanh(s))
    return s, min(s / 5.0, 1.0)


def _subsample(rows, rng):
    if len(rows) <= PROBE_CAP:
        return rows
    return rows[rng.choice(len(rows), PROBE_CAP)]


def compute_alpha(model, pairs, current_fakes, cfg, rng):
    """(s, alpha) of the stored pairs against the current task's fakes, as confusion_score.

    Each of the k GeneratorPairs draws ceil(PROBE_CAP / k) fresh gen-real rows
    from its g_real on fork pool/pair{i}/real (a pair's replay pool is not
    read). current_fakes is an (n_fake, input_dim) array of the current task's
    fake rows. Each pool is cut to PROBE_CAP rows by a draw without replacement
    on fork probe/gen-real or probe/cur-fake, then both are fed through the
    model and compared by their feature centroids.
    """
    if not len(pairs) or not len(current_fakes):
        raise ValueError("both sample pools must be non-empty")
    per = math.ceil(PROBE_CAP / len(pairs))
    pool_rng, probe_rng = rng.fork("pool"), rng.fork("probe")
    gen_real = np.concatenate(
        [p.g_real.sample(per, pool_rng.fork(f"pair{i}").fork("real")) for i, p in enumerate(pairs)]
    )
    real_pool = _subsample(gen_real, probe_rng.fork("gen-real"))
    fake_pool = _subsample(np.asarray(current_fakes, dtype=float), probe_rng.fork("cur-fake"))
    return confusion_score(model.features(real_pool), model.features(fake_pool), cfg)
