"""Supervision signals: cross-entropy, relative separation, and their combination.

The relative-separation (RS) term pushes generated-fake features away from the
generated-real centroid instead of label-supervising the generated-real side.
Each loss comes with an exact gradient w.r.t. its feature inputs so the trainer
can compose objectives without autodiff.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import check_real

RS_METRICS = ("cosine", "l2")
RS_GRANULARITIES = ("sample_wise", "centroid_based")

# smoothing inside the L2 distance so its gradient is defined everywhere
_L2_SMOOTH = 1e-12


@dataclass(frozen=True)
class LossConfig:
    rs_metric: str = "cosine"
    rs_granularity: str = "sample_wise"
    eps_cos: float = 1e-8

    def __post_init__(self):
        if self.rs_metric not in RS_METRICS:
            raise ValueError(f"unknown rs_metric {self.rs_metric!r}")
        if self.rs_granularity not in RS_GRANULARITIES:
            raise ValueError(f"unknown rs_granularity {self.rs_granularity!r}")
        check_real("eps_cos", self.eps_cos)
        if self.eps_cos <= 0:
            raise ValueError("eps_cos must be positive")


@dataclass(frozen=True)
class BatchLossBreakdown:
    l_cf: float
    l_ce_gen_real: float
    l_rs: float
    alpha: float
    l_c: float
    l_overall: float


def ce_loss_batch(y_p, labels):
    """Mean CE over a batch plus d(mean CE)/d y_p per sample."""
    y_p = np.asarray(y_p, dtype=float)
    y = np.asarray(labels, dtype=float)
    if y_p.size == 0:
        return 0.0, y_p.copy()
    if (y_p <= 0.0).any() or (y_p >= 1.0).any():
        raise ValueError("y_p entries must lie strictly inside (0,1)")
    n = y_p.size
    not_yp = 1.0 - y_p
    not_y = 1.0 - y
    value = float((-(y * np.log(y_p) + not_y * np.log(not_yp))).sum() / n)
    grad = (-(y / y_p) + not_y / not_yp) / n
    return value, grad


def centroid(features):
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("centroid needs a non-empty 2-d feature array")
    return features.sum(axis=0) / features.shape[0]


def _cos_rows_with_grads(fake, c, nc, eps):
    """cos(f, c) with eps-padded norms for every row f of fake (m, d), plus gradients.

    nc is the norm of c. Returns the (m,) cosines and their (m, d) gradients
    w.r.t. each row and w.r.t. c.
    """
    nf = np.sqrt(np.vecdot(fake, fake))
    nf_eps = nf + eps
    nc_eps = nc + eps
    denom = nf_eps * nc_eps
    dot = np.vecdot(fake, c)
    f_unit = np.zeros_like(fake)
    np.divide(fake, nf[:, None], out=f_unit, where=nf[:, None] > 0)
    c_unit = c / nc if nc > 0 else np.zeros_like(c)
    d_f = c / denom[:, None] - dot[:, None] * f_unit / (nf_eps**2 * nc_eps)[:, None]
    d_c = fake / denom[:, None] - dot[:, None] * c_unit / (nf_eps * nc_eps**2)[:, None]
    return dot / denom, d_f, d_c


def _dist_rows_with_grads(fake, c):
    """Smoothed L2 distance ||f - c|| for every row f of fake (m, d), plus gradients."""
    diff = fake - c
    dist = np.sqrt(np.vecdot(diff, diff) + _L2_SMOOTH)
    d_f = diff / dist[:, None]
    return dist, d_f, -d_f


def rs_loss(fake_features, real_centroid, cfg):
    """Relative separation value only (see rs_loss_with_grads)."""
    value, _, _ = rs_loss_with_grads(fake_features, real_centroid, None, cfg)
    return value


def rs_loss_with_grads(fake_features, real_centroid, real_count, cfg):
    """RS loss and gradients w.r.t. fake features and (optionally) real features.

    Cosine: mean cosine similarity between fake features and the real centroid;
    minimizing it increases angular separation. L2: negated mean distance, so
    minimizing the returned value increases separation for both metrics.
    Centroid-based granularity collapses the fake side to its centroid first.

    real_count, when given, is the number of generated-real samples behind the
    centroid; the returned d_real is then the per-real-sample feature gradient
    (the centroid gradient divided by that count). With real_count None, d_real
    is the gradient w.r.t. the centroid itself.
    """
    fake = np.asarray(fake_features, dtype=float)
    c = np.asarray(real_centroid, dtype=float)
    if fake.ndim != 2 or fake.shape[0] == 0:
        raise ValueError("rs_loss needs a non-empty 2-d fake feature array")
    if cfg.rs_metric == "cosine":
        # np.linalg.norm's formula for a 1-d float array
        nc = np.sqrt(c @ c)
        if nc <= cfg.eps_cos:
            raise ValueError("degenerate geometry: real centroid has ~zero norm under cosine metric")

    m = fake.shape[0]
    centroid_based = cfg.rs_granularity == "centroid_based"
    # centroid-based: the fake side is one row, its centroid
    rows = fake.sum(axis=0, keepdims=True) / m if centroid_based else fake
    if cfg.rs_metric == "cosine":
        vals, d_rows, d_c_rows = _cos_rows_with_grads(rows, c, nc, cfg.eps_cos)
    else:
        dist, d_rows, d_c_rows = _dist_rows_with_grads(rows, c)
        vals, d_rows, d_c_rows = -dist, -d_rows, -d_c_rows
    value = vals.sum() / len(rows)
    d_fake = d_rows / m
    if centroid_based:
        # every fake row gets 1/m of the centroid's gradient
        d_fake = np.repeat(d_fake, m, axis=0)
    d_c = d_c_rows.sum(axis=0) / len(rows)

    d_real = d_c if real_count is None else d_c / real_count
    return float(value), d_fake, d_real


def combine_losses(l_ce_gen_real, l_rs, l_cf, alpha):
    """Confusion-aware combination: l_c = a*ce + (1-a)*rs; overall = l_c + l_cf."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    l_c = alpha * l_ce_gen_real + (1.0 - alpha) * l_rs
    return BatchLossBreakdown(
        l_cf=float(l_cf),
        l_ce_gen_real=float(l_ce_gen_real),
        l_rs=float(l_rs),
        alpha=float(alpha),
        l_c=float(l_c),
        l_overall=float(l_c + l_cf),
    )
