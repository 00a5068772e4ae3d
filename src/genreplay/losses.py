"""Supervision signals: cross-entropy and relative separation, and a batch's loss record.

The relative-separation (RS) term pushes generated-fake features away from the
generated-real centroid instead of label-supervising the generated-real side.
Each loss comes with an exact gradient w.r.t. its feature inputs so the trainer
can compose objectives without autodiff.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import check_count

RS_METRICS = ("cosine", "l2")
RS_GRANULARITIES = ("sample_wise", "centroid_based")

# padding on the cosine's norms; a real centroid with a norm up to it is rejected
EPS_COS = 1e-8
# smoothing inside the L2 distance so its gradient is defined everywhere
_L2_SMOOTH = 1e-12


@dataclass(frozen=True)
class LossConfig:
    rs_metric: str = "cosine"
    rs_granularity: str = "sample_wise"

    def __post_init__(self):
        if self.rs_metric not in RS_METRICS:
            raise ValueError(f"unknown rs_metric {self.rs_metric!r}")
        if self.rs_granularity not in RS_GRANULARITIES:
            raise ValueError(f"unknown rs_granularity {self.rs_granularity!r}")


@dataclass(frozen=True)
class BatchLossBreakdown:
    l_cf: float
    l_ce_gen_real: float
    l_rs: float
    alpha: float
    l_c: float
    l_overall: float


def ce_loss_batch(y_p, labels, split=None):
    """Mean CE over a non-empty batch plus d(mean CE)/d y_p per sample.

    labels must be 0 or 1 (1 for fake), of any dtype: bool, int and float give
    the same bits; a stream carries no other label. Then q = (y - 1) + y_p is
    exactly y_p on a label-1 row and exactly -(1 - y_p) on a label-0 row, so
    each row's CE term is -log|q| and its gradient -1/q, the bits of the
    textbook terms -y log y_p - (1 - y) log(1 - y_p).

    With split, rows [:split] and [split:] are two batches that share one pass
    over the per-row terms. The result is then (mean CE of rows [:split], mean
    CE of rows [split:], grad), where each part of grad is its own batch's
    gradient: the bits of two separate calls. Both parts must be non-empty.
    """
    y_p = np.asarray(y_p, dtype=float)
    n = y_p.size
    if n == 0:
        raise ValueError("ce_loss_batch needs a non-empty batch")
    if split is not None and not 0 < split < n:
        raise ValueError(f"split must lie in (0, {n}), got {split}")
    # fmin and fmax skip NaN entries, which no bound comparison flags either
    if np.fmin.reduce(y_p) <= 0.0 or np.fmax.reduce(y_p) >= 1.0:
        raise ValueError("y_p entries must lie strictly inside (0,1)")
    q = np.subtract(labels, 1.0, dtype=float)
    q += y_p
    log_q = np.log(np.abs(q))
    grad = np.divide(-1.0, q, out=q)
    if split is None:
        grad /= n
        return float(-log_q.sum() / n), grad
    grad[:split] /= split
    grad[split:] /= n - split
    return float(-log_q[:split].sum() / split), float(-log_q[split:].sum() / (n - split)), grad


def centroid(features):
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("centroid needs a non-empty 2-d feature array")
    return features.sum(axis=0) / features.shape[0]


def _cos_rows_with_grads(fake, c, nc):
    """Sum of cos(f, c) with EPS_COS-padded norms over the rows f of fake (m, d), plus gradients.

    nc is the norm of c, above EPS_COS. Returns the sum, the (m, d) gradient of
    each row's cosine w.r.t. that row, and the (d,) gradient of the sum w.r.t.
    c. With a_i = 1 / (|f_i|' |c|') and b_i = dot_i / (|f_i| |f_i|'^2 |c|')
    (0 on a zero row), where ' marks a padded norm, row i's gradient is
    a_i c - b_i f_i, and the sum's is a @ fake - (sum_i cos_i) / (|c| |c|') c.
    """
    nf = np.sqrt(np.vecdot(fake, fake))
    nf_eps = nf + EPS_COS
    nc_eps = nc + EPS_COS
    a = 1.0 / (nf_eps * nc_eps)
    dot = np.vecdot(fake, c)
    b = np.zeros(len(fake))
    np.divide(dot, nf * nf_eps**2 * nc_eps, out=b, where=nf > 0)
    d_f = a[:, None] * c
    d_f -= b[:, None] * fake
    cos_sum = dot @ a
    d_c = a @ fake
    d_c -= cos_sum / (nc * nc_eps) * c
    return cos_sum, d_f, d_c


def _dist_rows_with_grads(fake, c):
    """Sum of the smoothed L2 distances ||f - c|| over the rows f of fake (m, d), plus gradients.

    Returns the sum, the (m, d) gradient of each row's distance w.r.t. that
    row, and the (d,) gradient of the sum w.r.t. c.
    """
    diff = fake - c
    dist = np.sqrt(np.vecdot(diff, diff) + _L2_SMOOTH)
    d_f = diff / dist[:, None]
    return dist.sum(), d_f, -d_f.sum(axis=0)


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
    (the centroid gradient divided by that count); it must be an integer >= 1.
    With real_count None, d_real is the gradient w.r.t. the centroid itself.
    """
    if real_count is not None:
        check_count("real_count", real_count, 1)
    fake = np.asarray(fake_features, dtype=float)
    c = np.asarray(real_centroid, dtype=float)
    if fake.ndim != 2 or fake.shape[0] == 0:
        raise ValueError("rs_loss needs a non-empty 2-d fake feature array")
    m = fake.shape[0]
    centroid_based = cfg.rs_granularity == "centroid_based"
    # centroid-based: the fake side is one row, its centroid
    rows = centroid(fake)[None] if centroid_based else fake
    if cfg.rs_metric == "cosine":
        # np.linalg.norm's formula for a 1-d float array
        nc = np.sqrt(c @ c)
        if nc <= EPS_COS:
            raise ValueError("degenerate geometry: real centroid has ~zero norm under cosine metric")
        total, d_rows, d_c = _cos_rows_with_grads(rows, c, nc)
    else:
        dist, d_rows, d_c = _dist_rows_with_grads(rows, c)
        total, d_rows, d_c = -dist, -d_rows, -d_c
    value = total / len(rows)
    d_fake = d_rows / m
    if centroid_based:
        # every fake row gets 1/m of the centroid's gradient
        d_fake = np.repeat(d_fake, m, axis=0)
    d_c /= len(rows)

    d_real = d_c if real_count is None else d_c / real_count
    return float(value), d_fake, d_real
