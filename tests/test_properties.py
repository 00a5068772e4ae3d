"""Property tests: hand gradients of the RS and CE losses against finite differences, AUC against pairwise counts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from genreplay.losses import LossConfig, ce_loss_batch, rs_loss_with_grads
from genreplay.metrics import auc
from genreplay.numerics import finite_diff_grad

# deterministic and without an example database, like the rest of the suite
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
H = 1e-6

values = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def close(analytic, numeric):
    return np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


@st.composite
def rs_inputs(draw):
    """(fake rows, real rows, eps_cos), some fake rows zeroed.

    Rows that are not zero keep a norm of at least 0.1, so a finite
    difference step never crosses the kink of the norm at 0. A zero row sits
    on that kink; the cosine's eps-padded norm makes it differentiable there,
    but only on the scale of eps_cos, so zero rows come with eps_cos 0.5.
    """
    m = draw(st.integers(1, 4))
    n_real = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    fake = draw(arrays(float, (m, d), elements=values))
    real = draw(arrays(float, (n_real, d), elements=values))
    zeroed = draw(arrays(bool, m))
    fake[zeroed] = 0.0
    norms = np.linalg.norm(fake, axis=1)
    assume(np.all(zeroed | (norms >= 0.1)))
    eps_cos = 0.5 if zeroed.any() else draw(st.sampled_from([1e-8, 0.5]))
    return fake, real, eps_cos


@pytest.mark.parametrize("metric", ["cosine", "l2"])
@pytest.mark.parametrize("granularity", ["sample_wise", "centroid_based"])
@PROPERTY
@given(inputs=rs_inputs())
def test_rs_gradients_match_finite_differences(metric, granularity, inputs):
    fake, real, eps_cos = inputs
    cfg = LossConfig(rs_metric=metric, rs_granularity=granularity, eps_cos=eps_cos)
    c = real.mean(axis=0)
    fake_side = fake.mean(axis=0, keepdims=True) if granularity == "centroid_based" else fake
    if metric == "cosine":
        # rs_loss rejects a centroid norm up to eps_cos
        assume(np.linalg.norm(c) >= max(0.1, 2.0 * eps_cos))
        if granularity == "centroid_based":
            # the fake centroid is the row the norm acts on
            norm = np.linalg.norm(fake_side)
            assume(norm == 0.0 or norm >= 0.1)
            assume(norm >= 0.1 or eps_cos == 0.5)
    else:
        # the smoothed distance has its kink where a fake row meets the centroid
        assume(np.linalg.norm(fake_side - c, axis=1).min() >= 0.1)

    _, d_fake, d_real = rs_loss_with_grads(fake, c, len(real), cfg)

    def loss_of_fake(flat):
        return rs_loss_with_grads(flat.reshape(fake.shape), c, len(real), cfg)[0]

    def loss_of_real(flat):
        return rs_loss_with_grads(fake, flat.reshape(real.shape).mean(axis=0), len(real), cfg)[0]

    assert close(d_fake.ravel(), finite_diff_grad(loss_of_fake, fake.ravel(), h=H))
    # d_real is the gradient for each real row behind the centroid
    assert close(np.tile(d_real, len(real)), finite_diff_grad(loss_of_real, real.ravel(), h=H))


@PROPERTY
@given(data=st.data())
def test_ce_gradient_matches_finite_differences(data):
    n = data.draw(st.integers(1, 8))
    y_p = data.draw(arrays(float, n, elements=st.floats(0.01, 0.99)))
    labels = data.draw(arrays(int, n, elements=st.integers(0, 1)))
    _, grad = ce_loss_batch(y_p, labels)
    numeric = finite_diff_grad(lambda p: ce_loss_batch(p, labels)[0], y_p, h=H)
    assert close(grad, numeric)


def pairwise_auc(scores, labels):
    """O(n^2) oracle: a fake/real pair scores 1 when ordered, 1/2 when tied."""
    pos, neg = scores[labels == 1][:, None], scores[labels == 0][None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return wins / (pos.size * neg.size)


# few distinct values, so most instances hold many ties, infinities included
quantized = st.sampled_from([-np.inf, 0.0, 0.25, 0.5, 0.75, 1.0, np.inf])


@PROPERTY
@given(data=st.data())
def test_auc_equals_pairwise_oracle(data):
    n = data.draw(st.integers(2, 40))
    scores = data.draw(arrays(float, n, elements=quantized))
    labels = data.draw(arrays(int, n, elements=st.integers(0, 1)))
    assume(0 < labels.sum() < n)
    # both sides are exact half-integer counts over the same denominator
    assert auc(scores, labels) == pairwise_auc(scores, labels)
