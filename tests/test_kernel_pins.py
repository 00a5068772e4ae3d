"""Exact pins of the training step's in-place kernel against its out-of-place formulas.

MLP.forward, MLP.backward, ce_loss_batch and centroid compute their results in
place, with fewer temporaries. Each test here writes the plain expression out
and requires the same bits (np.array_equal or ==, no tolerance), so a change
that reassociates or reorders the arithmetic fails here even when it stays
within every gradient-check tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from genreplay.losses import ce_loss_batch, centroid
from genreplay.model import MLP, PROB_CLAMP
from genreplay.numerics import Rng

# extreme logits and probabilities overflow exp and 1/y_p on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

PIN = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_forward(model, x):
    """(pre_acts, acts, features, y_p, u) from the out-of-place expressions."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    a = x
    pre_acts, acts = [], []
    for w, b in zip(model.weights, model.biases):
        z = a @ w + b
        a = np.maximum(z, 0.0)
        pre_acts.append(z)
        acts.append(a)
    u = a @ model.head_w + model.head_b
    y_p = np.clip(1.0 / (1.0 + np.exp(-u)), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return pre_acts, acts, a, y_p, u


def reference_backward(model, rec, d_yp, d_features):
    """The flat gradient from the out-of-place expressions."""
    grad = np.empty(model.n_params)
    g_ws, g_bs, g_head_w = model._views(grad)
    du = d_yp * rec.y_p * (1.0 - rec.y_p)
    np.matmul(rec.features.T, du, out=g_head_w)
    grad[-1] = du.sum()
    da = np.outer(du, model.head_w)
    if d_features is not None:
        da = da + d_features
    for li in range(len(model.weights) - 1, -1, -1):
        dz = da * (rec.pre_acts[li] > 0)
        a_prev = rec.x if li == 0 else rec.acts[li - 1]
        np.matmul(a_prev.T, dz, out=g_ws[li])
        dz.sum(axis=0, out=g_bs[li])
        if li:
            da = dz @ model.weights[li].T
    return grad


def reference_ce(y_p, labels):
    y_p = np.asarray(y_p, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = y_p.size
    value = float(np.mean(-(y * np.log(y_p) + (1.0 - y) * np.log(1.0 - y_p))))
    grad = (-(y / y_p) + (1.0 - y) / (1.0 - y_p)) / n
    return value, grad


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


@st.composite
def model_and_batch(draw):
    """A model of random widths and init scale, and a batch x for it.

    A large init scale and large inputs push logits past both clamps; some
    batches are one row, some a 1-d vector, some hold a NaN row.
    """
    widths = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    scale = draw(st.sampled_from([0.5, 1.0, 8.0, 40.0]))
    model = MLP(widths, Rng(draw(st.integers(0, 2**16))).fork("init"), scale)
    model.head_b = draw(st.sampled_from([0.0, 25.0, -25.0]))
    n = draw(st.integers(1, 12))
    x = draw(arrays(float, (n, widths[0]), elements=st.floats(-50.0, 50.0)))
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = np.nan
    if n == 1 and draw(st.booleans()):
        x = x[0]
    return model, x


@PIN
@given(case=model_and_batch())
def test_forward_matches_out_of_place_expressions(case):
    model, x = case
    rec = model.forward(x)
    pre_acts, acts, features, y_p, u = reference_forward(model, x)
    assert all(same(a, b) for a, b in zip(rec.pre_acts, pre_acts))
    assert all(same(a, b) for a, b in zip(rec.acts, acts))
    assert same(rec.features, features)
    assert same(rec.u, u)
    assert same(rec.y_p, y_p)


def test_forward_pins_both_clamps_and_nan():
    # one hidden unit passing x through, so u = x - 20 row by row
    model = MLP([1, 1], Rng(0))
    model.params[...] = [1.0, 0.0, 1.0, -20.0]
    x = np.array([[0.0], [40.0], [20.0], [np.nan]])
    rec = model.forward(x)
    assert rec.y_p[0] == PROB_CLAMP
    assert rec.y_p[1] == 1.0 - PROB_CLAMP
    assert rec.y_p[2] == 0.5
    assert np.isnan(rec.y_p[3])
    assert same(rec.y_p, reference_forward(model, x)[3])


@PIN
@given(case=model_and_batch(), data=st.data())
def test_backward_matches_out_of_place_expressions(case, data):
    model, x = case
    x = np.nan_to_num(np.atleast_2d(x))
    rec = model.forward(x)
    n, d = rec.features.shape
    d_yp = data.draw(arrays(float, n, elements=st.floats(-5.0, 5.0)))
    d_feat = data.draw(arrays(float, (n, d), elements=st.floats(-5.0, 5.0)))
    want_plain = reference_backward(model, rec, d_yp, None)
    assert same(model.backward(rec, d_yp, None), want_plain)
    # None stands for zeros: the objective passes None when RS does not run
    assert same(model.backward(rec, d_yp, np.zeros((n, d))), want_plain)
    assert same(reference_backward(model, rec, d_yp, np.zeros((n, d))), want_plain)
    assert same(model.backward(rec, d_yp, d_feat), reference_backward(model, rec, d_yp, d_feat))
    # d_yp None stands for zeros as well
    want_feat_only = reference_backward(model, rec, np.zeros(n), d_feat)
    assert same(model.backward(rec, None, d_feat), want_feat_only)


def test_backward_with_ce_upstream_on_a_training_sized_batch():
    rng = Rng(3)
    model = MLP([16, 64, 64], rng.fork("init"))
    x = rng.fork("x").normal(size=(56, 16))
    labels = (rng.fork("y").uniform(size=56) > 0.5).astype(int)
    rec = model.forward(x)
    _, d_yp = ce_loss_batch(rec.y_p, labels)
    d_feat = rng.fork("f").normal(size=rec.features.shape)
    for upstream in (None, np.zeros_like(d_feat), d_feat):
        want = reference_backward(model, rec, d_yp, upstream)
        assert same(model.backward(rec, d_yp, upstream), want)


probs = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@PIN
@given(data=st.data())
def test_ce_matches_mean_formula(data):
    # up to 300 rows, past the 128-element blocks of numpy's pairwise sum
    n = data.draw(st.integers(1, 300))
    y_p = data.draw(arrays(float, n, elements=probs))
    labels = data.draw(arrays(int, n, elements=st.integers(0, 1)))
    value, grad = ce_loss_batch(y_p, labels)
    want_value, want_grad = reference_ce(y_p, labels)
    assert value == want_value
    assert np.array_equal(grad, want_grad)


@PIN
@given(data=st.data())
def test_centroid_matches_mean(data):
    n = data.draw(st.integers(1, 60))
    d = data.draw(st.integers(1, 70))
    features = data.draw(arrays(float, (n, d), elements=st.floats(-1e3, 1e3)))
    assert np.array_equal(centroid(features), features.mean(axis=0))


@PIN
@given(c=arrays(float, st.integers(1, 130), elements=st.floats(-1e3, 1e3)))
def test_centroid_norm_matches_linalg_norm(c):
    # rs_loss_with_grads computes the centroid norm as sqrt(c @ c)
    assert np.sqrt(c @ c) == np.linalg.norm(c)
