"""Exact pins of the training step's in-place kernel against its out-of-place formulas.

MLP.forward, MLP.backward, ce_loss_batch, centroid and rs_loss_with_grads
compute their results in place, with fewer temporaries; MLP.backward can also
write into a caller's buffer. Each test here writes the plain expression out and requires the same
bits (np.array_equal or ==, no tolerance), so a change that reassociates or
reorders the arithmetic fails here even when it stays within every
gradient-check tolerance. The same holds for the passes that share that
arithmetic: MLP.features and MLP.scores against forward, and ce_loss_batch's
split against two separate calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from genreplay.losses import _L2_SMOOTH, EPS_COS, LossConfig, ce_loss_batch, centroid, rs_loss_with_grads
from genreplay.model import BLOCK_ROWS, BLOCK_WIDTH_STEP, MLP, PROB_CLAMP
from genreplay.numerics import Rng

# extreme logits and probabilities overflow exp and 1/y_p on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

PIN = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_forward(model, x):
    """(pre_acts, acts, features, y_p, u) from the out-of-place expressions."""
    x = np.asarray(x, dtype=float)
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
    """A model of random widths with its initial params scaled, and a batch x for it.

    Params scaled up and large inputs push logits past both clamps; some
    batches are one row, some hold a NaN row.
    """
    widths = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    scale = draw(st.sampled_from([0.5, 1.0, 8.0, 40.0]))
    model = MLP(widths, Rng(draw(st.integers(0, 2**16))).fork("init"))
    model.params *= scale
    model.head_b = draw(st.sampled_from([0.0, 25.0, -25.0]))
    n = draw(st.integers(1, 12))
    x = draw(arrays(float, (n, widths[0]), elements=st.floats(-50.0, 50.0)))
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = np.nan
    return model, x


@PIN
@given(case=model_and_batch())
def test_forward_matches_out_of_place_expressions(case):
    model, x = case
    rec = model.forward(x)
    pre_acts, acts, features, y_p, _ = reference_forward(model, x)
    assert all(same(a, b) for a, b in zip(rec.pre_acts, pre_acts))
    assert all(same(a, b) for a, b in zip(rec.acts, acts))
    assert same(rec.features, features)
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
    zeros = np.zeros(n)
    assert same(model.backward(rec, zeros, d_feat), reference_backward(model, rec, zeros, d_feat))


@PIN
@given(case=model_and_batch(), data=st.data())
def test_backward_into_one_reused_buffer_matches_out_of_place_expressions(case, data):
    model, x = case
    x = np.nan_to_num(np.atleast_2d(x))
    rec = model.forward(x)
    n, d = rec.features.shape
    d_yp = data.draw(arrays(float, n, elements=st.floats(-5.0, 5.0)))
    d_feat = data.draw(arrays(float, (n, d), elements=st.floats(-5.0, 5.0)))
    # NaN fill: an entry backward failed to write would show
    buf = np.full(model.n_params, np.nan)
    for upstream in (None, np.zeros((n, d)), d_feat, None):
        got = model.backward(rec, d_yp, upstream, out=buf)
        assert got is buf
        assert same(buf, reference_backward(model, rec, d_yp, upstream))


def test_backward_without_out_returns_a_fresh_array_each_call():
    # C1 holds one gradient while its probes compute others
    rng = Rng(4)
    model = MLP([6, 8, 8], rng.fork("init"))
    rec = model.forward(rng.fork("x").normal(size=(10, 6)))
    d_yp = rng.fork("d").normal(size=10)
    first = model.backward(rec, d_yp)
    kept = first.copy()
    model.backward(rec, d_yp, out=np.empty(model.n_params))
    second = model.backward(rec, 2.0 * d_yp)
    assert second is not first
    assert not np.shares_memory(first, second)
    assert same(first, kept)
    assert not same(second, kept)


def test_backward_with_and_without_out_alternated_give_equal_bits():
    # both build their layer views on one path, so switching buffers each call rebuilds them
    rng = Rng(5)
    model = MLP([6, 8, 8], rng.fork("init"))
    rec = model.forward(rng.fork("x").normal(size=(10, 6)))
    d_yp = rng.fork("d").normal(size=10)
    d_feat = rng.fork("f").normal(size=rec.features.shape)
    want = reference_backward(model, rec, d_yp, d_feat)
    buf = np.full(model.n_params, np.nan)
    for _ in range(3):
        fresh = model.backward(rec, d_yp, d_feat)
        assert fresh is not buf and same(fresh, want)
        assert model.backward(rec, d_yp, d_feat, out=buf) is buf
        assert same(buf, want)
        buf[...] = np.nan


@pytest.mark.parametrize(
    "make_out",
    [lambda n: np.empty(n - 1), lambda n: np.empty(n + 1), lambda n: np.empty((1, n)),
     lambda n: np.empty(n, dtype=np.float32), lambda n: np.empty(n, dtype=int),
     lambda n: np.empty(2 * n)[::2], lambda n: [0.0] * n],
    ids=["short", "long", "2d", "float32", "int", "strided", "list"],
)
def test_backward_rejects_an_out_of_the_wrong_size_or_dtype(make_out):
    model = MLP([3, 4], Rng(0))
    rec = model.forward(np.ones((2, 3)))
    message = rf"out must be a contiguous float64 array of shape \({model.n_params},\)"
    with pytest.raises(ValueError, match=message):
        model.backward(rec, np.ones(2), out=make_out(model.n_params))


def test_backward_with_ce_upstream_on_a_training_sized_batch():
    rng = Rng(3)
    model = MLP([16, 64, 64], rng.fork("init"))
    x = rng.fork("x").normal(size=(56, 16))
    labels = (rng.fork("y").uniform(size=56) > 0.5).astype(int)
    rec = model.forward(x)
    _, d_yp = ce_loss_batch(rec.y_p, labels)
    d_feat = rng.fork("f").normal(size=rec.features.shape)
    buf = np.empty(model.n_params)
    for upstream in (None, np.zeros_like(d_feat), d_feat):
        want = reference_backward(model, rec, d_yp, upstream)
        assert same(model.backward(rec, d_yp, upstream), want)
        assert same(model.backward(rec, d_yp, upstream, out=buf), want)


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


@st.composite
def model_and_rows(draw):
    """A model of 1-3 hidden layers of widths 1-130 and a batch of 1-1,500 rows for it.

    Half the batch sizes sit on a block edge, a multiple of BLOCK_ROWS or one
    row either side of it. Half the models have only hidden widths that are
    multiples of BLOCK_WIDTH_STEP, which MLP.features splits into blocks; the
    others draw width 1 often. Params scaled up and a head bias push scores
    past both clamps.
    """
    if draw(st.booleans()):
        width = st.integers(1, 130 // BLOCK_WIDTH_STEP).map(lambda k: k * BLOCK_WIDTH_STEP)
    else:
        width = st.one_of(st.just(1), st.integers(1, 130))
    widths = [draw(st.integers(1, 40))] + draw(st.lists(width, min_size=1, max_size=3))
    scale = draw(st.sampled_from([0.5, 1.0, 8.0, 40.0]))
    rng = Rng(draw(st.integers(0, 2**16)))
    model = MLP(widths, rng.fork("init"))
    model.params *= scale
    model.head_b = draw(st.sampled_from([0.0, 25.0, -25.0]))
    edge = st.builds(lambda k, d: max(1, k * BLOCK_ROWS + d), st.integers(1, 23), st.sampled_from([-1, 0, 1]))
    n = draw(st.one_of(edge, st.integers(1, 1500)))
    x = rng.fork("x").normal(size=(n, widths[0])) * draw(st.sampled_from([1.0, 50.0]))
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = np.nan
    return model, x


@settings(PIN, max_examples=200)
@given(case=model_and_rows())
def test_features_and_scores_match_forward(case):
    model, x = case
    rec = model.forward(x)
    assert same(model.features(x), rec.features)
    assert same(model.scores(x), rec.y_p)


def test_features_of_no_rows():
    model = MLP([3, 5, 4], Rng(0))
    assert model.features(np.empty((0, 3))).shape == (0, 4)


@PIN
@given(data=st.data())
def test_ce_split_matches_two_calls(data):
    n = data.draw(st.integers(2, 300))
    y_p = data.draw(arrays(float, n, elements=probs))
    labels = data.draw(arrays(int, n, elements=st.integers(0, 1)))
    for split in range(1, n):
        first, rest, grad = ce_loss_batch(y_p, labels, split=split)
        want_first, grad_first = ce_loss_batch(y_p[:split], labels[:split])
        want_rest, grad_rest = ce_loss_batch(y_p[split:], labels[split:])
        assert (first, rest) == (want_first, want_rest)
        assert np.array_equal(grad, np.concatenate([grad_first, grad_rest]))


@PIN
@given(data=st.data())
def test_ce_labels_as_bool_int_or_float_give_the_same_bits(data):
    n = data.draw(st.integers(2, 80))
    y_p = data.draw(arrays(float, n, elements=probs))
    labels = data.draw(arrays(bool, n))
    split = data.draw(st.integers(1, n - 1))
    for kwargs in ({}, {"split": split}):
        want = ce_loss_batch(y_p, labels.astype(float), **kwargs)
        for form in (labels, labels.astype(int), labels.astype(np.float32), labels.tolist()):
            got = ce_loss_batch(y_p, form, **kwargs)
            assert got[:-1] == want[:-1]
            assert np.array_equal(got[-1], want[-1])


@pytest.mark.parametrize("split", [0, 5, -1])
def test_ce_split_must_leave_both_parts_non_empty(split):
    with pytest.raises(ValueError, match="split must lie in"):
        ce_loss_batch(np.full(5, 0.5), np.zeros(5), split=split)


def reference_rs(fake, c, real_count, cfg):
    """rs_loss_with_grads from the out-of-place expressions of its closed form.

    Cosine, per row of the fake side: a = 1 / (|f|' |c|') and
    b = dot / (|f| |f|'^2 |c|') (0 on a zero row), with ' marking an
    EPS_COS-padded norm.
    """
    m = len(fake)
    centroid_based = cfg.rs_granularity == "centroid_based"
    rows = fake.sum(axis=0, keepdims=True) / m if centroid_based else fake
    if cfg.rs_metric == "cosine":
        nc = np.sqrt(c @ c)
        nf = np.sqrt(np.vecdot(rows, rows))
        nf_eps, nc_eps = nf + EPS_COS, nc + EPS_COS
        a = 1.0 / (nf_eps * nc_eps)
        dot = np.vecdot(rows, c)
        b = np.divide(dot, nf * nf_eps**2 * nc_eps, out=np.zeros(len(rows)), where=nf > 0)
        total = dot @ a
        d_rows = np.outer(a, c) - b[:, None] * rows
        d_c = a @ rows - total / (nc * nc_eps) * c
    else:
        diff = rows - c
        dist = np.sqrt(np.vecdot(diff, diff) + _L2_SMOOTH)
        total = -dist.sum()
        d_rows = -(diff / dist[:, None])
        d_c = (diff / dist[:, None]).sum(axis=0)
    d_fake = np.repeat(d_rows / m, m, axis=0) if centroid_based else d_rows / m
    d_c = d_c / len(rows)
    return float(total / len(rows)), d_fake, d_c if real_count is None else d_c / real_count


@st.composite
def rs_case(draw):
    """(fake, c, real_count, cfg): 1-20 fake rows of width 1-70, maybe post-ReLU, with a zero row."""
    m = draw(st.integers(1, 20))
    d = draw(st.integers(1, 70))
    rng = Rng(draw(st.integers(0, 2**16)))
    fake = rng.fork("f").normal(size=(m, d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    c = rng.fork("c").normal(size=d) + 0.5
    if draw(st.booleans()):
        # post-ReLU features: exact zeros in rows and in the centroid
        fake = np.maximum(fake, 0.0)
        c = np.maximum(c, 0.0)
    if draw(st.booleans()):
        fake[draw(st.integers(0, m - 1))] = 0.0
    if np.sqrt(c @ c) <= EPS_COS:
        c[0] = 1.0
    cfg = LossConfig(
        rs_metric=draw(st.sampled_from(["cosine", "l2"])),
        rs_granularity=draw(st.sampled_from(["sample_wise", "centroid_based"])),
    )
    return fake, c, draw(st.sampled_from([None, 1, 6, 33])), cfg


@settings(PIN, max_examples=300)
@given(case=rs_case())
def test_rs_matches_out_of_place_closed_form(case):
    fake, c, real_count, cfg = case
    value, d_fake, d_real = rs_loss_with_grads(fake, c, real_count, cfg)
    want_value, want_fake, want_real = reference_rs(fake, c, real_count, cfg)
    assert value == want_value
    assert same(d_fake, want_fake)
    assert same(d_real, want_real)
