"""Property tests: hand gradients of the RS and CE losses against finite differences,
AUC against pairwise counts, and CSV ingestion against the arrays written."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from genreplay import losses
from genreplay.losses import LossConfig, ce_loss_batch, rs_loss_with_grads
from genreplay.metrics import auc
from genreplay.numerics import finite_diff_grad
from genreplay.streams import load_feature_dataset

# deterministic and without an example database, like the rest of the suite
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
H = 1e-6

values = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def close(analytic, numeric):
    return np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


@st.composite
def rs_inputs(draw):
    """(fake rows, real rows, an EPS_COS value), some fake rows zeroed.

    Rows that are not zero keep a norm of at least 0.1, so a finite
    difference step never crosses the kink of the norm at 0. A zero row sits
    on that kink; the cosine's eps-padded norm makes it differentiable there,
    but only on the scale of EPS_COS, so zero rows come with EPS_COS 0.5.
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
    cfg = LossConfig(rs_metric=metric, rs_granularity=granularity)
    c = real.mean(axis=0)
    fake_side = fake.mean(axis=0, keepdims=True) if granularity == "centroid_based" else fake
    if metric == "cosine":
        # rs_loss rejects a centroid norm up to EPS_COS
        assume(np.linalg.norm(c) >= max(0.1, 2.0 * eps_cos))
        if granularity == "centroid_based":
            # the fake centroid is the row the norm acts on
            norm = np.linalg.norm(fake_side)
            assume(norm == 0.0 or norm >= 0.1)
            assume(norm >= 0.1 or eps_cos == 0.5)
    else:
        # the smoothed distance has its kink where a fake row meets the centroid
        assume(np.linalg.norm(fake_side - c, axis=1).min() >= 0.1)

    def loss_of_fake(flat):
        return rs_loss_with_grads(flat.reshape(fake.shape), c, len(real), cfg)[0]

    def loss_of_real(flat):
        return rs_loss_with_grads(fake, flat.reshape(real.shape).mean(axis=0), len(real), cfg)[0]

    with mock.patch.object(losses, "EPS_COS", eps_cos):
        _, d_fake, d_real = rs_loss_with_grads(fake, c, len(real), cfg)
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


@st.composite
def feature_tables(draw):
    """(features (n, d), labels, task ids or None, column order, line end, blank-line gaps).

    Task ids span int64, features span every finite float, columns come in
    any order, and gaps[i] blank lines precede data row i.
    """
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    feats = draw(arrays(float, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    tasks = draw(st.none() | st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(d + 1 + (tasks is not None))))
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    gaps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return feats, labels, tasks, order, line_end, gaps


def table_text(feats, labels, tasks, order, line_end, gaps, bad=None):
    """The CSV text of a feature table, features written at repr precision.

    bad, a (data row, column name, cell) triple, replaces one written cell.
    """
    names = [f"f{j}" for j in range(feats.shape[1])] + ["label"] + (["task"] if tasks is not None else [])
    lines = [",".join(names[i] for i in order)]
    for r in range(len(labels)):
        values = [repr(float(v)) for v in feats[r]] + [str(labels[r])]
        values += [str(tasks[r])] if tasks is not None else []
        row = dict(zip(names, values))
        if bad is not None and bad[0] == r:
            row[bad[1]] = bad[2]
        lines += [""] * gaps[r] + [",".join(row[names[i]] for i in order)]
    return line_end.join(lines) + line_end


def load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return load_feature_dataset(path)


@PROPERTY
@given(table=feature_tables())
def test_ingestion_reads_back_what_was_written(table):
    feats, labels, tasks, order, *_ = table
    samples = load_text(table_text(*table))
    # features in file column order, bit for bit: -0.0 and subnormals included
    expected = feats[:, [i for i in order if i < feats.shape[1]]]
    assert samples.features.tobytes() == expected.tobytes()
    assert samples.labels.tolist() == labels
    assert samples.tasks.tolist() == (tasks if tasks is not None else [0] * len(labels))


# kind: (cells to inject, the columns they go in, the error they raise)
BAD_CELLS = {
    "malformed": (["x", "1..5", "", "0x1p3"], "any", "malformed row {row}: "),
    "non-finite": (["nan", "inf", "-inf", "1e999"], "features", "row {row}: non-finite feature$"),
    "label": (["2", "-1"], "label", "row {row}: label must be 0 or 1, got {cell}$"),
    "not an integer": (["1.0", "1e0"], "label and task", "malformed row {row}: "),
}


@PROPERTY
@given(table=feature_tables(), data=st.data())
def test_ingestion_names_the_row_of_a_bad_cell(table, data):
    feats, labels, tasks, order, line_end, gaps = table
    kind = data.draw(st.sampled_from(sorted(BAD_CELLS)))
    cells, where, message = BAD_CELLS[kind]
    features = [f"f{j}" for j in range(feats.shape[1])]
    ints = ["label"] + (["task"] if tasks is not None else [])
    columns = {"any": features + ints, "features": features, "label": ["label"], "label and task": ints}
    name = data.draw(st.sampled_from(columns[where]))
    cell = data.draw(st.sampled_from(cells))
    r = data.draw(st.integers(0, len(labels) - 1))
    text = table_text(feats, labels, tasks, order, line_end, gaps, bad=(r, name, cell))
    # the header is row 1; every blank line counts
    row = 2 + r + sum(gaps[: r + 1])
    with pytest.raises(ValueError, match=message.format(row=row, cell=cell)):
        load_text(text)
