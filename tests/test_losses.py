"""Cross-entropy, relative-separation variants, and their exact gradients."""

import numpy as np
import pytest

from genreplay.losses import (
    LossConfig,
    _cos_rows_with_grads,
    _dist_rows_with_grads,
    ce_loss_batch,
    centroid,
    rs_loss,
    rs_loss_with_grads,
)
from genreplay.numerics import Rng, finite_diff_grad

ALL_RS_CONFIGS = [
    LossConfig(rs_metric="cosine", rs_granularity="sample_wise"),
    LossConfig(rs_metric="cosine", rs_granularity="centroid_based"),
    LossConfig(rs_metric="l2", rs_granularity="sample_wise"),
    LossConfig(rs_metric="l2", rs_granularity="centroid_based"),
]


class TestConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.rs_metric == "cosine"
        assert cfg.rs_granularity == "sample_wise"

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError, match="rs_metric"):
            LossConfig(rs_metric="manhattan")
        with pytest.raises(ValueError, match="rs_granularity"):
            LossConfig(rs_granularity="pairwise")


class TestCrossEntropy:
    def test_hand_values(self):
        assert ce_loss_batch([0.5], [1])[0] == pytest.approx(np.log(2.0))
        assert ce_loss_batch([0.5], [0])[0] == pytest.approx(np.log(2.0))
        assert ce_loss_batch([0.9], [1])[0] == pytest.approx(-np.log(0.9))
        assert ce_loss_batch([0.9], [0])[0] == pytest.approx(-np.log(0.1))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            ce_loss_batch([0.0], [1])
        with pytest.raises(ValueError):
            ce_loss_batch([1.0], [0])
        with pytest.raises(ValueError):
            ce_loss_batch([0.5, 1.0], [1, 0])

    @pytest.mark.parametrize("y_p", [[np.nan, 0.0], [1.0, np.nan]])
    def test_nan_does_not_hide_a_boundary_value(self, y_p):
        with pytest.raises(ValueError, match="strictly inside"):
            ce_loss_batch(y_p, [1, 0])

    @pytest.mark.parametrize("y_p", [[np.nan, 0.5], [np.nan, np.nan]])
    def test_nan_alone_passes_the_bounds_check(self, y_p):
        value, grad = ce_loss_batch(y_p, [1, 0])
        assert np.isnan(value)
        assert np.isnan(grad[0])

    def test_batch_mean_and_gradient(self):
        y_p = np.array([0.5, 0.8])
        labels = np.array([1, 0])
        val, grad = ce_loss_batch(y_p, labels)
        assert val == pytest.approx((np.log(2.0) - np.log(0.2)) / 2.0)
        # d/dy_p of mean CE: label1 -> -1/(2*y_p); label0 -> 1/(2*(1-y_p))
        assert grad[0] == pytest.approx(-1.0 / (2 * 0.5))
        assert grad[1] == pytest.approx(1.0 / (2 * 0.2))

    def test_batch_gradient_matches_fd(self):
        y_p = np.array([0.3, 0.6, 0.9])
        labels = np.array([1, 0, 1])
        _, grad = ce_loss_batch(y_p, labels)
        fd = finite_diff_grad(lambda p: ce_loss_batch(p, labels)[0], y_p, h=1e-6)
        assert np.allclose(grad, fd, atol=1e-6)

    def test_empty_batch_raises(self):
        # as centroid and rs_loss_with_grads do: a mean over no rows is no loss
        with pytest.raises(ValueError, match="non-empty batch"):
            ce_loss_batch(np.array([]), np.array([]))


class TestCentroid:
    def test_mean(self):
        f = np.array([[0.0, 0.0], [2.0, 4.0]])
        assert np.array_equal(centroid(f), [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            centroid(np.empty((0, 3)))


class TestRsValues:
    def test_cosine_identical_directions(self):
        cfg = LossConfig(rs_metric="cosine")
        f = np.array([[1.0, 0.0], [2.0, 0.0]])
        c = np.array([3.0, 0.0])
        assert rs_loss(f, c, cfg) == pytest.approx(1.0, abs=1e-6)

    def test_cosine_orthogonal(self):
        cfg = LossConfig(rs_metric="cosine")
        f = np.array([[0.0, 1.0]])
        c = np.array([1.0, 0.0])
        assert rs_loss(f, c, cfg) == pytest.approx(0.0, abs=1e-8)

    def test_l2_is_negated_distance(self):
        cfg = LossConfig(rs_metric="l2")
        f = np.array([[3.0, 0.0], [0.0, 4.0]])
        c = np.array([0.0, 0.0])
        assert rs_loss(f, c, cfg) == pytest.approx(-3.5, abs=1e-6)

    def test_centroid_granularity_collapses_fakes(self):
        cfg = LossConfig(rs_metric="l2", rs_granularity="centroid_based")
        f = np.array([[2.0, 0.0], [4.0, 0.0]])
        c = np.array([0.0, 0.0])
        assert rs_loss(f, c, cfg) == pytest.approx(-3.0, abs=1e-6)

    def test_cosine_degenerate_centroid_raises(self):
        cfg = LossConfig(rs_metric="cosine")
        with pytest.raises(ValueError, match="degenerate"):
            rs_loss(np.ones((2, 3)), np.zeros(3), cfg)

    def test_empty_fakes_raise(self):
        with pytest.raises(ValueError, match="non-empty"):
            rs_loss(np.empty((0, 3)), np.ones(3), LossConfig())


class TestRsGradients:
    @pytest.mark.parametrize("cfg", ALL_RS_CONFIGS, ids=lambda c: f"{c.rs_metric}-{c.rs_granularity}")
    def test_fake_side_matches_fd(self, cfg):
        rng = Rng(13)
        fake = rng.fork("f").normal(size=(5, 4)) + 1.0
        c = rng.fork("c").normal(size=4) + 2.0
        _, d_fake, _ = rs_loss_with_grads(fake, c, None, cfg)

        def val_at(flat):
            return rs_loss(flat.reshape(fake.shape), c, cfg)

        fd = finite_diff_grad(val_at, fake.ravel(), h=1e-6).reshape(fake.shape)
        assert np.allclose(d_fake, fd, atol=1e-5)

    @pytest.mark.parametrize("cfg", ALL_RS_CONFIGS, ids=lambda c: f"{c.rs_metric}-{c.rs_granularity}")
    def test_centroid_side_matches_fd(self, cfg):
        rng = Rng(17)
        fake = rng.fork("f").normal(size=(4, 3)) + 1.0
        c = rng.fork("c").normal(size=3) + 2.0
        _, _, d_c = rs_loss_with_grads(fake, c, None, cfg)
        fd = finite_diff_grad(lambda cc: rs_loss(fake, cc, cfg), c, h=1e-6)
        assert np.allclose(d_c, fd, atol=1e-5)

    def test_real_count_scales_centroid_gradient(self):
        cfg = LossConfig()
        fake = Rng(1).normal(size=(3, 4)) + 1.0
        c = np.ones(4)
        _, _, d_c = rs_loss_with_grads(fake, c, None, cfg)
        _, _, d_per_real = rs_loss_with_grads(fake, c, 6, cfg)
        assert np.allclose(d_per_real, d_c / 6.0)


def rs_trials():
    """300 (fake, c) cases, with a zero-norm fake row and, in every other, post-ReLU zeros."""
    for trial in range(300):
        rng = Rng(4000 + trial)
        m = int(rng.fork("m").integers(1, 20))
        fake = rng.fork("f").normal(size=(m, 16))
        c = rng.fork("c").normal(size=16) + 0.5
        if trial % 2:
            # post-ReLU features: exact zeros in rows and in the centroid
            fake = np.maximum(fake, 0.0)
            c = np.maximum(c, 0.0)
        fake[trial % m] = 0.0  # one zero-norm fake row
        yield fake, c


class TestSampleWiseRsMatchesPerRowLoop:
    """Both RS granularities run one row helper; each row of it is the one-row call."""

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_bit_identical_including_zero_norm_rows(self, metric):
        for fake, c in rs_trials():
            if metric == "cosine":
                rows = lambda f, c=c: _cos_rows_with_grads(f, c, np.linalg.norm(c))
            else:
                rows = lambda f, c=c: _dist_rows_with_grads(f, c)
            vals, d_f, d_c = rows(fake)
            for j in range(len(fake)):
                v, d_fj, d_cj = rows(fake[j : j + 1])
                assert vals[j] == v[0]
                assert np.array_equal(d_f[j], d_fj[0])
                assert np.array_equal(d_c[j], d_cj[0])

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_centroid_based_is_sample_wise_on_fake_centroid(self, metric):
        cfg = LossConfig(rs_metric=metric, rs_granularity="centroid_based")
        one_row_cfg = LossConfig(rs_metric=metric, rs_granularity="sample_wise")
        for fake, c in rs_trials():
            m = len(fake)
            value, d_fake, d_real = rs_loss_with_grads(fake, c, 6, cfg)
            want_value, want_cf, want_real = rs_loss_with_grads(
                fake.mean(0, keepdims=True), c, 6, one_row_cfg
            )
            assert value == want_value
            # every fake row gets 1/m of the centroid's gradient
            assert np.array_equal(d_fake, np.repeat(want_cf / m, m, axis=0))
            assert np.array_equal(d_real, want_real)
