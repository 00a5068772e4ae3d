"""Confusion score: centroid distances, normalizers, and live alpha probing."""

from unittest import mock

import numpy as np
import pytest

import genreplay.confusion
from genreplay.confusion import (
    DcsConfig,
    compute_alpha,
    confusion_distance,
    confusion_score,
    normalize_score,
)
from genreplay.model import MLP
from genreplay.numerics import Rng


def pools(gap, dim=4, n=8):
    """Two tight clusters whose centroids sit exactly `gap` apart on axis 0."""
    a = np.zeros((n, dim))
    b = np.zeros((n, dim))
    b[:, 0] = gap
    return a, b


class TestConfig:
    def test_defaults(self):
        cfg = DcsConfig()
        assert cfg.distance_metric == "l2"
        assert cfg.normalizer == "tanh"

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError, match="distance_metric"):
            DcsConfig(distance_metric="cityblock")
        with pytest.raises(ValueError, match="normalizer"):
            DcsConfig(normalizer="relu")


class TestDistance:
    def test_l2_hand_value(self):
        a, b = pools(2.5)
        assert confusion_distance(a, b, DcsConfig()) == pytest.approx(2.5)

    def test_l2_identical_pools_zero(self):
        a, _ = pools(0.0)
        assert confusion_distance(a, a + 0.0, DcsConfig()) == pytest.approx(0.0)

    def test_cosine_orthogonal_is_one(self):
        cfg = DcsConfig(distance_metric="cosine_distance")
        a = np.tile([1.0, 0.0], (4, 1))
        b = np.tile([0.0, 1.0], (4, 1))
        assert confusion_distance(a, b, cfg) == pytest.approx(1.0)

    def test_cosine_scale_invariant(self):
        cfg = DcsConfig(distance_metric="cosine_distance")
        a = np.tile([1.0, 0.0], (4, 1))
        b = np.tile([2.0, 0.0], (4, 1))
        assert confusion_distance(a, b, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_zero_centroid_raises(self):
        cfg = DcsConfig(distance_metric="cosine_distance")
        with pytest.raises(ValueError, match="degenerate"):
            confusion_distance(np.zeros((3, 2)), np.ones((3, 2)), cfg)


class TestNormalizers:
    def test_tanh_table(self):
        assert normalize_score(0.0, "tanh") == pytest.approx(0.0, abs=1e-12)
        assert normalize_score(1.0, "tanh") == pytest.approx(0.7615941559557649, abs=1e-12)
        assert normalize_score(3.0, "tanh") == pytest.approx(0.9950547536867305, abs=1e-12)

    def test_sigmoid(self):
        assert normalize_score(0.0, "sigmoid") == pytest.approx(0.5)
        assert normalize_score(2.0, "sigmoid") == pytest.approx(1.0 / (1.0 + np.exp(-2.0)))

    def test_linear_over_5_with_clamp(self):
        assert normalize_score(1.0, "linear_over_5") == pytest.approx(0.2)
        assert normalize_score(5.0, "linear_over_5") == pytest.approx(1.0)
        assert normalize_score(10.0, "linear_over_5") == 1.0

    def test_negative_score_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            normalize_score(-0.1, "tanh")

    def test_unknown_normalizer_raises(self):
        with pytest.raises(ValueError, match="normalizer"):
            normalize_score(1.0, "softsign")


class TestScore:
    def test_score_returns_distance_and_alpha(self):
        a, b = pools(1.0)
        s, alpha = confusion_score(a, b, DcsConfig())
        assert s == pytest.approx(1.0)
        assert alpha == pytest.approx(np.tanh(1.0))

    def test_alpha_monotone_in_gap(self):
        cfg = DcsConfig()
        alphas = [confusion_score(*pools(g), cfg)[1] for g in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x < y for x, y in zip(alphas, alphas[1:]))


class TestComputeAlpha:
    @staticmethod
    def _rows(mean, n, dim=4):
        return np.full((n, dim), float(mean))

    def _identity_model(self, dim=4):
        # weights = identity, zero bias: with non-negative inputs features == inputs
        m = MLP([dim, dim], Rng(0), scale=0.0)
        m.weights[0][...] = np.eye(dim)
        return m

    def test_alpha_from_injected_geometry(self):
        model = self._identity_model()
        real = self._rows(0.0, 10)
        fake = self._rows(1.0, 10)
        rec = compute_alpha(model, real, fake, DcsConfig(), Rng(3), task_index=2, epoch=1)
        assert rec.s == pytest.approx(2.0)  # ||(1,1,1,1) - 0|| = 2
        assert rec.alpha == pytest.approx(np.tanh(2.0))
        assert rec.task_index == 2 and rec.epoch == 1

    def test_empty_pool_raises(self):
        model = self._identity_model()
        fake = self._rows(1.0, 3)
        with pytest.raises(ValueError, match="non-empty"):
            compute_alpha(model, np.empty((0, 4)), fake, DcsConfig(), Rng(0))

    def test_probe_cap_subsampling_is_deterministic(self):
        model = self._identity_model()
        rng_data = Rng(5)
        real = np.stack([np.abs(rng_data.fork(f"r{i}").normal(size=4)) for i in range(40)])
        fake = self._rows(1.0, 40)
        cfg = DcsConfig()
        with mock.patch.object(genreplay.confusion, "PROBE_CAP", 8):
            a = compute_alpha(model, real, fake, cfg, Rng(7))
            b = compute_alpha(model, real, fake, cfg, Rng(7))
            c = compute_alpha(model, real, fake, cfg, Rng(8))
        assert a == b
        assert c.s != a.s  # different probe draw picks a different subsample
