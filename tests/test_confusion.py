"""Confusion score: centroid distances, normalizers, and the live alpha probe on stored pairs."""

import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import genreplay.confusion
from genreplay.confusion import DcsConfig, compute_alpha, confusion_score
from genreplay.losses import centroid
from genreplay.model import MLP
from genreplay.numerics import Rng
from genreplay.replay import GeneratorPair, Signature, fit_generator, sample_replay


def pools(gap, dim=4, n=8):
    """Two tight clusters whose centroids sit exactly `gap` apart on axis 0."""
    a = np.zeros((n, dim))
    b = np.zeros((n, dim))
    b[:, 0] = gap
    return a, b


def fitted_pair(task_index, shift, rng, dim=4, n=64):
    """A Gaussian pair fitted on real rows around shift and fake rows around shift + 1."""
    sig = Signature(np.zeros(dim), 0.0)
    reals = rng.fork("real").normal(size=(n, dim)) + shift
    fakes = rng.fork("fake").normal(size=(n, dim)) + shift + 1.0
    return GeneratorPair(
        task_index,
        fit_generator(reals, "gaussian", 1, sig, rng.fork("fit-real")),
        fit_generator(fakes, "gaussian", 1, sig, rng.fork("fit-fake")),
    )


def two_step_probe(model, pairs, current_fakes, cfg, rng):
    """The probe as trainer and confusion once split it, kept as a reference.

    The trainer drew an even share of gen-real rows per pair into one array on
    fork pool, then the confusion module cut each pool to PROBE_CAP rows on
    fork probe and scored the feature centroids. Returns (s, alpha).
    """
    cap = genreplay.confusion.PROBE_CAP
    per = math.ceil(cap / len(pairs))
    pool_rng = rng.fork("pool")
    gen_real = np.concatenate(
        [sample_replay(pair, per, 0, pool_rng.fork(f"pair{i}"))[0] for i, pair in enumerate(pairs)]
    )

    def cut(rows, cut_rng):
        if len(rows) <= cap:
            return rows
        return rows[cut_rng.choice(len(rows), cap)]

    probe_rng = rng.fork("probe")
    a = centroid(model.features(cut(gen_real, probe_rng.fork("gen-real"))))
    b = centroid(model.features(cut(np.asarray(current_fakes, dtype=float), probe_rng.fork("cur-fake"))))
    if cfg.distance_metric == "l2":
        s = float(np.linalg.norm(a - b))
    else:
        s = float(1.0 - (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    s = max(s, 0.0)
    alpha = float(np.tanh(s)) if cfg.normalizer == "tanh" else min(s / 5.0, 1.0)
    return s, alpha


class TestConfig:
    def test_defaults(self):
        cfg = DcsConfig()
        assert cfg.distance_metric == "l2"
        assert cfg.normalizer == "linear_over_5"

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError, match="distance_metric"):
            DcsConfig(distance_metric="cityblock")
        with pytest.raises(ValueError, match="normalizer"):
            DcsConfig(normalizer="relu")


class TestScore:
    COSINE = DcsConfig(distance_metric="cosine_distance")

    def test_l2_hand_value(self):
        s, alpha = confusion_score(*pools(2.5), DcsConfig())
        assert s == pytest.approx(2.5)
        assert alpha == pytest.approx(0.5)

    def test_l2_identical_pools_zero(self):
        a, _ = pools(0.0)
        assert confusion_score(a, a + 0.0, DcsConfig()) == (0.0, 0.0)

    def test_cosine_orthogonal_is_one(self):
        a = np.tile([1.0, 0.0], (4, 1))
        b = np.tile([0.0, 1.0], (4, 1))
        assert confusion_score(a, b, self.COSINE)[0] == pytest.approx(1.0)

    def test_cosine_scale_invariant(self):
        a = np.tile([1.0, 0.0], (4, 1))
        b = np.tile([2.0, 0.0], (4, 1))
        assert confusion_score(a, b, self.COSINE)[0] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_zero_centroid_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            confusion_score(np.zeros((3, 2)), np.ones((3, 2)), self.COSINE)

    @pytest.mark.parametrize("gap, alpha", [
        (0.0, 0.0), (1.0, 0.7615941559557649), (3.0, 0.9950547536867305),
    ])
    def test_tanh_table(self, gap, alpha):
        s, got = confusion_score(*pools(gap), DcsConfig(normalizer="tanh"))
        assert s == pytest.approx(gap)
        assert got == pytest.approx(alpha, abs=1e-12)

    @pytest.mark.parametrize("gap, alpha", [(1.0, 0.2), (5.0, 1.0), (10.0, 1.0)])
    def test_linear_over_5_clips_at_one(self, gap, alpha):
        assert confusion_score(*pools(gap), DcsConfig())[1] == pytest.approx(alpha)

    def test_alpha_monotone_in_gap(self):
        cfg = DcsConfig()
        alphas = [confusion_score(*pools(g), cfg)[1] for g in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x < y for x, y in zip(alphas, alphas[1:]))


class ConstGenerator:
    """A generator whose every row is value, in dim columns."""

    def __init__(self, value, dim=4):
        self.value, self.dim = value, dim

    def sample(self, n, rng):
        return np.full((n, self.dim), float(self.value))


def const_pair(value):
    return SimpleNamespace(g_real=ConstGenerator(value), g_fake=ConstGenerator(value))


class TestComputeAlpha:
    @staticmethod
    def _identity_model(dim=4):
        # weights = identity, zero bias: with non-negative inputs features == inputs
        m = MLP([dim, dim], Rng(0))
        m.params[...] = 0.0
        m.weights[0][...] = np.eye(dim)
        return m

    def test_alpha_from_injected_geometry(self):
        model = self._identity_model()
        fake = np.full((10, 4), 1.0)
        cfg = DcsConfig(normalizer="tanh")
        s, alpha = compute_alpha(model, [const_pair(0.0)], fake, cfg, Rng(3))
        assert s == pytest.approx(2.0)  # ||(1,1,1,1) - 0|| = 2
        assert alpha == pytest.approx(np.tanh(2.0))

    def test_empty_pool_raises(self):
        model = self._identity_model()
        for pairs, fake in (([], np.full((3, 4), 1.0)), ([const_pair(0.0)], np.empty((0, 4)))):
            with pytest.raises(ValueError, match="non-empty"):
                compute_alpha(model, pairs, fake, DcsConfig(), Rng(0))

    def test_probe_cap_subsampling_is_deterministic(self):
        model = self._identity_model()
        pairs = [fitted_pair(0, 1.0, Rng(5))]
        fake = np.full((40, 4), 1.0)
        cfg = DcsConfig()
        with mock.patch.object(genreplay.confusion, "PROBE_CAP", 8):
            a, b, c = (compute_alpha(model, pairs, fake, cfg, Rng(seed)) for seed in (7, 7, 8))
        assert a == b
        assert c[0] != a[0]  # a different probe fork draws different rows

    # 3 and 5 pairs draw 513 and 515 gen-real rows, which the probe cuts to 512
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cfg", [
        DcsConfig(), DcsConfig(distance_metric="cosine_distance", normalizer="tanh"),
    ], ids=["l2-linear", "cosine-tanh"])
    def test_matches_the_two_step_probe(self, k, cfg):
        rng = Rng(11)
        model = MLP([4, 8, 8], rng.fork("init"))
        pairs = [fitted_pair(i, 0.5 * i, rng.fork(f"pair{i}")) for i in range(k)]
        # a replay pool does not enter the probe
        pairs[-1] = replace(pairs[-1], pool=sample_replay(pairs[-1], 16, 16, rng.fork("pool")))
        # more fakes than PROBE_CAP, so the cur-fake cut runs too
        fakes = rng.fork("fakes").normal(size=(600, 4)) + 2.0
        alpha_rng = rng.fork("epoch3").fork("alpha")
        got = compute_alpha(model, pairs, fakes, cfg, alpha_rng)
        assert got == two_step_probe(model, pairs, fakes, cfg, alpha_rng)
