"""Replay generators: fitting, sampling, signatures."""

import numpy as np
import pytest

from genreplay.numerics import Rng
from genreplay.replay import (
    EM_MAX_ITERS,
    EM_TOL,
    VAR_FLOOR,
    GeneratorModel,
    GeneratorPair,
    Signature,
    _hard_assignment_init,
    _kmeanspp_means,
    fit_generator,
    sample_replay,
    signature_similarity,
)

DIM = 5


def zero_sig(dim=DIM):
    return Signature(np.zeros(dim), 0.0)


class TestSignature:
    def test_negative_strength_raises(self):
        with pytest.raises(ValueError, match="strength"):
            Signature(np.ones(2), -1.0)

    def test_non_finite_vector_raises(self):
        with pytest.raises(ValueError, match="finite"):
            Signature(np.array([np.inf, 0.0]), 1.0)

    def test_similarity_values(self):
        e0 = Signature(np.array([1.0, 0.0]), 1.0)
        e1 = Signature(np.array([0.0, 1.0]), 1.0)
        diag = Signature(np.array([1.0, 1.0]), 2.0)
        assert signature_similarity(e0, e1) == pytest.approx(0.0)
        assert signature_similarity(e0, e0) == pytest.approx(1.0)
        assert signature_similarity(e0, diag) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_strength_similarity_is_zero(self):
        e0 = Signature(np.array([1.0, 0.0]), 1.0)
        assert signature_similarity(e0, Signature(np.array([1.0, 0.0]), 0.0)) == 0.0

    def test_zero_vector_similarity_is_zero(self):
        # a nonzero strength along no direction: the cosine would be 0/0
        e0 = Signature(np.array([1.0, 0.0]), 1.0)
        zero = Signature(np.zeros(2), 1.0)
        assert signature_similarity(e0, zero) == 0.0
        assert signature_similarity(zero, e0) == 0.0

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensions"):
            signature_similarity(Signature(np.ones(2), 1.0), Signature(np.ones(3), 1.0))


class TestGaussianFit:
    def test_mean_and_variance_recovered(self):
        rng = Rng(11)
        true_mean = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        x = true_mean + 0.7 * rng.fork("x").normal(size=(10000, DIM))
        g = fit_generator(x, "gaussian", 1, zero_sig(), rng.fork("fit"))
        assert np.all(np.abs(g.means[0] - true_mean) < 0.05)
        assert np.all(np.abs(g.variances[0] - 0.49) < 0.05)

    def test_variance_floor(self):
        x = np.tile([1.0, 2.0, 3.0, 4.0, 5.0], (10, 1))
        g = fit_generator(x, "gaussian", 1, zero_sig(), Rng(0))
        assert np.all(g.variances >= 1e-6)

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError, match="n_components"):
            fit_generator(np.empty((0, DIM)), "gaussian", 1, zero_sig(), Rng(0))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            fit_generator(np.zeros((4, DIM)), "vae", 1, zero_sig(), Rng(0))


@pytest.mark.parametrize("kind, k", [("gaussian", 1), ("gmm", 3)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_raises_naming_it(kind, k, bad):
    x = Rng(7).fork("x").normal(size=(40, DIM))
    x[12, 3] = bad
    x[30, 0] = np.nan
    with pytest.raises(ValueError, match=r"^sample row 12 is not finite$"):
        fit_generator(x, kind, k, zero_sig(), Rng(0))


class TestGmmFit:
    def _two_cluster_data(self, rng, n=2000):
        a = np.array([3.0, 0.0, 0.0, 0.0, 0.0]) + 0.3 * rng.fork("a").normal(size=(n, DIM))
        b = np.array([-3.0, 0.0, 0.0, 0.0, 0.0]) + 0.3 * rng.fork("b").normal(size=(n, DIM))
        return np.vstack([a, b])

    def test_recovers_clusters(self):
        rng = Rng(23)
        x = self._two_cluster_data(rng)
        g = fit_generator(x, "gmm", 2, zero_sig(), rng.fork("fit"))
        firsts = sorted(g.means[:, 0])
        assert firsts[0] == pytest.approx(-3.0, abs=0.1)
        assert firsts[1] == pytest.approx(3.0, abs=0.1)
        assert np.all(np.abs(g.weights - 0.5) < 0.05)

    def test_loglik_monotone_nondecreasing(self):
        rng = Rng(29)
        x = self._two_cluster_data(rng, n=500)
        g = fit_generator(x, "gmm", 2, zero_sig(), rng.fork("fit"))
        trace = np.array(g.loglik_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-7 * (np.abs(trace[:-1]) + 1.0))


def _log_gauss_diag(x, mean, var):
    # (n,) log density of a diagonal gaussian for the rows of x
    return -0.5 * (
        np.sum(np.log(2.0 * np.pi * var)) + np.sum((x - mean) ** 2 / var, axis=1)
    )


def _reference_em(x, k, rng):
    """fit_generator's EM with a per-component E-step and logaddexp.reduce."""
    means, variances, weights = _hard_assignment_init(x, _kmeanspp_means(x, k, rng))
    trace, prev_ll = [], -np.inf
    for _ in range(EM_MAX_ITERS):
        log_resp = np.stack(
            [np.log(weights[c]) + _log_gauss_diag(x, means[c], variances[c]) for c in range(k)],
            axis=1,
        )
        log_norm = np.logaddexp.reduce(log_resp, axis=1)
        ll = float(log_norm.sum())
        trace.append(ll)
        resp = np.exp(log_resp - log_norm[:, None])
        nk = resp.sum(axis=0)
        assert (nk >= 1e-10).all(), "reference data must not need a re-seed"
        weights = nk / len(x)
        means = (resp.T @ x) / nk[:, None]
        variances = np.maximum(resp.T @ (x**2) / nk[:, None] - means**2, VAR_FLOOR)
        if np.isfinite(prev_ll) and abs(ll - prev_ll) <= EM_TOL * (abs(prev_ll) + 1.0):
            break
        prev_ll = ll
    return weights, means, variances, trace


class TestEStep:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, d", [(40, 1), (300, 3), (1200, 16)])
    def test_matches_per_component_reference(self, k, n, d):
        rng = Rng(100 * k + d)
        centers = 3.0 / np.sqrt(d) * rng.fork("c").normal(size=(k, d))
        spreads = rng.fork("s").uniform(0.2, 1.5, size=(k, d))
        comps = np.arange(n) % k
        x = centers[comps] + spreads[comps] * rng.fork("x").normal(size=(n, d))
        g = fit_generator(x, "gmm", k, zero_sig(d), rng.fork("fit"))
        weights, means, variances, trace = _reference_em(x, k, rng.fork("fit"))
        assert len(g.loglik_trace) == len(trace)
        assert np.allclose(g.loglik_trace, trace, rtol=1e-12, atol=0)
        assert np.allclose(g.means, means, rtol=1e-9, atol=1e-12)
        assert np.allclose(g.variances, variances, rtol=1e-9, atol=1e-12)
        assert np.allclose(g.weights, weights, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_cluster_near_the_iteration_cap(self, seed):
        # the benchmark's regime: three components on one cluster of 1,300 rows
        # in 16 dimensions converge slowly, where separated clusters stop early
        rng = Rng(seed)
        x = rng.fork("x").normal(size=(1300, 16)) * rng.fork("s").uniform(0.5, 2.0, size=16)
        g = fit_generator(x, "gmm", 3, zero_sig(16), rng.fork("fit"))
        weights, means, variances, trace = _reference_em(x, 3, rng.fork("fit"))
        assert len(trace) > EM_MAX_ITERS // 2
        assert len(g.loglik_trace) == len(trace)
        assert np.allclose(g.loglik_trace, trace, rtol=1e-12, atol=0)
        assert np.allclose(g.means, means, rtol=1e-9, atol=1e-12)
        assert np.allclose(g.variances, variances, rtol=1e-9, atol=1e-12)
        assert np.allclose(g.weights, weights, rtol=1e-9, atol=1e-12)


class TestSampling:
    def _fit(self, seed=31):
        rng = Rng(seed)
        x = rng.fork("x").normal(size=(500, DIM))
        return x, rng

    def test_signature_shift_moves_mean(self):
        x, rng = self._fit()
        direction = np.zeros(DIM)
        direction[2] = 1.0
        g = fit_generator(x, "gaussian", 1, Signature(direction, 1.0), rng.fork("fit"))
        draws = g.sample(20000, rng.fork("draw"))
        shift = draws.mean(axis=0)[2] - g.means[0][2]
        assert shift == pytest.approx(1.0, abs=0.05)

    def test_zero_strength_no_shift(self):
        x, rng = self._fit(37)
        g = fit_generator(x, "gaussian", 1, zero_sig(), rng.fork("fit"))
        draws = g.sample(20000, rng.fork("draw"))
        assert np.all(np.abs(draws.mean(axis=0) - g.means[0]) < 0.05)

    def test_sample_zero_returns_empty(self):
        x, rng = self._fit(41)
        g = fit_generator(x, "gaussian", 1, zero_sig(), rng.fork("fit"))
        assert g.sample(0, rng.fork("draw")).shape == (0, DIM)

    @pytest.mark.parametrize("weights", [[1.0], [0.2, 0.5, 0.3]], ids=["gaussian", "gmm"])
    def test_zero_size_draw_consumes_nothing(self, weights):
        k = len(weights)
        means = np.arange(k * DIM, dtype=float).reshape(k, DIM)
        g = GeneratorModel(weights, means, np.ones((k, DIM)), Signature(np.eye(DIM)[1], 0.7))
        rng = Rng(69).fork("draw")
        assert g.sample((3, 0), rng).shape == (3, 0, DIM)
        assert np.array_equal(g.sample(4, rng), g.sample(4, Rng(69).fork("draw")))

    def test_sampling_deterministic(self):
        x, rng = self._fit(43)
        g = fit_generator(x, "gaussian", 1, zero_sig(), rng.fork("fit"))
        a = g.sample(10, Rng(1).fork("d"))
        b = g.sample(10, Rng(1).fork("d"))
        assert np.array_equal(a, b)


    @pytest.mark.parametrize(
        "weights", [[1.0], [0.2, 0.5, 0.3]], ids=["k1", "k3"]
    )
    def test_sample_matches_choice_reference(self, weights):
        k = len(weights)
        means = np.arange(k * DIM, dtype=float).reshape(k, DIM)
        variances = np.linspace(0.5, 2.0, k * DIM).reshape(k, DIM)
        g = GeneratorModel(weights, means, variances, Signature(np.eye(DIM)[1], 0.7))
        for n in (1, 7, 300):
            ref = Rng(67).fork(f"n{n}")
            comps = ref.gen.choice(k, size=n, p=g.weights)
            noise = ref.normal(size=(n, DIM))
            want = means[comps] + noise * np.sqrt(variances[comps]) + g.signature.vector * 0.7
            assert np.array_equal(g.sample(n, Rng(67).fork(f"n{n}")), want)

    @pytest.mark.parametrize(
        "weights", [[1.0], [0.2, 0.5, 0.3]], ids=["k1", "k3"]
    )
    def test_shape_draw_equals_reshaped_flat_draw(self, weights):
        k = len(weights)
        means = np.arange(k * DIM, dtype=float).reshape(k, DIM)
        variances = np.linspace(0.5, 2.0, k * DIM).reshape(k, DIM)
        g = GeneratorModel(weights, means, variances, Signature(np.eye(DIM)[1], 0.7))
        for n in (0, 1, 7):
            for n_batches in (1, 4):
                rows = g.sample((n_batches, n), Rng(68).fork(f"n{n}b{n_batches}"))
                assert rows.shape == (n_batches, n, DIM)
                flat = g.sample(n_batches * n, Rng(68).fork(f"n{n}b{n_batches}"))
                assert np.array_equal(rows, flat.reshape(n_batches, n, DIM))

    @pytest.mark.parametrize(
        "weights, variances, message",
        [
            ([0.5, 0.4], [[1.0] * DIM] * 2, "component weights must be positive and sum to 1"),
            ([1.2, -0.2], [[1.0] * DIM] * 2, "component weights must be positive and sum to 1"),
            ([0.5, 0.5], [[1.0] * DIM, [VAR_FLOOR / 2] * DIM], "variances below the jitter floor"),
        ],
        ids=["weights_sum", "weight_negative", "variance_below_floor"],
    )
    def test_invalid_parameters_raise(self, weights, variances, message):
        with pytest.raises(ValueError, match=message):
            GeneratorModel(weights, np.zeros((2, DIM)), variances, zero_sig())


class TestPair:
    def _pair(self, seed=47, strength=1.0):
        rng = Rng(seed)
        sig = Signature(np.eye(DIM)[0], strength)
        reals = rng.fork("r").normal(size=(100, DIM))
        fakes = 2.0 + rng.fork("f").normal(size=(100, DIM))
        g_real = fit_generator(reals, "gaussian", 1, sig, rng.fork("gr"))
        g_fake = fit_generator(fakes, "gaussian", 1, sig, rng.fork("gf"))
        return GeneratorPair(0, g_real, g_fake)

    def test_mismatched_signatures_raise(self):
        rng = Rng(53)
        x = rng.fork("x").normal(size=(50, DIM))
        a = fit_generator(x, "gaussian", 1, Signature(np.eye(DIM)[0], 1.0), rng.fork("a"))
        b = fit_generator(x, "gaussian", 1, Signature(np.eye(DIM)[1], 1.0), rng.fork("b"))
        with pytest.raises(ValueError, match="signature"):
            GeneratorPair(0, a, b)

    def test_sample_replay_labels_and_origins(self):
        # gen-real rows (real label) come from g_real, gen-fake rows from g_fake
        pair = self._pair()
        reals, fakes = sample_replay(pair, 3, 4, Rng(2))
        assert reals.shape == (3, DIM) and fakes.shape == (4, DIM)
        assert np.array_equal(reals, pair.g_real.sample(3, Rng(2).fork("real")))
        assert np.array_equal(fakes, pair.g_fake.sample(4, Rng(2).fork("fake")))

    def test_negative_counts_raise(self):
        pair = self._pair()
        with pytest.raises(ValueError, match="counts"):
            sample_replay(pair, -1, 0, Rng(0))
        with pytest.raises(ValueError, match="counts"):
            sample_replay(pair, (2, 3), (2, -1), Rng(0))
        for n in (-1, (3, -2), (-1, 0)):
            with pytest.raises(ValueError, match="counts"):
                pair.g_real.sample(n, Rng(0))
