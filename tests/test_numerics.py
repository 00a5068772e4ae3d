"""Seeded RNG substreams, Adam updates, and finite-difference probes."""

import numpy as np
import pytest

from genreplay.numerics import AdamState, Rng, adam_step, finite_diff_grad


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).normal(size=16)
        b = Rng(7).normal(size=16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(size=16), Rng(2).normal(size=16))

    def test_fork_path_determinism(self):
        a = Rng(3).fork("task0").fork("epoch1").normal(size=8)
        b = Rng(3).fork("task0").fork("epoch1").normal(size=8)
        assert np.array_equal(a, b)

    def test_fork_independence_of_sibling_consumption(self):
        # consuming one substream must not perturb a sibling substream
        r1 = Rng(5)
        r1.fork("a").normal(size=100)
        x = r1.fork("b").normal(size=8)
        y = Rng(5).fork("b").normal(size=8)
        assert np.array_equal(x, y)

    def test_fork_stream_independent_of_sibling_draws(self):
        def stream_of_b(draw_siblings):
            root = Rng(5)
            a, b, c = root.fork("a"), root.fork("b"), root.fork("c")
            if draw_siblings:
                a.normal(size=100)
                c.integers(0, 9, size=5)
                root.uniform()
            return b.normal(size=8)

        assert np.array_equal(stream_of_b(True), stream_of_b(False))

    def test_generator_built_on_first_draw_only(self, monkeypatch):
        built = []
        pcg64 = np.random.PCG64

        def counting_pcg64(seed):
            built.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        child = Rng(4).fork("a")
        child.fork("b")
        assert built == []
        child.normal(size=2)
        child.normal(size=2)
        assert len(built) == 1

    def test_distinct_labels_distinct_streams(self):
        r = Rng(11)
        assert not np.array_equal(r.fork("x").normal(size=8), r.fork("y").normal(size=8))

    def test_nested_path_differs_from_flat(self):
        r = Rng(11)
        assert not np.array_equal(
            r.fork("a").fork("b").normal(size=8), r.fork("ab").normal(size=8)
        )

    def test_integer_labels_coerce(self):
        r = Rng(2)
        assert np.array_equal(r.fork(4).normal(size=4), r.fork("4").normal(size=4))

    def test_uniform_and_integers_ranges(self):
        r = Rng(9)
        u = r.fork("u").uniform(-2.0, 3.0, size=1000)
        assert u.min() >= -2.0 and u.max() < 3.0
        z = r.fork("i").integers(0, 10, size=1000)
        assert z.min() >= 0 and z.max() < 10

    def test_shuffle_is_permutation(self):
        x = np.arange(50)
        Rng(1).fork("s").shuffle(x)
        assert sorted(x.tolist()) == list(range(50))


class TestAdam:
    def test_hand_computed_first_step(self):
        # p=1, g=0.5: m_hat = g, v_hat = g^2, update = lr * g/|g| = lr
        state = AdamState(1)
        new = adam_step(np.array([1.0]), np.array([0.5]), state, lr=0.1, eps=1e-12)
        assert new[0] == pytest.approx(0.9, abs=1e-9)
        assert state.step_count == 1

    def test_second_step_hand_value(self):
        state = AdamState(1)
        p = adam_step(np.array([1.0]), np.array([0.5]), state, lr=0.1, eps=1e-15)
        p = adam_step(p, np.array([0.5]), state, lr=0.1, eps=1e-15)
        # constant gradient: m_hat = g, v_hat = g^2 at every step
        assert p[0] == pytest.approx(0.8, abs=1e-9)

    def test_converges_on_quadratic(self):
        params = np.array([5.0, -3.0])
        state = AdamState(2)
        for _ in range(4000):
            params = adam_step(params, 2.0 * params, state, lr=0.01)
        assert np.abs(params).max() < 1e-3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(np.zeros(3), np.zeros(4), AdamState(3))

    def test_bad_hyperparams_raise(self):
        with pytest.raises(ValueError, match="beta"):
            adam_step(np.zeros(1), np.zeros(1), AdamState(1), beta1=1.0)
        with pytest.raises(ValueError, match="eps"):
            adam_step(np.zeros(1), np.zeros(1), AdamState(1), eps=0.0)

    def test_non_finite_gradient_raises_with_index(self):
        g = np.array([0.0, np.nan, 0.0])
        with pytest.raises(FloatingPointError, match="index 1"):
            adam_step(np.zeros(3), g, AdamState(3))


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        grad = finite_diff_grad(lambda p: float(p @ p), np.array([1.0, -2.0, 0.5]))
        assert np.allclose(grad, [2.0, -4.0, 1.0], atol=1e-6)

    def test_bad_h_raises(self):
        with pytest.raises(ValueError, match="h"):
            finite_diff_grad(lambda p: 0.0, np.zeros(2), h=0.0)

    def test_non_finite_loss_raises(self):
        with pytest.raises(FloatingPointError, match="coordinate 0"):
            finite_diff_grad(lambda p: np.nan, np.zeros(1))
