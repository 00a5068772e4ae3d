"""Detector network: shapes and manual backprop vs finite differences."""

import copy
import pickle

import numpy as np
import pytest

from genreplay.losses import ce_loss_batch
from genreplay.model import MLP, PROB_CLAMP
from genreplay.numerics import AdamState, Rng, adam_step, finite_diff_grad


def small_model(widths=(4, 8, 8), seed=0):
    return MLP(list(widths), Rng(seed).fork("init"))


class TestConstruction:
    def test_param_count(self):
        # 4*8+8 + 8*8+8 + 8+1 = 121
        assert small_model().n_params == 121

    def test_dims(self):
        m = small_model()
        assert m.input_dim == 4
        assert m.forward(np.zeros((1, 4))).features.shape == (1, 8)

    def test_bad_widths_raise(self):
        with pytest.raises(ValueError):
            MLP([4], Rng(0))
        with pytest.raises(ValueError):
            MLP([4, 0], Rng(0))


class TestForward:
    def test_shapes_and_clamp(self):
        m = small_model()
        rec = m.forward(np.zeros((7, 4)))
        assert rec.features.shape == (7, 8)
        assert rec.y_p.shape == (7,)
        assert np.all(rec.y_p >= PROB_CLAMP)
        assert np.all(rec.y_p <= 1.0 - PROB_CLAMP)

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 4), ()])
    def test_input_that_is_not_2d_raises(self, shape):
        m = small_model()
        # a single vector is not read as one row: every entry point takes (n, input_dim)
        for entry in (m.forward, m.features, m.scores):
            with pytest.raises(ValueError, match=r"^input shape .* is not \(n, input_dim 4\)$"):
                entry(np.zeros(shape))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="dim"):
            small_model().forward(np.zeros((2, 5)))

    def test_saturating_logit_stays_clamped(self):
        m = small_model()
        m.head_b = 100.0
        rec = m.forward(np.zeros((1, 4)))
        assert rec.y_p[0] == 1.0 - PROB_CLAMP


class TestFlatParams:
    def test_roundtrip(self):
        m = small_model(seed=3)
        flat = m.get_flat()
        m2 = small_model(seed=4)
        m2.set_flat(flat)
        assert np.array_equal(m2.get_flat(), flat)

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError, match="121"):
            small_model().set_flat(np.zeros(120))

    def test_init_draws_layer_by_layer(self):
        rng = Rng(0).fork("init")
        h8 = 1.0 / np.sqrt(8)
        expected = np.concatenate([
            rng.uniform(-0.5, 0.5, (4, 8)).ravel(), np.zeros(8),
            rng.uniform(-h8, h8, (8, 8)).ravel(), np.zeros(8),
            rng.uniform(-h8, h8, 8), [0.0],
        ])
        assert np.array_equal(small_model().params, expected)

    def test_layout_and_views(self):
        m = small_model(seed=3)
        flat = np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(m.weights, m.biases)]
            + [m.head_w, [m.head_b]]
        )
        assert np.array_equal(flat, m.params)
        for part in m.weights + m.biases + (m.head_w,):
            assert np.shares_memory(part, m.params)
        m.head_b = 2.5
        assert m.params[-1] == 2.5

    def test_forward_sees_set_flat_and_in_place_updates(self):
        x = Rng(1).fork("x").normal(size=(5, 4))
        m, other = small_model(seed=3), small_model(seed=4)
        m.set_flat(other.get_flat())
        assert np.array_equal(m.forward(x).y_p, other.forward(x).y_p)

        grad = m.backward(m.forward(x), d_yp=np.ones(5))
        before = m.forward(x).y_p
        adam_step(m.params, grad, AdamState(m.n_params))
        fresh = small_model(seed=0)
        fresh.set_flat(m.params)
        after = m.forward(x).y_p
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh.forward(x).y_p)

    def test_get_flat_is_a_copy(self):
        m = small_model()
        flat = m.get_flat()
        flat[:] = 0.0
        assert m.params.any()


class TestCopy:
    COPIERS = {"deepcopy": copy.deepcopy, "pickle": lambda m: pickle.loads(pickle.dumps(m))}

    @pytest.mark.parametrize("how", COPIERS)
    def test_copy_forward_follows_its_own_params(self, how):
        x = Rng(1).fork("x").normal(size=(5, 4))
        m = small_model(seed=3)
        want = m.scores(x)
        c = self.COPIERS[how](m)
        assert np.array_equal(c.scores(x), want)
        for part in c.weights + c.biases + (c.head_w,):
            assert np.shares_memory(part, c.params)
            assert not np.shares_memory(part, m.params)

        c.params[...] = 0.0
        assert not np.array_equal(c.scores(x), want)
        assert np.array_equal(c.scores(x), np.full(5, 0.5))
        assert np.array_equal(m.scores(x), want)


class TestBackward:
    def _ce_through_model(self, m, x, labels):
        rec = m.forward(x)
        loss, d_yp = ce_loss_batch(rec.y_p, labels)
        grad = m.backward(rec, d_yp)
        return loss, grad

    def test_ce_gradient_matches_finite_differences(self):
        rng = Rng(42)
        for trial in range(3):
            m = MLP([5, 6, 4], rng.fork(f"init{trial}"))
            x = rng.fork(f"x{trial}").normal(size=(9, 5))
            labels = (rng.fork(f"y{trial}").uniform(size=9) > 0.5).astype(int)
            _, grad = self._ce_through_model(m, x, labels)

            def loss_at(flat, m=m, x=x, labels=labels):
                saved = m.get_flat()
                m.set_flat(flat)
                rec = m.forward(x)
                val, _ = ce_loss_batch(rec.y_p, labels)
                m.set_flat(saved)
                return val

            fd = finite_diff_grad(loss_at, m.get_flat(), h=1e-5)
            err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-4

    def test_feature_gradient_path(self):
        # loss = sum(features): d_features of ones must reproduce FD through layers
        rng = Rng(7)
        m = MLP([4, 6, 3], rng.fork("init"))
        x = rng.fork("x").normal(size=(5, 4))
        rec = m.forward(x)
        grad = m.backward(rec, np.zeros(5), np.ones_like(rec.features))

        def loss_at(flat):
            saved = m.get_flat()
            m.set_flat(flat)
            val = float(m.forward(x).features.sum())
            m.set_flat(saved)
            return val

        fd = finite_diff_grad(loss_at, m.get_flat(), h=1e-5)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4

    def test_bad_upstream_shapes_raise(self):
        m = small_model()
        rec = m.forward(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="d_yp"):
            m.backward(rec, d_yp=np.zeros(2))
        with pytest.raises(ValueError, match="d_features"):
            m.backward(rec, np.zeros(3), np.zeros((3, 7)))
