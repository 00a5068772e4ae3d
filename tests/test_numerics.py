"""Seeded RNG substreams, Adam updates, finite-difference probes, and the config number check."""

import hashlib

import numpy as np
import pytest

from genreplay.numerics import AdamState, Rng, adam_step, check_real, finite_diff_grad


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


    @staticmethod
    def _list_seeded(digest):
        # the reference seeding: the digest as four 64-bit little-endian ints
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def test_seeding_matches_list_of_ints(self):
        for seed, path in [(0, ()), (7, ("task0", "epoch1")), (2**40, ("x",)), (-3, ("a", "b", "c"))]:
            rng = Rng(seed, path)
            material = repr(rng.seed) + "\x00" + "\x00".join(rng._path)
            digest = hashlib.sha256(material.encode("utf-8")).digest()
            assert np.array_equal(rng.normal(size=64), self._list_seeded(digest).normal(size=64))

    @pytest.mark.parametrize("zero_word", [0, 1, 3])
    def test_seeding_with_a_zero_high_word(self, monkeypatch, zero_word):
        # numpy drops the zero high half of a 64-bit int, so reading the digest
        # as eight 32-bit words would seed a different stream
        digest = bytearray(hashlib.sha256(b"any").digest())
        digest[8 * zero_word + 4 : 8 * zero_word + 8] = bytes(4)
        digest = bytes(digest)
        direct = np.random.SeedSequence(np.frombuffer(digest, dtype="<u4"))
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        assert not np.array_equal(direct.generate_state(4), np.random.SeedSequence(words).generate_state(4))

        class FixedDigest:
            def __init__(self, data):
                pass

            def digest(self):
                return digest

        monkeypatch.setattr(hashlib, "sha256", FixedDigest)
        assert np.array_equal(Rng(1).normal(size=64), self._list_seeded(digest).normal(size=64))


class TestAdam:
    @staticmethod
    def _out_of_place(params, grads, m, v, t, lr, beta1, beta2, eps):
        # the textbook update, allocating every intermediate
        m = beta1 * m + (1.0 - beta1) * grads
        v = beta2 * v + (1.0 - beta2) * grads * grads
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

    @pytest.mark.parametrize("lr, beta1, beta2, eps", [(2e-4, 0.9, 0.999, 1e-8), (0.05, 0.5, 0.9, 1e-3)])
    def test_in_place_matches_out_of_place_bit_for_bit(self, lr, beta1, beta2, eps):
        rng = Rng(12)
        params = rng.fork("p").normal(size=257)
        ref, m, v = params.copy(), np.zeros(257), np.zeros(257)
        state = AdamState(257)
        for t in range(1, 60):
            grads = rng.fork(f"g{t}").normal(size=257) * 10.0 ** rng.fork(f"s{t}").uniform(-6, 2)
            out = adam_step(params, grads, state, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
            ref, m, v = self._out_of_place(ref, grads, m, v, t, lr, beta1, beta2, eps)
            assert out is params
            assert np.array_equal(params, ref)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_non_array_params_are_converted(self):
        out = adam_step([1.0], np.array([0.5]), AdamState(1), lr=0.1, eps=1e-12)
        assert out[0] == pytest.approx(0.9, abs=1e-9)

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


class TestCheckReal:
    @pytest.mark.parametrize("value", [0, -3, 2.5, 1e308, np.float64(0.1), np.int64(4)])
    def test_finite_reals_pass(self, value):
        check_real("x", value)

    @pytest.mark.parametrize(
        "value",
        [True, False, "1.0", None, [1.0], 1j, float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)],
        ids=["true", "false", "str", "none", "list", "complex", "nan", "inf", "minus_inf", "huge", "minus_huge"],
    )
    def test_others_raise_naming_the_field(self, value):
        with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
            check_real("x", value)
