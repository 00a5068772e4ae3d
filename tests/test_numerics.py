"""Seeded RNG substreams, Adam updates, finite-difference probes, and the config number check."""

import hashlib
import math

import numpy as np
import pytest

from genreplay.numerics import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_LR, AdamState, Rng, adam_step, check_real, finite_diff_grad,
)


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

    def test_normal_is_the_standard_normal(self):
        assert np.array_equal(Rng(3).fork("n").normal(size=64), Rng(3).fork("n").gen.standard_normal(64))
        assert Rng(3).normal((2, 5)).shape == (2, 5)

    def test_choice_draws_without_replacement(self):
        assert sorted(Rng(4).fork("all").choice(50, 50).tolist()) == list(range(50))
        idx = Rng(4).fork("some").choice(1000, 40)
        assert len(set(idx.tolist())) == 40 and idx.min() >= 0 and idx.max() < 1000

    def test_choice_of_more_than_the_population_raises(self):
        with pytest.raises(ValueError):
            Rng(4).choice(3, 4)

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

        self._check_seeded_by(monkeypatch, digest)

    # bytes 8:12 are the low word of the second 64-bit int, bytes 16:24 the whole third one
    @pytest.mark.parametrize("zeroed", [slice(8, 12), slice(16, 24)], ids=["low_word", "whole_int"])
    def test_seeding_with_a_zero_low_word_or_a_zero_int(self, monkeypatch, zeroed):
        # numpy keeps a zero low word, and seeds a zero int as its one zero low word
        digest = bytearray(hashlib.sha256(b"any").digest())
        digest[zeroed] = bytes(zeroed.stop - zeroed.start)
        assert all(digest[i : i + 4] != bytes(4) for i in (4, 12, 28))
        self._check_seeded_by(monkeypatch, bytes(digest))

    def _check_seeded_by(self, monkeypatch, digest):
        """Rng(1) seeded from digest draws what list-of-ints seeding draws."""

        class FixedDigest:
            def __init__(self, data):
                pass

            def digest(self):
                return digest

        monkeypatch.setattr(hashlib, "sha256", FixedDigest)
        assert np.array_equal(Rng(1).normal(size=64), self._list_seeded(digest).normal(size=64))


class TestAdam:
    @staticmethod
    def _moments(grads, m, v):
        # the textbook moments, which adam_step rounds alike
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
        return m, ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads

    @staticmethod
    def _folded_update(m, v, t):
        # Kingma & Ba's efficient form: both bias corrections folded into two per-step scalars
        c1 = 1.0 - ADAM_BETA1**t
        r2 = math.sqrt(1.0 - ADAM_BETA2**t)
        return m / (np.sqrt(v) + ADAM_EPS * r2) * (ADAM_LR * r2 / c1)

    @staticmethod
    def _textbook_update(m, v, t, eps=ADAM_EPS):
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        return ADAM_LR * m_hat / (np.sqrt(v_hat) + eps)

    @classmethod
    def _out_of_place(cls, params, grads, m, v, t):
        # adam_step at the module constants, allocating every intermediate
        m, v = cls._moments(grads, m, v)
        return params - cls._folded_update(m, v, t), m, v

    @staticmethod
    def _pattern(name):
        """Start params and the gradient of each step t = 1, 2, ... of a named pattern.

        400 steps run past t = 356, from where 1 - beta1**t rounds to 1.0, as every bench run does.
        "wide" scales each step's gradient by 1e-6..1e2; "sign_flips" alternates one gradient's
        sign, so m cancels towards 0 while v grows. A number (1e155, 1e200) gives 3 steps whose
        gradients hold +-that number at two entries, so g @ g overflows for both
        """
        if name in ("wide", "sign_flips"):
            rng = Rng(12)
            params = rng.fork("p").normal(size=257)
            fixed = rng.fork("fixed").normal(size=257)
            if name == "wide":
                steps = [rng.fork(f"g{t}").normal(size=257) * 10.0 ** rng.fork(f"s{t}").uniform(-6, 2)
                         for t in range(1, 401)]
            else:
                steps = [fixed * (-1.0) ** t for t in range(1, 401)]
            return params, steps
        rng = Rng(6)
        params = rng.fork("p").normal(size=33)
        steps = []
        for t in range(1, 4):
            grads = rng.fork(f"g{t}").normal(size=33)
            grads[[2, 20]] = name, -name
            steps.append(grads)
        return params, steps

    @pytest.mark.parametrize("grads_at", ["wide", "sign_flips"])
    def test_in_place_matches_out_of_place_bit_for_bit(self, grads_at):
        assert 1.0 - ADAM_BETA1**355 < 1.0
        assert 1.0 - ADAM_BETA1**356 == 1.0
        params, steps = self._pattern(grads_at)
        ref, m, v = params.copy(), np.zeros(257), np.zeros(257)
        state = AdamState(257)
        for t, grads in enumerate(steps, start=1):
            out = adam_step(params, grads, state)
            ref, m, v = self._out_of_place(ref, grads, m, v, t)
            assert out is params
            assert np.array_equal(params, ref)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    @pytest.mark.parametrize("grads_at", ["wide", "sign_flips", 1e155])
    def test_update_matches_textbook(self, grads_at):
        # from the same moments and t, the folded update is the textbook one to a few ulp. At 1e155
        # the textbook's v_hat = v / (1 - beta2**t) overflows at the two big entries, where its
        # update is 0; the folded form never builds v_hat and steps them as the textbook formula
        # does on their moments scaled by 2**-512 (m), 2**-1024 (v) and 2**-512 (eps), which is
        # exact in binary
        params, steps = self._pattern(grads_at)
        big = [2, 20] if grads_at == 1e155 else []
        state = AdamState(params.size)
        for t, grads in enumerate(steps, start=1):
            with np.errstate(over="ignore"):
                adam_step(params, grads, state)
                textbook = self._textbook_update(state.m, state.v, t)
                v_hat_overflows = np.isinf(state.v / (1.0 - ADAM_BETA2**t))
            folded = self._folded_update(state.m, state.v, t)
            assert np.array_equal(np.flatnonzero(v_hat_overflows), big)
            ok = ~v_hat_overflows
            assert (np.abs(folded[ok] - textbook[ok]) <= 2e-15 * np.abs(textbook[ok])).all()
            s = 2.0**-512
            scaled = self._textbook_update(state.m[big] * s, state.v[big] * s * s, t, ADAM_EPS * s)
            assert (np.abs(folded[big] - scaled) <= 2e-15 * np.abs(scaled)).all()
            assert np.allclose(np.abs(folded[big]), ADAM_LR, rtol=1e-14, atol=0)

    def test_hand_computed_first_step(self):
        # p=1, g=0.5: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps) = lr / (1 + 2 eps)
        state = AdamState(1)
        new = adam_step(np.array([1.0]), np.array([0.5]), state)
        assert new[0] == pytest.approx(1.0 - 2e-4 / (1.0 + 2e-8), abs=1e-15)
        assert state.step_count == 1

    def test_second_step_hand_value(self):
        state = AdamState(1)
        p = adam_step(np.array([1.0]), np.array([0.5]), state)
        p = adam_step(p, np.array([0.5]), state)
        # constant gradient: m_hat = g, v_hat = g^2 at every step
        assert p[0] == pytest.approx(1.0 - 2.0 * 2e-4 / (1.0 + 2e-8), abs=1e-15)

    def test_converges_on_quadratic(self):
        # steps of about lr reach the minimum of p @ p from here in about 2,400 of the 4,000
        params = np.array([0.2, -0.1])
        state = AdamState(2)
        for _ in range(4000):
            params = adam_step(params, 2.0 * params, state)
        assert np.abs(params).max() < 1e-3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(np.zeros(3), np.zeros(4), AdamState(3))

    def test_non_finite_gradient_raises_with_index(self):
        g = np.array([0.0, np.nan, 0.0])
        with pytest.raises(FloatingPointError, match="index 1"):
            adam_step(np.zeros(3), g, AdamState(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_changes_nothing(self, bad):
        rng = Rng(5)
        params, state = rng.fork("p").normal(size=40), AdamState(40)
        for t in range(3):
            adam_step(params, rng.fork(f"g{t}").normal(size=40), state)
        before = params.copy(), state.m.copy(), state.v.copy()
        grads = rng.fork("bad").normal(size=40)
        grads[[7, 30]] = bad
        with pytest.raises(FloatingPointError, match="non-finite gradient at index 7$"):
            adam_step(params, grads, state)
        assert state.step_count == 3
        for got, want in zip((params, state.m, state.v), before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("big", [1e155, 1e200])
    def test_finite_gradient_whose_squares_overflow_takes_a_normal_step(self, big):
        # g @ g overflows for both; (1 - beta2) * g * g stays finite at 1e155, where those entries
        # step like any other, but not at 1e200, where v is inf and they stay put
        params, steps = self._pattern(big)
        start = params.copy()
        ref, m, v = params.copy(), np.zeros(33), np.zeros(33)
        state = AdamState(33)
        with np.errstate(over="ignore"):
            for t, grads in enumerate(steps, start=1):
                assert not np.isfinite(grads @ grads)
                adam_step(params, grads, state)
                ref, m, v = self._out_of_place(ref, grads, m, v, t)
                assert np.array_equal(params, ref)
                assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.step_count == 3
        assert np.isfinite(params).all()
        assert np.array_equal(params[[2, 20]] == start[[2, 20]], [big == 1e200] * 2)


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
