"""Low-level numerics: seeded RNG substreams, Adam, gradient checking, and the configs' count and number checks."""

import hashlib
import math
from numbers import Integral, Real

import numpy as np

_ZERO_WORD = bytes(4)


class Rng:
    """Deterministic random source with labeled substreams.

    The same (seed, fork path) always yields the same stream, independent of
    what other substreams were consumed. Forks are cheap: the numpy Generator
    is only built on the first draw, and many forks are never drawn from. An
    Rng instance must not be shared across concurrent consumers -- fork
    instead.
    """

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(_path)
        self._gen = None

    @property
    def gen(self):
        """The substream's numpy Generator, seeded from (seed, fork path)."""
        if self._gen is None:
            material = repr(self.seed) + "\x00" + "\x00".join(self._path)
            digest = hashlib.sha256(material.encode("utf-8")).digest()
            if _ZERO_WORD in (digest[4:8], digest[12:16], digest[20:24], digest[28:32]):
                entropy = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
            else:
                # SeedSequence splits each of those four 64-bit ints into its
                # low and high 32-bit words, dropping a zero high word; with
                # no zero high word, that is the digest read as <u4, which it
                # takes without converting Python ints
                entropy = np.frombuffer(digest, dtype="<u4")
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._gen

    def fork(self, label):
        return Rng(self.seed, self._path + (str(label),))

    def normal(self, size=None, loc=0.0, scale=1.0):
        return self.gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def shuffle(self, x):
        self.gen.shuffle(x)

    def choice(self, a, size=None, replace=True):
        return self.gen.choice(a, size=size, replace=replace)


def check_count(name, value, minimum):
    """Raise ValueError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name, value):
    """Raise ValueError unless value is a real number (not a bool) that is finite as a float."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


class AdamState:
    """Moment buffers for one flat parameter vector."""

    def __init__(self, n_params):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.step_count = 0


def adam_step(params, grads, state, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update; params, state.m and state.v change in place.

    Returns params (a float array is updated in place, anything else is
    converted first). The arithmetic runs in the order of the out-of-place
    formula in the comments, so both round alike.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError(
            f"params/grads length mismatch: {params.shape} vs {grads.shape}"
        )
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in [0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not np.isfinite(grads).all():
        bad = np.flatnonzero(~np.isfinite(grads))
        raise FloatingPointError(f"non-finite gradient at index {bad[0]}")

    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v
    # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
    m *= beta1
    m += (1.0 - beta1) * grads
    g2 = (1.0 - beta2) * grads
    g2 *= grads
    v *= beta2
    v += g2
    # params -= lr * m_hat / (sqrt(v_hat) + eps)
    step = m / (1.0 - beta1**t)
    step *= lr
    denom = np.divide(v, 1.0 - beta2**t, out=g2)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    params -= step
    return params


def finite_diff_grad(loss_fn, params, h=1e-4):
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        p_hi = params.copy()
        p_lo = params.copy()
        p_hi[i] += h
        p_lo[i] -= h
        f_hi = loss_fn(p_hi)
        f_lo = loss_fn(p_lo)
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise FloatingPointError(f"non-finite loss at probe of coordinate {i}")
        grad[i] = (f_hi - f_lo) / (2.0 * h)
    return grad
