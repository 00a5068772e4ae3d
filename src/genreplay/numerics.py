"""Low-level numerics: seeded RNG substreams, Adam, and gradient checking helpers."""

import hashlib

import numpy as np


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
            words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
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


class AdamState:
    """Moment buffers for one flat parameter vector."""

    def __init__(self, n_params):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.step_count = 0


def adam_step(params, grads, state, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update. Returns new params; mutates state."""
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
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:
        raise FloatingPointError(f"non-finite gradient at index {bad[0]}")

    state.step_count += 1
    t = state.step_count
    state.m = beta1 * state.m + (1.0 - beta1) * grads
    state.v = beta2 * state.v + (1.0 - beta2) * grads * grads
    m_hat = state.m / (1.0 - beta1**t)
    v_hat = state.v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps)


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
