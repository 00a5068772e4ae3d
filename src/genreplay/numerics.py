"""Low-level numerics: seeded RNG substreams, Adam, gradient checking, and the configs' count and number checks."""

import hashlib
import math
from numbers import Integral, Real

import numpy as np

# the low 32-bit word of each of the digest's four 64-bit little-endian ints
_LOW_WORDS = np.arange(8) % 2 == 0

# Adam's learning rate, moment decays and denominator padding; every run uses these
ADAM_LR = 2e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
            # SeedSequence splits each of the digest's four 64-bit ints into
            # its low and high 32-bit words and drops a zero high word; these
            # are those words, which it takes without converting Python ints
            words = np.frombuffer(digest, dtype="<u4")
            entropy = words[(words != 0) | _LOW_WORDS]
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._gen

    def fork(self, label):
        return Rng(self.seed, self._path + (str(label),))

    def normal(self, size):
        return self.gen.normal(0.0, 1.0, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def shuffle(self, x):
        self.gen.shuffle(x)

    def choice(self, a, size):
        """size draws from a without replacement."""
        return self.gen.choice(a, size=size, replace=False)


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
    """Moment buffers for one flat parameter vector, and adam_step's two scratch arrays."""

    def __init__(self, n_params):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.step_count = 0
        self.scratch = (np.empty(n_params), np.empty(n_params))


def adam_step(params, grads, state):
    """One bias-corrected Adam step at the ADAM_* constants; params, state.m, state.v change in place.

    params and grads are float arrays of one shape; params is returned. The
    moments run in the order of the out-of-place formula in the comments, so
    state.m and state.v round exactly as the textbook formula does. The update
    folds both bias corrections into two per-step scalars, Kingma & Ba's
    efficient form (arXiv:1412.6980, end of Sec. 2): one division per entry
    instead of three, equal in exact arithmetic and matching the textbook
    update to a few ulp. It never forms v / (1 - beta2**t), so an entry whose
    v is finite takes a normal step even where that quotient would overflow.
    Its temporaries live in state.scratch. A NaN or infinite gradient raises
    before anything changes.
    """
    if params.shape != grads.shape:
        raise ValueError(f"params/grads length mismatch: {params.shape} vs {grads.shape}")
    # a finite sum of squares means every entry is finite; one that overflows is checked exactly
    if not math.isfinite(np.vdot(grads, grads)) and not np.isfinite(grads).all():
        bad = np.flatnonzero(~np.isfinite(grads))
        raise FloatingPointError(f"non-finite gradient at index {bad[0]}")

    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v
    a, b = state.scratch
    # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
    np.multiply(1.0 - ADAM_BETA1, grads, out=a)
    m *= ADAM_BETA1
    m += a
    np.multiply(1.0 - ADAM_BETA2, grads, out=b)
    b *= grads
    v *= ADAM_BETA2
    v += b
    # params -= lr * m_hat / (sqrt(v_hat) + eps), computed as
    # params -= (lr * r2 / c1) * m / (sqrt(v) + eps * r2), c1 = 1 - beta1**t, r2 = sqrt(1 - beta2**t)
    c1 = 1.0 - ADAM_BETA1**t
    r2 = math.sqrt(1.0 - ADAM_BETA2**t)
    np.sqrt(v, out=b)
    b += ADAM_EPS * r2
    np.divide(m, b, out=a)
    a *= ADAM_LR * r2 / c1
    params -= a
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
