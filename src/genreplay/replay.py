"""Density-model replay generators with an explicit artifact signature.

Each finished task gets a pair of fitted samplers, one per class. Every draw
from a pair is shifted along the pair's signature direction, which models the
generator's own artifact: when that direction lines up with a later task's
forgery direction, generated-real replays start to look like fakes.
"""

from dataclasses import dataclass, field

import numpy as np

VAR_FLOOR = 1e-6
EM_MAX_ITERS = 200
EM_TOL = 1e-7


@dataclass(frozen=True)
class Signature:
    vector: np.ndarray
    strength: float

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if not np.all(np.isfinite(vec)):
            raise ValueError("signature vector must be finite")
        if self.strength < 0:
            raise ValueError("signature strength must be >= 0")
        object.__setattr__(self, "vector", vec)


def signature_similarity(a, b):
    """Cosine of two signature vectors; 0 if either carries no artifact."""
    va = np.asarray(a.vector, dtype=float)
    vb = np.asarray(b.vector, dtype=float)
    if va.shape != vb.shape:
        raise ValueError("signature dimensions differ")
    if a.strength == 0.0 or b.strength == 0.0:
        return 0.0
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb / (na * nb))


class GeneratorModel:
    """Diagonal Gaussian or mixture sampler with an attached signature."""

    def __init__(self, weights, means, variances, signature, loglik_trace=None):
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        if not (weights > 0).all() or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must be positive and sum to 1")
        if (variances < VAR_FLOOR - 1e-12).any():
            raise ValueError("variances below the jitter floor")
        self.weights = weights
        # Generator.choice(p=weights)'s own table, built once instead of per draw
        cumulative = weights.cumsum()
        self.cdf = cumulative / cumulative[-1]
        self.means = means
        self.variances = variances
        self.std = np.sqrt(variances)
        self.signature = signature
        # the artifact shift added to every draw
        self.shift = signature.vector * signature.strength
        self.loglik_trace = loglik_trace or []

    @property
    def dim(self):
        return self.means.shape[1]

    def sample(self, n, rng):
        """Draw vectors, shifted by signature.vector * signature.strength.

        n is a count, giving (n, dim) rows, or a shape, giving shape + (dim,);
        sample((b, n), rng) equals sample(b * n, rng).reshape(b, n, dim). A
        negative count raises ValueError.
        """
        shape = (n,) if np.ndim(n) == 0 else tuple(n)
        if min(shape, default=0) < 0:
            raise ValueError(f"sample counts must be >= 0, got {shape}")
        if 0 in shape:
            return np.empty(shape + (self.dim,))
        # the same uniforms and lookup as rng.gen.choice(k, size=n, p=weights),
        # without re-checking p on every call
        comps = self.cdf.searchsorted(rng.gen.random(shape), side="right")
        noise = rng.normal(size=shape + (self.dim,))
        return self.means[comps] + noise * self.std[comps] + self.shift


@dataclass(frozen=True)
class GeneratorPair:
    """A stored task's fitted generators, and its fixed replay pool if it has one.

    pool is None or (gen-real rows, gen-fake rows), drawn once from the pair;
    equality and hashing ignore it.
    """

    task_index: int
    g_real: GeneratorModel
    g_fake: GeneratorModel
    pool: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        sr, sf = self.g_real.signature, self.g_fake.signature
        if not (np.array_equal(sr.vector, sf.vector) and sr.strength == sf.strength):
            raise ValueError("both generators of a pair must share one signature")


def _kmeanspp_means(x, k, rng):
    n = x.shape[0]
    means = [x[rng.integers(0, n)]]
    for _ in range(1, k):
        d2 = np.min(
            np.stack([np.sum((x - m) ** 2, axis=1) for m in means]), axis=0
        )
        total = d2.sum()
        if total <= 0:
            means.append(x[rng.integers(0, n)])
            continue
        probs = d2 / total
        means.append(x[rng.gen.choice(n, p=probs)])
    return np.stack(means)


def _hard_assignment_init(x, seed_means):
    """Per-component moments from a nearest-seed hard assignment.

    Starting every component from the pooled variance lets high-variance
    cluster axes be drowned out by tight noise dimensions, which steers EM
    into the collapsed symmetric optimum; cluster-local variances avoid that.
    """
    k = seed_means.shape[0]
    d2 = np.stack([np.sum((x - m) ** 2, axis=1) for m in seed_means])
    assign = np.argmin(d2, axis=0)
    global_var = np.maximum(x.var(axis=0), VAR_FLOOR)
    means = np.empty_like(seed_means)
    variances = np.empty((k, x.shape[1]))
    counts = np.empty(k)
    for c in range(k):
        members = x[assign == c]
        counts[c] = max(len(members), 1)
        if len(members) == 0:
            means[c] = seed_means[c]
            variances[c] = global_var
        else:
            means[c] = members.mean(axis=0)
            variances[c] = np.maximum(members.var(axis=0), VAR_FLOOR)
    return means, variances, counts / counts.sum()


def fit_generator(samples, kind, n_components, replay_signature, rng):
    """Maximum-likelihood density fit; the signature is stored, not baked in.

    Raises ValueError naming the first row of samples that holds a NaN or an
    infinity, and RuntimeError when EM leaves a component empty twice.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < n_components:
        raise ValueError("need at least n_components samples with uniform dimension")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample row {int(np.argmin(finite))} is not finite")
    if kind == "gaussian":
        mean = x.mean(axis=0)
        var = np.maximum(x.var(axis=0), VAR_FLOOR)
        return GeneratorModel([1.0], mean[None, :], var[None, :], replay_signature)
    if kind != "gmm":
        raise ValueError(f"unknown generator kind {kind!r}")

    n, d = x.shape
    k = n_components
    # one (2d, n) array per fit: rows x**2 then x, so both steps are one product
    # with it. E-step: the log of weight times diagonal gaussian density is
    # [-0.5/var, mean/var] @ [x**2; x] plus a per-component constant. M-step:
    # resp @ its transpose gives the weighted sums of x**2 and x together.
    xs = np.empty((2 * d, n))
    np.square(x.T, out=xs[:d])
    xs[d:] = x.T
    coef = np.empty((k, 2 * d))
    means, variances, weights = _hard_assignment_init(x, _kmeanspp_means(x, k, rng))
    trace = []
    prev_ll = -np.inf
    reseeded = False
    it = 0
    while it < EM_MAX_ITERS:
        it += 1
        np.divide(-0.5, variances, out=coef[:, :d])
        np.divide(means, variances, out=coef[:, d:])
        const = np.log(weights) - 0.5 * (
            np.log(2.0 * np.pi * variances).sum(axis=1) + (means * coef[:, d:]).sum(axis=1)
        )
        # (k, n) log_resp, each sample shifted by its max over the k components
        resp = coef @ xs
        resp += const[:, None]
        top = resp.max(axis=0)
        resp -= top
        np.exp(resp, out=resp)
        total = resp.sum(axis=0)
        ll = float(top.sum() + np.log(total).sum())
        trace.append(ll)
        resp /= total
        nk = resp.sum(axis=1)
        if (nk < 1e-10).any():
            if reseeded:
                raise RuntimeError("EM degenerate component after re-seeding")
            reseeded = True
            means, variances, weights = _hard_assignment_init(
                x, _kmeanspp_means(x, k, rng.fork("reseed"))
            )
            trace = []
            prev_ll = -np.inf
            it = 0
            continue
        weights = nk / n
        moments = (resp @ xs.T) / nk[:, None]
        means = moments[:, d:]
        variances = np.maximum(moments[:, :d] - means**2, VAR_FLOOR)
        if np.isfinite(prev_ll) and abs(ll - prev_ll) <= EM_TOL * (abs(prev_ll) + 1.0):
            break
        prev_ll = ll
    return GeneratorModel(weights, means, variances, replay_signature, trace)


def sample_replay(pair, n_real, n_fake, rng):
    """Draw replay rows from a fitted pair: (gen-real rows, gen-fake rows).

    n_real and n_fake are counts or shapes, as GeneratorModel.sample takes them,
    so the arrays are (n_real, dim) and (n_fake, dim) for counts; gen-real rows
    carry the real label and gen-fake rows the fake label.
    """
    reals = pair.g_real.sample(n_real, rng.fork("real"))
    fakes = pair.g_fake.sample(n_fake, rng.fork("fake"))
    return reals, fakes
