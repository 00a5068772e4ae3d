"""Peak traced memory of the model's no-record passes and of a training epoch.

The alpha probe and evaluation read features only, through MLP.features,
which runs the hidden layers in row blocks of at most BLOCK_ROWS rows. Their
peak must stay below the arrays they need, plus two blocks of hidden
activations, plus SMALL_OBJECTS for the Rng forks and per-feature vectors. A
pass that keeps a full forward record (every layer's pre-activations and
activations) holds about four times the feature array and exceeds it.

A training epoch holds its batches, one step's forward record and backward
temporaries, and one parameter-sized array: the gradient buffer it passes to
every step. Adam's temporaries live on AdamState, made before the epoch. A
step that allocates its own gradient or Adam temporaries holds two or three
parameter-sized arrays and exceeds the bound.
"""

import tracemalloc

import numpy as np

from genreplay.confusion import DcsConfig, compute_alpha
from genreplay.model import BLOCK_ROWS, MLP
from genreplay.numerics import AdamState, Rng
from genreplay.replay import GeneratorPair, Signature, fit_generator
from genreplay.trainer import RunState, Strategy, TrainConfig, evaluate, train_task

WIDTHS = [10, 64, 64]
FLOAT = 8
TWO_BLOCKS = 2 * BLOCK_ROWS * WIDTHS[-1] * FLOAT
SMALL_OBJECTS = 64 * 1024


def traced_peak(fn):
    """Peak bytes traced while fn runs, above what was live when it started; fn runs once before."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def model_and_rng():
    rng = Rng(0)
    return MLP(WIDTHS, rng.fork("init")), rng


def test_alpha_probe_peak_is_its_features_plus_two_blocks():
    model, rng = model_and_rng()
    sig = Signature(np.zeros(WIDTHS[0]), 0.0)
    g_real, g_fake = (
        fit_generator(rng.fork(name).normal(size=(200, WIDTHS[0])), "gaussian", 1, sig, rng.fork(f"fit-{name}"))
        for name in ("gen-real", "gen-fake")
    )
    pair = GeneratorPair(0, g_real, g_fake)
    fakes = rng.fork("fake").normal(size=(400, WIDTHS[0])) + 1.0
    # the one pair draws all PROBE_CAP = 512 gen-real rows inside the probe
    peak = traced_peak(lambda: compute_alpha(model, [pair], fakes, DcsConfig(), Rng(1)))
    features = (512 + 400) * WIDTHS[-1] * FLOAT
    assert peak < features + TWO_BLOCKS + SMALL_OBJECTS


def test_evaluate_peak_is_its_features_and_scores_plus_two_blocks():
    model, rng = model_and_rng()
    x = rng.fork("x").normal(size=(600, WIDTHS[0]))
    labels = np.repeat([0, 1], 300)
    peak = traced_peak(lambda: evaluate(model, x, labels))
    returned = 600 * WIDTHS[-1] * FLOAT + 600 * FLOAT
    assert peak < returned + TWO_BLOCKS + SMALL_OBJECTS


def test_training_epoch_peak_is_one_gradient_plus_one_step():
    dim, hidden, batch, n = 16, 128, 32, 192
    cfg = TrainConfig(epochs=1, batch_current=batch, arch=(hidden, hidden))
    rng = Rng(0)
    model = MLP([dim, hidden, hidden], rng.fork("init"))
    state = RunState(model=model, adam=AdamState(model.n_params))
    x = rng.fork("x").normal(size=(n, dim))
    labels = np.repeat([0, 1], n // 2)
    peak = traced_peak(lambda: train_task(state, 0, x, labels, Strategy("lower_bound"), cfg, rng))
    epoch_arrays = n * dim * FLOAT + n * FLOAT
    gradient = model.n_params * FLOAT
    # two pre-activations and two activations of (batch, hidden)
    forward_record = 4 * batch * hidden * FLOAT
    # two upstream gradients of (batch, hidden) and a ReLU mask
    backward_temporaries = 2 * batch * hidden * FLOAT + batch * hidden
    assert peak < epoch_arrays + gradient + forward_record + backward_temporaries + SMALL_OBJECTS
