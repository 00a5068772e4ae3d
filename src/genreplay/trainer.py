"""Incremental training engine and the strategy table.

Per batch, current samples plus generated fakes are always label-supervised
(the confusion-free part). Generated-real replays are handled per strategy:
directly supervised, dropped, pushed through the relative-separation term, or
blended between the two with a fixed or confusion-driven weight.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .confusion import DcsConfig, DcsRecord, compute_alpha
from .losses import BatchLossBreakdown, LossConfig, ce_loss_batch, centroid, rs_loss_with_grads
from .metrics import LABEL_FAKE, LABEL_REAL, TaskEval, accuracy, auc, build_table
from .model import MLP
from .numerics import AdamState, Rng, adam_step, check_count, check_real
from .replay import GeneratorPair, fit_generator, sample_replay
from .streams import draw_stream_data


class StrategyRow(NamedTuple):
    """What one strategy kind does with replay.

    uses_replay: replay is drawn at all. keeps_gen_real: gen-real rows enter
    the batch, and train_task trains a row without them at batch_gen_real 0.
    supervised: gen-real rows get CE weighted by alpha. alpha: "dcs" probes
    the confusion score every epoch unless a fixed_alpha overrides it,
    "fixed" requires a fixed_alpha, and None means alpha is 1 and the table
    reports none. batch_objective weighs each batch by the row and alpha.
    """

    uses_replay: bool
    keeps_gen_real: bool
    supervised: bool
    alpha: str | None


# full_replay and no_rs share a row, and fixed_alpha 1.0 trains like them
STRATEGY_TABLE = {
    "adaptive":         StrategyRow(True, True, True, "dcs"),
    "lower_bound":      StrategyRow(False, False, False, None),
    "full_replay":      StrategyRow(True, True, True, None),
    "fake_only_replay": StrategyRow(True, False, False, None),
    "fixed_alpha":      StrategyRow(True, True, True, "fixed"),
    "no_gen_real_sup":  StrategyRow(True, True, False, "dcs"),
    "no_rs":            StrategyRow(True, True, True, None),
}


@dataclass(frozen=True)
class Strategy:
    kind: str = "adaptive"
    fixed_alpha: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(f"kind must be a string, got {self.kind!r}")
        if self.kind not in STRATEGY_TABLE:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.fixed_alpha is None:
            if self.row.alpha == "fixed":
                raise ValueError("fixed_alpha strategy needs a fixed_alpha value")
        elif self.row.alpha is None:
            raise ValueError(f"{self.kind} does not take a fixed_alpha override")
        else:
            check_real("fixed_alpha", self.fixed_alpha)
            # a JSON 1 reads as 1.0, and -0.0 as 0.0, so the name and table.csv agree
            object.__setattr__(self, "fixed_alpha", float(self.fixed_alpha) + 0.0)
            if not 0.0 <= self.fixed_alpha <= 1.0:
                raise ValueError("fixed_alpha must lie in [0,1]")

    @property
    def row(self):
        return STRATEGY_TABLE[self.kind]

    @property
    def name(self):
        """The kind, plus the fixed_alpha value when one is given.

        The value is written with :g when that reads back as the same number
        (0.1, 1e-05), else with repr, so two values never share a name.
        """
        if self.fixed_alpha is None:
            return self.kind
        alpha = f"{self.fixed_alpha:g}"
        if float(alpha) != self.fixed_alpha:
            alpha = repr(self.fixed_alpha)
        if self.kind == "fixed_alpha":
            return f"fixed_alpha_{alpha}"
        return f"{self.kind}_fixed_alpha_{alpha}"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_current: int = 32
    batch_gen_real: int = 12
    batch_gen_fake: int = 12
    seed: int = 0
    arch: tuple = (64, 64)
    generator_kind: str = "gaussian"
    gmm_components: int = 2
    replay_pool_size: int | None = None

    def __post_init__(self):
        check_count("epochs", self.epochs, 1)
        check_count("batch_current", self.batch_current, 1)
        check_count("batch_gen_real", self.batch_gen_real, 0)
        check_count("batch_gen_fake", self.batch_gen_fake, 0)
        check_count("gmm_components", self.gmm_components, 1)
        check_count("seed", self.seed, float("-inf"))
        if self.replay_pool_size is not None:
            check_count("replay_pool_size", self.replay_pool_size, 1)
        if self.generator_kind not in ("gaussian", "gmm"):
            raise ValueError(f"unknown generator kind {self.generator_kind!r}")
        if not isinstance(self.arch, (list, tuple)):
            raise ValueError(f"arch must be a list of hidden widths, got {self.arch!r}")
        object.__setattr__(self, "arch", tuple(self.arch))
        if not self.arch:
            raise ValueError("arch needs at least one hidden width")
        for i, width in enumerate(self.arch):
            check_count(f"arch[{i}]", width, 1)


@dataclass
class RunState:
    model: MLP
    adam: AdamState
    generator_pairs: list = field(default_factory=list)
    dcs_history: list = field(default_factory=list)
    loss_trace: list = field(default_factory=list)
    # per task: (x_train, y_train, x_test, y_test), as the run drew them
    stream_data: list = field(default_factory=list)


def split_round_robin(n, k):
    """Split n draws over k pools, earlier pools absorbing the remainder."""
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


class BatchLayout(NamedTuple):
    """Where each part of the objective sits in a batch's rows.

    Rows run by role: n_current current rows, then the gen-fake rows of pair
    0, 1, ..., then the gen-real rows of pair 0, 1, .... So rows
    [:n_current + n_fake] feed the label-supervised part, rows
    [n_current:n_current + n_fake] are the gen-fake part and rows
    [n_current + n_fake:] the gen-real part. real_counts and fake_counts give
    each pair's row counts, and replay_labels the labels of the rows after the
    current ones.
    """

    n_current: int
    n_fake: int
    real_counts: list
    fake_counts: list
    replay_labels: np.ndarray


def batch_layout(n_current, n_pairs, cfg):
    """The layout of a batch with n_current current rows and n_pairs stored pairs.

    The replay draws are split round-robin over the pairs.
    """
    real_counts, fake_counts = [], []
    if n_pairs:
        real_counts = split_round_robin(cfg.batch_gen_real, n_pairs)
        fake_counts = split_round_robin(cfg.batch_gen_fake, n_pairs)
    n_fake = sum(fake_counts)
    replay_labels = np.repeat([LABEL_FAKE, LABEL_REAL], [n_fake, sum(real_counts)])
    return BatchLayout(n_current, n_fake, real_counts, fake_counts, replay_labels)


class Batch(NamedTuple):
    """One assembled training batch of n rows, or a stack of them.

    x is (n, input_dim) and labels (n,) with 1 for fake, in the row order of
    layout (see BatchLayout); a stack adds a leading batch axis to both.
    """

    x: np.ndarray
    labels: np.ndarray
    layout: BatchLayout


def assemble_batch(x, labels, pairs, cfg, rng):
    """Current rows plus replay draws split round-robin over stored pairs.

    x is one batch's current rows (n, dim) with labels (n,), or a stack of
    batches (n_batches, n, dim) with labels (n_batches, n). Each batch's rows
    follow layout's order (see BatchLayout), with float labels, which
    ce_loss_batch reads without a copy. Each pair draws once for the whole
    stack: a pair with a pool draws indices with replacement on fork pool{i},
    the real rows then the fake rows; any other pair draws through
    sample_replay on fork pair{i}.
    """
    lead, n = x.shape[:-2], x.shape[-2]
    layout = batch_layout(n, len(pairs), cfg)
    fakes, reals = [], []
    for i, pair in enumerate(pairs):
        real_shape = lead + (layout.real_counts[i],)
        fake_shape = lead + (layout.fake_counts[i],)
        if pair.pool is not None:
            real_arr, fake_arr = pair.pool
            pool_rng = rng.fork(f"pool{i}")
            reals.append(real_arr[pool_rng.integers(0, len(real_arr), size=real_shape)])
            fakes.append(fake_arr[pool_rng.integers(0, len(fake_arr), size=fake_shape)])
        else:
            real, fake = sample_replay(pair, real_shape, fake_shape, rng.fork(f"pair{i}"))
            reals.append(real)
            fakes.append(fake)
    rows = np.concatenate([x] + fakes + reals, axis=-2)
    row_labels = np.empty(rows.shape[:-1])
    row_labels[..., :n] = labels
    row_labels[..., n:] = layout.replay_labels
    return Batch(rows, row_labels, layout)


def batch_objective(model, batch, strategy, alpha, loss_cfg, out=None):
    """Loss breakdown and flat parameter gradient for one assembled Batch.

    batch.x is (n, input_dim) and batch.labels (n,), in the row order of
    batch.layout. Current and gen-fake rows feed the label-supervised l_cf;
    gen-real rows feed the gen-real CE, weighted by w_ce (alpha when the
    strategy supervises them, else 0) and, with the gen-fake rows, the RS
    term, weighted by w_rs = 1 - alpha. So l_c = w_ce * l_ce_gen_real +
    w_rs * l_rs and l_overall = l_c + l_cf. alpha must lie in [0, 1]. The
    gradient is a flat (model.n_params,) vector: a fresh array, or out when
    given (see MLP.backward).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    w_ce = alpha if strategy.row.supervised else 0.0
    w_rs = 1.0 - alpha
    rec = model.forward(batch.x)
    labels = batch.labels
    n_current, n_fake = batch.layout.n_current, batch.layout.n_fake
    # rows [:n_cf] are label-supervised, rows [n_cf:] are gen-real
    n_cf = n_current + n_fake
    n_gr = len(labels) - n_cf

    l_ce_gr = 0.0
    if not n_gr:
        l_cf, d_yp = ce_loss_batch(rec.y_p, labels)
    else:
        # one pass over every row's CE term; gen-real rows are labelled real, so their
        # gradient is positive and a w_ce of 0 zeroes it
        l_cf, l_ce_gr, d_yp = ce_loss_batch(rec.y_p, labels, split=n_cf)
        if not strategy.row.supervised:
            l_ce_gr = 0.0
        d_yp[n_cf:] *= w_ce

    l_rs = 0.0
    d_feat = None
    if w_rs and n_gr and n_fake:
        features = rec.features
        cent = centroid(features[n_cf:])
        l_rs, d_gf, d_gr = rs_loss_with_grads(features[n_current:n_cf], cent, n_gr, loss_cfg)
        d_feat = np.zeros(features.shape)
        np.multiply(w_rs, d_gf, out=d_feat[n_current:n_cf])
        np.multiply(w_rs, d_gr, out=d_feat[n_cf:])

    grad = model.backward(rec, d_yp, d_feat, out=out)
    l_c = float(w_ce * l_ce_gr + w_rs * l_rs)
    return BatchLossBreakdown(l_cf, l_ce_gr, l_rs, float(alpha), l_c, l_c + l_cf), grad


def _resolve_alpha(state, strategy, current_fakes, dcs_cfg, rng, task_index, epoch):
    """Alpha for the coming epoch (None when none applies), plus its confusion record."""
    if strategy.fixed_alpha is not None or strategy.row.alpha != "dcs" or not state.generator_pairs:
        return strategy.fixed_alpha, None
    s, alpha = compute_alpha(state.model, state.generator_pairs, current_fakes, dcs_cfg, rng)
    return alpha, DcsRecord(task_index=task_index, epoch=epoch, s=s, alpha=alpha)


def train_task(
    state,
    task_index,
    x_train,
    y_train,
    strategy,
    cfg,
    rng,
    loss_cfg=LossConfig(),
    dcs_cfg=DcsConfig(),
):
    """Train the model on one task's rows x_train (n, dim) with labels y_train (n,).

    Returns the last epoch's alpha, or None when no alpha applied. The task's
    generator pair is fitted apart, by fit_task_generators, and only when a
    later task replays it.
    """
    if len(x_train) < cfg.batch_current:
        raise ValueError(
            f"task {task_index} has {len(x_train)} training rows, "
            f"fewer than batch_current={cfg.batch_current}"
        )
    pairs = state.generator_pairs if strategy.row.uses_replay else []
    if not strategy.row.keeps_gen_real:
        cfg = replace(cfg, batch_gen_real=0)
    current_fakes = x_train[y_train == LABEL_FAKE]
    # every step's gradient goes here; adam_step reads it before the next step writes it
    grad_buf = np.empty(state.model.n_params)

    for epoch in range(cfg.epochs):
        epoch_rng = rng.fork(f"epoch{epoch}")
        alpha, record = _resolve_alpha(
            state, strategy, current_fakes, dcs_cfg, epoch_rng.fork("alpha"), task_index, epoch
        )
        if record is not None:
            state.dcs_history.append(record)

        order = np.arange(len(x_train))
        epoch_rng.fork("shuffle").shuffle(order)
        n_batches = len(order) // cfg.batch_current
        # the whole epoch's batches before its first step; step b trains on views of row b
        rows = order[: n_batches * cfg.batch_current].reshape(n_batches, cfg.batch_current)
        xs, ys, layout = assemble_batch(
            x_train[rows], y_train[rows], pairs, cfg, epoch_rng.fork("replay")
        )
        for b in range(n_batches):
            breakdown, grad = batch_objective(
                state.model, Batch(xs[b], ys[b], layout), strategy,
                1.0 if alpha is None else alpha, loss_cfg, out=grad_buf,
            )
            state.loss_trace.append(breakdown.l_overall)
            adam_step(state.model.params, grad, state.adam)
    return alpha


def fit_task_generators(state, task_index, x_train, y_train, replay_signature, cfg, rng, task_id):
    """Fit and freeze the task's generator pair, with its replay pool if one is configured.

    x_train (n, dim) and y_train (n,) are the task's training rows. A fit that
    fails re-raises its error naming the task by task_id, its id in the
    stream, and the class whose rows it could not fit.
    """
    if any(p.task_index == task_index for p in state.generator_pairs):
        raise ValueError(f"generators for task {task_index} already fitted")
    n_comp = 1 if cfg.generator_kind == "gaussian" else cfg.gmm_components
    fitted = []
    for name, label in (("real", LABEL_REAL), ("fake", LABEL_FAKE)):
        rows = x_train[y_train == label]
        try:
            fitted.append(
                fit_generator(rows, cfg.generator_kind, n_comp, replay_signature, rng.fork(name))
            )
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(
                f"task {task_id}: cannot fit the {name} generator on {len(rows)} rows: {exc}"
            ) from exc
    pair = GeneratorPair(task_index, *fitted)
    if cfg.replay_pool_size:
        size = cfg.replay_pool_size
        pair = replace(pair, pool=sample_replay(pair, size, size, rng.fork("pool")))
    state.generator_pairs.append(pair)


def evaluate(model, x, labels):
    """A task's TaskEval on its test rows x (n, dim) with labels (n,)."""
    scores = model.scores(x)
    overall, real_acc, fake_acc = accuracy(scores, labels)
    return TaskEval(auc=auc(scores, labels), acc=overall, acc_real=real_acc, acc_fake=fake_acc)


def check_stream(stream, cfg):
    """Raise ValueError, naming the task, unless every task of stream can train under cfg.

    A task needs at least batch_current training rows. With a GMM generator,
    every task but the last needs gmm_components training rows of each class
    to fit its pair, whatever the strategy. Nothing is drawn.
    """
    counts = stream.train_counts
    for k, (t, (n_real, n_fake)) in enumerate(counts.items()):
        if n_real + n_fake < cfg.batch_current:
            raise ValueError(
                f"task {t} has {n_real + n_fake} training rows, "
                f"fewer than batch_current={cfg.batch_current}"
            )
        n_class = min(n_real, n_fake)
        if cfg.generator_kind == "gmm" and k + 1 < len(counts) and n_class < cfg.gmm_components:
            raise ValueError(
                f"task {t} has {n_class} training rows of one class, "
                f"fewer than gmm_components={cfg.gmm_components}"
            )


def run_incremental(
    stream, strategy, cfg, loss_cfg=LossConfig(), dcs_cfg=DcsConfig(), return_state=False
):
    """Train through the stream; after each task, evaluate every seen task.

    check_stream runs before anything is drawn. A task's generator pair is
    fitted only when a later task replays it: never for the final task, nor
    for a strategy that uses no replay.
    """
    check_stream(stream, cfg)
    rng = Rng(cfg.seed)
    # per task (x_train, y_train, x_test, y_test); a dataset stream's own arrays, not copies
    data = draw_stream_data(stream, rng.fork("data"))
    model = MLP([stream.dim] + list(cfg.arch), rng.fork("init"))
    state = RunState(model=model, adam=AdamState(model.n_params), stream_data=data)

    per_step = []
    alphas = []
    for k in range(stream.n_tasks):
        x_train, y_train, _, _ = data[k]
        task_rng = rng.fork(f"task{k}")
        last_alpha = train_task(
            state, k, x_train, y_train, strategy, cfg, task_rng, loss_cfg=loss_cfg, dcs_cfg=dcs_cfg,
        )
        if strategy.row.uses_replay and k + 1 < stream.n_tasks:
            fit_task_generators(
                state, k, x_train, y_train, stream.replay_signatures[k], cfg, task_rng.fork("fit"),
                task_id=stream.task_ids[k],
            )
        evals = {t: evaluate(state.model, *data[t][2:]) for t in range(k + 1)}
        per_step.append(evals)
        alphas.append(last_alpha)

    table = build_table(per_step, alphas)
    if return_state:
        return table, state
    return table
