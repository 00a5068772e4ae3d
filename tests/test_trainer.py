"""Incremental trainer: batching, strategies, objective gradients, full runs."""

from dataclasses import replace

import numpy as np
import pytest

import genreplay.trainer
from genreplay.confusion import DcsConfig
from genreplay.losses import LossConfig, ce_loss_batch, centroid, combine_losses, rs_loss_with_grads
from genreplay.metrics import table_to_dict
from genreplay.model import MLP
from genreplay.numerics import AdamState, Rng, adam_step, finite_diff_grad
from genreplay.replay import Signature, fit_generator, GeneratorPair, sample_replay
from genreplay.streams import FeatureTable, draw_stream_data, make_scenario, stream_from_samples
from genreplay.trainer import (
    STRATEGY_KINDS,
    Batch,
    RunState,
    Strategy,
    TrainConfig,
    assemble_batch,
    batch_layout,
    batch_objective,
    check_stream,
    fit_task_generators,
    run_incremental,
    split_round_robin,
    train_task,
)

DIM = 6


def table(rows):
    """A FeatureTable of (features, label, task id) triples."""
    features, labels, tasks = zip(*rows)
    return FeatureTable(np.stack(features), np.array(labels), np.array(tasks))


def tiny_stream(kind="domain_safe", n_tasks=2, seed=0, **kw):
    kw.setdefault("n_train_per_class", 48)
    kw.setdefault("n_test_per_class", 40)
    return make_scenario(kind, n_tasks, 2 * n_tasks + 2, Rng(seed).fork("scenario"), **kw)


def tiny_cfg(seed=0, **kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_current", 16)
    kw.setdefault("arch", (16, 16))
    return TrainConfig(seed=seed, **kw)


def make_pair(task_index, seed, dim=DIM):
    rng = Rng(seed)
    sig = Signature(np.zeros(dim), 0.0)
    reals = rng.fork("r").normal(size=(60, dim))
    fakes = 1.5 + rng.fork("f").normal(size=(60, dim))
    return GeneratorPair(
        task_index,
        fit_generator(reals, "gaussian", 1, sig, rng.fork("gr")),
        fit_generator(fakes, "gaussian", 1, sig, rng.fork("gf")),
    )


def current_chunk(n=8, dim=DIM, seed=1):
    """(x, labels) of n current rows, alternating real and fake."""
    rng = Rng(seed)
    x = np.stack([rng.fork(f"s{i}").normal(size=dim) for i in range(n)])
    return x, np.arange(n) % 2


# the parent's row layout: role codes, in rows interleaved pair by pair
CURRENT, GEN_REAL, GEN_FAKE = 0, 1, 2


def parent_layout(n_current, real_counts, fake_counts):
    """(role, cf_idx, gr_idx, gf_idx) of the parent's interleaved layout.

    Rows ran: current rows, then gen-real and gen-fake rows of pair 0, then of
    pair 1, and so on; the index arrays picked the label-supervised, gen-real
    and gen-fake rows out of them.
    """
    counts = [n_current]
    for n_real, n_fake in zip(real_counts, fake_counts):
        counts += [n_real, n_fake]
    role = np.repeat([CURRENT] + [GEN_REAL, GEN_FAKE] * len(real_counts), counts)
    return (
        role,
        np.flatnonzero(role != GEN_REAL),
        np.flatnonzero(role == GEN_REAL),
        np.flatnonzero(role == GEN_FAKE),
    )


def role_order(layout):
    """perm with role-ordered rows = the parent's interleaved rows[perm]."""
    _, cf_idx, gr_idx, _ = parent_layout(layout.n_current, layout.real_counts, layout.fake_counts)
    return np.concatenate([cf_idx, gr_idx])


class TestStrategy:
    def test_registry_names(self):
        assert Strategy("adaptive").name == "adaptive"
        assert Strategy("fixed_alpha", 0.5).name == "fixed_alpha_0.5"

    def test_override_in_name(self):
        assert Strategy("adaptive", fixed_alpha=0.3).name == "adaptive_fixed_alpha_0.3"
        assert Strategy("no_gen_real_sup", fixed_alpha=0.0).name == "no_gen_real_sup_fixed_alpha_0"
        names = {Strategy(k).name for k in STRATEGY_KINDS if k != "fixed_alpha"}
        assert names == set(STRATEGY_KINDS) - {"fixed_alpha"}

    @pytest.mark.parametrize("alpha, text", [
        (0, "0"), (0.1, "0.1"), (0.5, "0.5"), (1.0, "1"), (1e-05, "1e-05"),
        (0.1000001, "0.1000001"), (1 / 3, "0.3333333333333333"),
    ])
    def test_fixed_alpha_named_so_it_reads_back(self, alpha, text):
        # :g when it reads back as the same number, else repr
        assert Strategy("fixed_alpha", alpha).name == f"fixed_alpha_{text}"
        assert Strategy("adaptive", alpha).name == f"adaptive_fixed_alpha_{text}"
        assert float(text) == alpha

    def test_replay_flags(self):
        assert not Strategy("lower_bound").row.uses_replay
        assert Strategy("fake_only_replay").row.uses_replay
        assert not Strategy("fake_only_replay").row.keeps_gen_real
        assert Strategy("adaptive").row.keeps_gen_real

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy("replay_everything")
        with pytest.raises(ValueError, match="needs a fixed_alpha"):
            Strategy("fixed_alpha")
        with pytest.raises(ValueError, match="override"):
            Strategy("full_replay", fixed_alpha=0.5)
        with pytest.raises(ValueError, match="\\[0,1\\]"):
            Strategy("fixed_alpha", fixed_alpha=1.5)


class TestBatching:
    def test_split_round_robin(self):
        assert split_round_robin(12, 2) == [6, 6]
        assert split_round_robin(7, 3) == [3, 2, 2]
        assert split_round_robin(2, 5) == [1, 1, 0, 0, 0]

    def test_no_pairs_returns_current_only(self):
        x, labels = current_chunk()
        batch = assemble_batch(x, labels, [], tiny_cfg(), Rng(0))
        assert np.array_equal(batch.x, x)
        assert np.array_equal(batch.labels, labels)
        assert (batch.layout.n_current, batch.layout.n_fake) == (8, 0)
        assert batch.layout.replay_labels.size == 0

    def test_replay_counts_two_pairs(self):
        x, labels = current_chunk()
        pairs = [make_pair(0, 10), make_pair(1, 11)]
        cfg = TrainConfig(batch_gen_real=12, batch_gen_fake=12)
        batch = assemble_batch(x, labels, pairs, cfg, Rng(2))
        assert (batch.layout.n_current, batch.layout.n_fake) == (8, 12)
        assert (batch.layout.real_counts, batch.layout.fake_counts) == ([6, 6], [6, 6])
        # current rows, then each pair's gen-fake draws, then each pair's gen-real draws
        draws = [sample_replay(pair, 6, 6, Rng(2).fork(f"pair{i}")) for i, pair in enumerate(pairs)]
        parts = [x] + [fake for _, fake in draws] + [real for real, _ in draws]
        assert np.array_equal(batch.x, np.concatenate(parts))
        assert batch.labels.tolist() == labels.tolist() + [1] * 12 + [0] * 12

    def test_gen_real_excluded_on_request(self):
        batch = assemble_batch(
            *current_chunk(), [make_pair(0, 10)], tiny_cfg(), Rng(2), include_gen_real=False
        )
        assert sum(batch.layout.real_counts) == 0
        assert (batch.layout.n_current, batch.layout.n_fake) == (8, 12)
        assert len(batch.x) == 8 + 12

    def test_fixed_pool_draws_come_from_pool(self):
        pair = make_pair(0, 10)
        pool_rows = pair.g_real.sample(5, Rng(3).fork("pr"))
        pooled = replace(pair, pool=(pool_rows, pair.g_fake.sample(5, Rng(3).fork("pf"))))
        batch = assemble_batch(*current_chunk(), [pooled], tiny_cfg(), Rng(4))
        gen_reals = batch.x[batch.layout.n_current + batch.layout.n_fake :]
        known = {tuple(r) for r in pool_rows}
        assert len(gen_reals) and all(tuple(r) in known for r in gen_reals)


def make_gmm_pair(task_index, seed, dim=DIM):
    # three well-separated clusters per class, and a non-zero artifact shift
    rng = Rng(seed)
    sig = Signature(np.eye(dim)[0], 0.8)
    centers = 4.0 * np.eye(dim)[:3]
    reals = np.concatenate([c + rng.fork(f"r{k}").normal(size=(40, dim)) for k, c in enumerate(centers)])
    fakes = np.concatenate([1.5 - c + rng.fork(f"f{k}").normal(size=(40, dim)) for k, c in enumerate(centers)])
    return GeneratorPair(
        task_index,
        fit_generator(reals, "gmm", 3, sig, rng.fork("gr")),
        fit_generator(fakes, "gmm", 3, sig, rng.fork("gf")),
    )


def epoch_replay(pairs, real_counts, fake_counts, n_batches, rng, dim=DIM):
    """Each batch's replay rows, drawn pair by pair once per epoch on rng's fork paths.

    Every draw is one flat draw for all n_batches batches, split batch by batch.
    The rows come in the parent's interleaved order (see parent_layout).
    """
    parts = [np.empty((n_batches, 0, dim))]
    for i, pair in enumerate(pairs):
        if pair.pool is not None:
            pool_rng = rng.fork(f"pool{i}")
            for arr, n in zip(pair.pool, (real_counts[i], fake_counts[i])):
                idx = pool_rng.integers(0, len(arr), size=n_batches * n)
                parts.append(arr[idx].reshape(n_batches, n, dim))
        else:
            pair_rng = rng.fork(f"pair{i}")
            draws = ((pair.g_real, "real", real_counts[i]), (pair.g_fake, "fake", fake_counts[i]))
            for g, role, n in draws:
                parts.append(g.sample(n_batches * n, pair_rng.fork(role)).reshape(n_batches, n, dim))
    return np.concatenate(parts, axis=1)


class TestEpochReplay:
    """assemble_batch draws a stack's replay with one draw per pair and role."""

    N_BATCHES = 5

    def _pooled(self, pairs, size=7):
        return [
            replace(p, pool=(p.g_real.sample(size, Rng(30).fork(f"r{p.task_index}")),
                             p.g_fake.sample(size, Rng(30).fork(f"f{p.task_index}"))))
            for p in pairs
        ]

    @pytest.mark.parametrize(
        "case",
        ["gaussian", "gmm", "mixed_kinds", "pools", "some_pooled", "no_gen_real",
         "fewer_real_than_pairs", "no_gen_fake", "no_pairs"],
    )
    def test_rows_match_per_batch_draws(self, case):
        pairs = {
            "gaussian": [make_pair(0, 10), make_pair(1, 11)],
            "gmm": [make_gmm_pair(0, 12), make_gmm_pair(1, 13)],
            "no_pairs": [],
        }.get(case, [make_pair(0, 10), make_gmm_pair(1, 13), make_pair(2, 14)])
        cfg = TrainConfig(
            batch_gen_real=2 if case == "fewer_real_than_pairs" else 7,
            batch_gen_fake=0 if case == "no_gen_fake" else 5,
        )
        if case == "pools":
            pairs = self._pooled(pairs)
        elif case == "some_pooled":
            pairs = pairs[:1] + self._pooled(pairs[1:])
        include_gen_real = case != "no_gen_real"
        layout = batch_layout(4, len(pairs), cfg, include_gen_real)
        if case == "fewer_real_than_pairs":
            assert layout.real_counts == [1, 1, 0]
        counts = layout.real_counts, layout.fake_counts
        rng = Rng(21).fork("replay")
        xs, ys = zip(*(current_chunk(4, seed=b) for b in range(self.N_BATCHES)))
        stack = assemble_batch(np.stack(xs), np.stack(ys), pairs, cfg, rng, include_gen_real)
        n_replay = sum(layout.real_counts) + sum(layout.fake_counts)
        assert stack.x.shape == (self.N_BATCHES, 4 + n_replay, DIM)
        assert stack.labels.shape == (self.N_BATCHES, 4 + n_replay)
        assert stack.labels.dtype == float
        assert stack.layout[:4] == layout[:4]
        # the parent's rows for the same forks, permuted into role order
        perm = role_order(layout)[4:] - 4
        assert sorted(perm) == list(range(n_replay))
        want = epoch_replay(pairs, *counts, self.N_BATCHES, rng)
        for b in range(self.N_BATCHES):
            assert np.array_equal(stack.x[b], np.concatenate([xs[b], want[b, perm]]))
            assert np.array_equal(stack.labels[b], np.concatenate([ys[b], layout.replay_labels]))
        # one batch is the stack of one, on the same forks
        batch = assemble_batch(xs[0], ys[0], pairs, cfg, rng, include_gen_real)
        want = epoch_replay(pairs, *counts, 1, rng)[0]
        assert np.array_equal(batch.x, np.concatenate([xs[0], want[perm]]))
        assert batch.layout[:4] == layout[:4]
        assert np.array_equal(batch.labels, np.concatenate([ys[0], layout.replay_labels]))

    def test_layout_indices_match_roles(self):
        layout = batch_layout(4, 3, TrainConfig(batch_gen_real=2, batch_gen_fake=5))
        # pair 2 gets no gen-real row
        assert (layout.real_counts, layout.fake_counts) == ([1, 1, 0], [2, 2, 1])
        assert (layout.n_current, layout.n_fake) == (4, 5)
        assert layout.replay_labels.tolist() == [1, 1, 1, 1, 1, 0, 0]
        role, cf_idx, gr_idx, gf_idx = parent_layout(4, layout.real_counts, layout.fake_counts)
        assert role.tolist() == [CURRENT] * 4 + [
            GEN_REAL, GEN_FAKE, GEN_FAKE,
            GEN_REAL, GEN_FAKE, GEN_FAKE,
            GEN_FAKE,
        ]
        # each slice holds the rows the parent's index array picked, in its order
        perm = role_order(layout)
        assert np.array_equal(perm[:9], cf_idx)
        assert np.array_equal(perm[4:9], gf_idx)
        assert np.array_equal(perm[9:], gr_idx)
        assert role[perm].tolist() == [CURRENT] * 4 + [GEN_FAKE] * 5 + [GEN_REAL] * 2

    @staticmethod
    def per_batch_train_task(
        state, task_index, x_train, y_train, strategy, cfg, rng, loss_cfg, dcs_cfg
    ):
        """train_task written as a loop over batches of epoch_replay's rows, in role order."""
        pairs = state.generator_pairs if strategy.row.uses_replay else []
        current_fakes = x_train[y_train == 1]
        layout = batch_layout(cfg.batch_current, len(pairs), cfg, strategy.row.keeps_gen_real)
        replay_perm = role_order(layout)[cfg.batch_current :] - cfg.batch_current
        alpha = None
        for epoch in range(cfg.epochs):
            epoch_rng = rng.fork(f"epoch{epoch}")
            alpha, record = genreplay.trainer._resolve_alpha(
                state, strategy, current_fakes, dcs_cfg, epoch_rng.fork("alpha"), task_index, epoch
            )
            if record is not None:
                state.dcs_history.append(record)
            order = np.arange(len(x_train))
            epoch_rng.fork("shuffle").shuffle(order)
            n_batches = len(order) // cfg.batch_current
            replay = epoch_replay(
                pairs, layout.real_counts, layout.fake_counts, n_batches,
                epoch_rng.fork("replay"), dim=x_train.shape[1],
            )[:, replay_perm]
            for b in range(n_batches):
                rows = order[b * cfg.batch_current : (b + 1) * cfg.batch_current]
                batch = Batch(
                    np.concatenate([x_train[rows], replay[b]]),
                    np.concatenate([y_train[rows], layout.replay_labels]),
                    layout,
                )
                breakdown, grad = batch_objective(
                    state.model, batch, strategy, 1.0 if alpha is None else alpha, loss_cfg
                )
                state.loss_trace.append(breakdown.l_overall)
                adam_step(state.model.params, grad, state.adam)
        return alpha

    @pytest.mark.parametrize(
        "strategy, kind, pool",
        [("adaptive", "gaussian", None), ("adaptive", "gmm", 40),
         ("fake_only_replay", "gaussian", None), ("lower_bound", "gaussian", None),
         ("no_gen_real_sup", "gaussian", None), ("full_replay", "gmm", 40)],
    )
    def test_train_task_trace_matches_per_batch_assembly(self, monkeypatch, strategy, kind, pool):
        stream = tiny_stream(n_tasks=3, seed=14)
        cfg = tiny_cfg(
            seed=14, batch_gen_real=5, batch_gen_fake=4, generator_kind=kind,
            gmm_components=3, replay_pool_size=pool,
        )
        table, state = run_incremental(stream, Strategy(strategy), cfg, return_state=True)
        monkeypatch.setattr(genreplay.trainer, "train_task", self.per_batch_train_task)
        want_table, want_state = run_incremental(stream, Strategy(strategy), cfg, return_state=True)
        assert len(state.loss_trace) == 3 * 2 * 6  # tasks, epochs, batches
        assert state.loss_trace == want_state.loss_trace
        assert table_to_dict(table) == table_to_dict(want_table)


    @pytest.mark.parametrize(
        "strategy, kind, pool",
        [("adaptive", "gaussian", None), ("lower_bound", "gaussian", None), ("adaptive", "gmm", 40)],
    )
    def test_each_epoch_is_one_assemble_batch_call(self, monkeypatch, strategy, kind, pool):
        calls = []
        inner = genreplay.trainer.assemble_batch

        def recording(x, labels, pairs, *args):
            calls.append((x.shape, labels.shape, len(pairs)))
            return inner(x, labels, pairs, *args)

        monkeypatch.setattr(genreplay.trainer, "assemble_batch", recording)
        stream = tiny_stream(n_tasks=3, seed=14)
        cfg = tiny_cfg(
            seed=14, batch_gen_real=5, batch_gen_fake=4, generator_kind=kind,
            gmm_components=3, replay_pool_size=pool,
        )
        run_incremental(stream, Strategy(strategy), cfg)
        # 3 tasks of 2 epochs, each epoch 6 batches of 16 current rows
        n_pairs = [0, 1, 2] if strategy != "lower_bound" else [0, 0, 0]
        want = [((6, 16, stream.dim), (6, 16), n) for n in n_pairs for _ in range(2)]
        assert calls == want


class TestBatchObjective:
    def _grad_check(self, strategy, alpha, loss_cfg, seed):
        rng = Rng(seed)
        model = MLP([DIM, 10, 8], rng.fork("init"))
        batch = assemble_batch(
            *current_chunk(seed=seed), [make_pair(0, seed + 50)],
            TrainConfig(batch_gen_real=6, batch_gen_fake=6), rng.fork("batch"),
            include_gen_real=strategy.row.keeps_gen_real,
        )
        _, grad = batch_objective(model, batch, strategy, alpha, loss_cfg)

        def loss_at(flat):
            saved = model.get_flat()
            model.set_flat(flat)
            b, _ = batch_objective(model, batch, strategy, alpha, loss_cfg)
            model.set_flat(saved)
            return b.l_overall

        fd = finite_diff_grad(loss_at, model.get_flat(), h=1e-5)
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err < 1e-4, f"{strategy.name}: relative gradient error {err:.2e}"

    @pytest.mark.parametrize(
        "strategy,alpha",
        [
            (Strategy("adaptive"), 0.37),
            (Strategy("fixed_alpha", 0.5), 0.5),
            (Strategy("no_gen_real_sup"), 0.25),
            (Strategy("no_rs"), 1.0),
            (Strategy("fake_only_replay"), 1.0),
            (Strategy("lower_bound"), 1.0),
        ],
        ids=lambda v: v.name if isinstance(v, Strategy) else str(v),
    )
    def test_composed_gradient_matches_fd(self, strategy, alpha):
        self._grad_check(strategy, alpha, LossConfig(), seed=61)

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    @pytest.mark.parametrize("gran", ["sample_wise", "centroid_based"])
    def test_rs_variants_in_composition(self, metric, gran):
        cfg = LossConfig(rs_metric=metric, rs_granularity=gran)
        self._grad_check(Strategy("adaptive"), 0.4, cfg, seed=67)

    def test_breakdown_arithmetic(self):
        model = MLP([DIM, 8], Rng(1).fork("init"))
        batch = assemble_batch(
            *current_chunk(), [make_pair(0, 70)], TrainConfig(), Rng(2)
        )
        b, _ = batch_objective(model, batch, Strategy("adaptive"), 0.3, LossConfig())
        assert b.l_c == pytest.approx(0.3 * b.l_ce_gen_real + 0.7 * b.l_rs)
        assert b.l_overall == pytest.approx(b.l_c + b.l_cf)

    @pytest.mark.parametrize(
        "strategy, alpha", [(Strategy("lower_bound"), 1.0), (Strategy("fixed_alpha", 0.3), 0.3)],
        ids=["lower_bound", "fixed_alpha_0.3"],
    )
    def test_no_gen_real_batch_reduces_to_cf(self, strategy, alpha):
        # a task-0 batch: no stored pairs, so no gen-real rows; the batch's alpha is reported
        model = MLP([DIM, 8], Rng(1).fork("init"))
        batch = assemble_batch(*current_chunk(), [], tiny_cfg(), Rng(0))
        b, _ = batch_objective(model, batch, strategy, alpha, LossConfig())
        assert b.l_ce_gen_real == 0.0 and b.l_rs == 0.0 and b.l_c == 0.0
        assert b.l_overall == b.l_cf
        assert b.alpha == alpha


def parent_objective(model, x, labels, idx, strategy, alpha, loss_cfg):
    """The parent's batch_objective: gathers and scatters by the index arrays idx.

    idx is (cf_idx, gr_idx, gf_idx) over the rows of x. It runs the gen-real CE
    whenever there are gen-real rows, supervised or not.
    """
    cf_idx, gr_idx, gf_idx = idx
    rec = model.forward(x)
    d_yp = np.zeros(len(labels))
    d_feat = None
    l_cf, g_cf = ce_loss_batch(rec.y_p[cf_idx], labels[cf_idx])
    d_yp[cf_idx] += g_cf
    supervised = strategy.row.supervised
    w_ce = alpha if supervised else 0.0
    w_rs = 1.0 - alpha
    l_ce_gr = 0.0
    if gr_idx.size:
        l_ce_gr, g_gr = ce_loss_batch(rec.y_p[gr_idx], labels[gr_idx])
        if w_ce:
            d_yp[gr_idx] += w_ce * g_gr
    l_rs = 0.0
    if w_rs and gr_idx.size and gf_idx.size:
        cent = centroid(rec.features[gr_idx])
        l_rs, d_gf, d_gr = rs_loss_with_grads(rec.features[gf_idx], cent, gr_idx.size, loss_cfg)
        d_feat = np.zeros_like(rec.features)
        d_feat[gf_idx] += w_rs * d_gf
        d_feat[gr_idx] += w_rs * d_gr
    grad = model.backward(rec, d_yp, d_feat)
    if gr_idx.size == 0:
        return combine_losses(0.0, 0.0, l_cf, 1.0), grad
    return combine_losses(l_ce_gr if supervised else 0.0, l_rs, l_cf, alpha), grad


def slice_indices(layout, n):
    """(cf_idx, gr_idx, gf_idx) of the slices batch_objective reads, as index arrays."""
    n_cf = layout.n_current + layout.n_fake
    return np.arange(n_cf), np.arange(n_cf, n), np.arange(layout.n_current, n_cf)


class TestObjectiveMatchesParentLayout:
    """batch_objective on role-ordered rows against the parent's interleaved rows and index arrays."""

    STRATEGIES = [
        (Strategy("adaptive"), 0.37),
        (Strategy("no_gen_real_sup"), 0.25),
        (Strategy("full_replay"), 1.0),
        (Strategy("fixed_alpha", 0.0), 0.0),
    ]
    RS = [("cosine", "sample_wise"), ("cosine", "centroid_based"), ("l2", "sample_wise")]

    @pytest.mark.parametrize("rs", RS, ids="-".join)
    @pytest.mark.parametrize("strategy, alpha", STRATEGIES, ids=lambda v: getattr(v, "name", str(v)))
    def test_losses_equal_and_gradient_close(self, strategy, alpha, rs):
        loss_cfg = LossConfig(rs_metric=rs[0], rs_granularity=rs[1])
        cfg = TrainConfig(batch_gen_real=5, batch_gen_fake=7)
        for seed in range(20):
            rng = Rng(seed)
            model = MLP([DIM, 10, 8], rng.fork("init"))
            pairs = [make_pair(i, 100 * seed + i) for i in range(3)]
            batch = assemble_batch(*current_chunk(seed=seed), pairs, cfg, rng.fork("batch"))
            n = len(batch.labels)
            got, grad = batch_objective(model, batch, strategy, alpha, loss_cfg)

            # the same rows read through index arrays: same bits
            want, want_grad = parent_objective(
                model, batch.x, batch.labels, slice_indices(batch.layout, n), strategy, alpha, loss_cfg
            )
            assert got == want
            assert np.array_equal(grad, want_grad)

            # the parent's interleaved rows: same losses, gradient summed in another row order
            perm = role_order(batch.layout)
            x, labels = np.empty_like(batch.x), np.empty_like(batch.labels)
            x[perm], labels[perm] = batch.x, batch.labels
            _, *idx = parent_layout(batch.layout.n_current, batch.layout.real_counts, batch.layout.fake_counts)
            want, want_grad = parent_objective(model, x, labels, idx, strategy, alpha, loss_cfg)
            assert got == want
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)

    def test_unsupervised_gen_real_ce_is_skipped(self, monkeypatch):
        calls = []
        inner = genreplay.trainer.ce_loss_batch

        def counting(y_p, labels):
            calls.append(len(y_p))
            return inner(y_p, labels)

        monkeypatch.setattr(genreplay.trainer, "ce_loss_batch", counting)
        stream = tiny_stream(n_tasks=2, seed=15)
        cfg = tiny_cfg(seed=15, batch_current=24)
        strategy = Strategy("no_gen_real_sup")
        _, state = run_incremental(stream, strategy, cfg, return_state=True)
        # 8 batches per task; task 1's batches carry 12 gen-real rows, never label-supervised
        assert len(calls) == 16
        assert 12 not in calls

        def objective_with_gen_real_ce(model, batch, strategy, alpha, loss_cfg):
            idx = slice_indices(batch.layout, len(batch.labels))
            return parent_objective(model, batch.x, batch.labels, idx, strategy, alpha, loss_cfg)

        # the parent's objective, which also ran the 8 gen-real CEs, trains the same bits
        monkeypatch.setattr(genreplay.trainer, "batch_objective", objective_with_gen_real_ce)
        _, want = run_incremental(stream, strategy, cfg, return_state=True)
        assert state.loss_trace == want.loss_trace


class TestTrainTask:
    def _state(self, stream, cfg):
        model = MLP([stream.dim] + list(cfg.arch), Rng(cfg.seed).fork("init"))
        return RunState(model=model, adam=AdamState(model.n_params))

    def test_refit_same_task_raises(self):
        stream = tiny_stream()
        cfg = tiny_cfg(epochs=1)
        state = self._state(stream, cfg)
        x, y, _, _ = draw_stream_data(stream, Rng(cfg.seed).fork("data"))[0]
        fit_task_generators(state, 0, x, y, stream.replay_signatures[0], cfg, Rng(0).fork("t0"))
        assert len(state.generator_pairs) == 1
        with pytest.raises(ValueError, match="already fitted"):
            fit_task_generators(state, 0, x, y, stream.replay_signatures[0], cfg, Rng(0).fork("t0"))

    @pytest.mark.parametrize("task_id, named", [(None, "task 0"), (7, "task 7")])
    def test_failed_fit_names_task_and_class(self, task_id, named):
        # two points, 50 copies each: EM at k=3 empties a component, even after a re-seed
        reals = np.repeat([[0.0, 1.0], [2.0, 3.0]], 50, axis=0)
        fakes = Rng(1).fork("f").normal(size=(100, 2))
        x = np.vstack([reals, fakes])
        y = np.repeat([0, 1], 100)
        cfg = tiny_cfg(generator_kind="gmm", gmm_components=3)
        model = MLP([2, 4], Rng(0))
        state = RunState(model=model, adam=AdamState(model.n_params))
        with pytest.raises(
            RuntimeError,
            match=f"^{named}: cannot fit the real generator on 100 rows: "
            "EM degenerate component after re-seeding$",
        ):
            fit_task_generators(
                state, 0, x, y, Signature(np.zeros(2), 0.0), cfg, Rng(0), task_id=task_id
            )
        assert state.generator_pairs == []

    @pytest.mark.parametrize("size", [None, 9])
    def test_pool_is_stored_on_its_pair(self, size):
        stream = tiny_stream()
        cfg = tiny_cfg(replay_pool_size=size)
        state = self._state(stream, cfg)
        x, y, _, _ = draw_stream_data(stream, Rng(cfg.seed).fork("data"))[0]
        rng = Rng(5).fork("fit")
        fit_task_generators(state, 0, x, y, stream.replay_signatures[0], cfg, rng)
        (pair,) = state.generator_pairs
        if size is None:
            assert pair.pool is None
            return
        real, fake = pair.pool
        assert real.shape == fake.shape == (size, stream.dim)
        want_real, want_fake = sample_replay(pair, size, size, rng.fork("pool"))
        assert np.array_equal(real, want_real)
        assert np.array_equal(fake, want_fake)

    def test_pooled_pair_hashes_and_compares_no_arrays(self):
        pair = make_pair(0, 10)
        pooled = replace(pair, pool=(np.zeros((3, DIM)), np.ones((3, DIM))))
        other = replace(pair, pool=(np.ones((4, DIM)), np.zeros((4, DIM))))
        # a tuple == on these arrays would raise, so equality must skip the pool
        assert pooled == other == pair
        assert hash(pooled) == hash(other) == hash(pair)
        assert len({pooled, other, pair}) == 1
        assert pooled != make_pair(0, 11)

    def test_empty_training_data_raises(self):
        stream = tiny_stream()
        cfg = tiny_cfg()
        state = self._state(stream, cfg)
        with pytest.raises(ValueError, match="^task 0 has 0 training rows, fewer than batch_current=16$"):
            train_task(state, 0, np.empty((0, stream.dim)), np.empty(0), Strategy("adaptive"), cfg, Rng(0))

    def test_batch_current_below_one_raises(self):
        with pytest.raises(ValueError, match="batch_current"):
            TrainConfig(batch_current=0)

    def test_task_smaller_than_batch_raises(self):
        rng = Rng(12)
        samples = table(
            (rng.fork(f"{t}-{i}").normal(size=4), i % 2, t)
            for t in range(2)
            for i in range(20)
        )
        stream = stream_from_samples(samples, Rng(1), test_fraction=0.25)
        with pytest.raises(ValueError, match="task 0 has 15 training rows, fewer than batch_current=32"):
            run_incremental(stream, Strategy("adaptive"), TrainConfig(epochs=1))

    def test_small_later_task_raises_before_the_first_step(self, monkeypatch):
        # file task 5 splits into 15 training rows; task 2 into 30
        rng = Rng(12)
        samples = table(
            (rng.fork(f"{t}-{i}").normal(size=4), i % 2, t)
            for t, n in ((2, 40), (5, 20))
            for i in range(n)
        )
        stream = stream_from_samples(samples, Rng(1), test_fraction=0.25)
        calls = []
        inner = genreplay.trainer.train_task

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(genreplay.trainer, "train_task", counting)
        cfg = tiny_cfg(batch_current=16)
        with pytest.raises(ValueError, match="task 5 has 15 training rows, fewer than batch_current=16"):
            run_incremental(stream, Strategy("lower_bound"), cfg)
        assert calls == []

    def test_dataset_run_shares_the_stream_rows(self):
        # the run reads the dataset stream's own arrays: its rows are not copied
        rng = Rng(12)
        samples = table(
            (rng.fork(f"{t}-{i}").normal(size=4), i % 2, t) for t in range(2) for i in range(40)
        )
        stream = stream_from_samples(samples, Rng(1), test_fraction=0.25)
        _, state = run_incremental(stream, Strategy("adaptive"), tiny_cfg(epochs=1), return_state=True)
        assert len(state.stream_data) == 2
        for drawn, own in zip(state.stream_data, stream.tasks_data):
            assert all(np.shares_memory(a, b) for a, b in zip(drawn, own))

    @pytest.mark.parametrize("kind", ["adaptive", "lower_bound"])
    def test_gmm_components_above_class_rows_raise(self, kind):
        # every task has 12 training rows per class; the final task's pair is never fitted
        stream = tiny_stream(n_tasks=3, n_train_per_class=12)
        cfg = tiny_cfg(generator_kind="gmm", gmm_components=13)
        with pytest.raises(ValueError, match="task 0 has 12 training rows of one class, fewer than gmm_components=13"):
            run_incremental(stream, Strategy(kind), cfg)
        check_stream(stream, tiny_cfg(generator_kind="gmm", gmm_components=12))
        check_stream(stream, tiny_cfg(gmm_components=13))

    @pytest.mark.parametrize("few_fakes_task, raises", [(1, False), (0, True)])
    def test_gmm_check_skips_the_final_task(self, few_fakes_task, raises):
        # one task has 8 fake rows, too few after the split for 8 components;
        # no pair is ever fitted on the final task
        rng = Rng(3)
        samples = table(
            (rng.fork(f"{t}-{i}").normal(size=4), label, t)
            for t in (0, 1)
            for i, label in enumerate([0] * 30 + [1] * 8 if t == few_fakes_task else [0, 1] * 20)
        )
        stream = stream_from_samples(samples, Rng(1), test_fraction=0.25)
        n_fake = stream.train_counts[few_fakes_task][1]
        assert n_fake < 8
        cfg = tiny_cfg(generator_kind="gmm", gmm_components=8)
        if raises:
            with pytest.raises(ValueError, match=f"task 0 has {n_fake} training rows of one class, fewer than gmm_components=8"):
                check_stream(stream, cfg)
        else:
            check_stream(stream, cfg)

    @pytest.mark.parametrize("kind, pool", [("adaptive", None), ("adaptive", 32), ("lower_bound", None)])
    def test_fits_only_replayed_tasks(self, monkeypatch, kind, pool):
        # task k's pair is fitted only when task k+1 replays it: never the final task's
        calls = []
        inner = genreplay.trainer.fit_generator

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(genreplay.trainer, "fit_generator", counting)
        n_tasks = 3
        strategy = Strategy(kind)
        _, state = run_incremental(
            tiny_stream(n_tasks=n_tasks), strategy, tiny_cfg(epochs=1, replay_pool_size=pool),
            return_state=True,
        )
        replayed = list(range(n_tasks - 1)) if strategy.row.uses_replay else []
        assert len(calls) == 2 * len(replayed)
        assert [p.task_index for p in state.generator_pairs] == replayed
        assert all((p.pool is not None) == bool(pool) for p in state.generator_pairs)

    def test_alpha_recomputed_every_epoch(self):
        stream = tiny_stream(n_tasks=2)
        cfg = tiny_cfg(epochs=3)
        table, state = run_incremental(stream, Strategy("adaptive"), cfg, return_state=True)
        # no history on task 1 (nothing stored yet); one record per epoch on task 2
        records = [(r.task_index, r.epoch) for r in state.dcs_history]
        assert records == [(1, 0), (1, 1), (1, 2)]
        assert table.final.alpha == state.dcs_history[-1].alpha


class TestEquivalences:
    def _trace(self, stream, strategy, cfg):
        _, state = run_incremental(stream, strategy, cfg, return_state=True)
        return state.loss_trace

    def _run(self, stream, strategy, cfg):
        table, state = run_incremental(stream, strategy, cfg, return_state=True)
        return state.loss_trace, table_to_dict(table)

    def test_fixed_alpha_one_matches_no_rs(self):
        stream = tiny_stream(n_tasks=2, seed=3)
        cfg = tiny_cfg(seed=3)
        a = self._trace(stream, Strategy("fixed_alpha", 1.0), cfg)
        b = self._trace(stream, Strategy("no_rs"), cfg)
        assert a == b

    def test_fixed_alpha_zero_matches_weight_stripped_rs_only(self):
        stream = tiny_stream(n_tasks=2, seed=4)
        cfg = tiny_cfg(seed=4)
        a = self._trace(stream, Strategy("fixed_alpha", 0.0), cfg)
        b = self._trace(stream, Strategy("no_gen_real_sup", fixed_alpha=0.0), cfg)
        assert a == b

    def test_full_replay_matches_no_rs(self):
        stream = tiny_stream(n_tasks=2, seed=5)
        cfg = tiny_cfg(seed=5)
        assert self._trace(stream, Strategy("full_replay"), cfg) == self._trace(
            stream, Strategy("no_rs"), cfg
        )


    def test_adaptive_override_matches_fixed_alpha(self):
        stream = tiny_stream(n_tasks=2, seed=10)
        cfg = tiny_cfg(seed=10)
        trace_a, table_a = self._run(stream, Strategy("adaptive", fixed_alpha=0.3), cfg)
        trace_b, table_b = self._run(stream, Strategy("fixed_alpha", 0.3), cfg)
        assert trace_a == trace_b
        assert table_a == table_b

    def test_full_replay_matches_fixed_alpha_one(self):
        stream = tiny_stream(n_tasks=2, seed=11)
        cfg = tiny_cfg(seed=11)
        trace_a, table_a = self._run(stream, Strategy("full_replay"), cfg)
        trace_b, table_b = self._run(stream, Strategy("fixed_alpha", 1.0), cfg)
        assert trace_a == trace_b
        # only the reported alpha differs: none for full_replay, 1.0 for fixed_alpha
        assert [r.pop("alpha") for r in table_a["rows"]] == [None, None]
        assert [r.pop("alpha") for r in table_b["rows"]] == [1.0, 1.0]
        assert table_a == table_b

class TestRunIncremental:
    def test_table_shape_and_alpha_column(self):
        stream = tiny_stream(n_tasks=3, seed=6)
        table = run_incremental(stream, Strategy("adaptive"), tiny_cfg(seed=6))
        assert table.n_tasks == 3
        assert [r.step for r in table.rows] == [1, 2, 3]
        assert sorted(table.final.task_auc) == [0, 1, 2]
        assert table.rows[0].alpha is None  # nothing stored yet at task 1
        assert table.rows[1].alpha is not None

    def test_determinism(self):
        stream = tiny_stream(n_tasks=2, seed=7)
        cfg = tiny_cfg(seed=7)
        t1 = run_incremental(stream, Strategy("adaptive"), cfg)
        t2 = run_incremental(stream, Strategy("adaptive"), cfg)
        assert t1.final.task_auc == t2.final.task_auc
        assert t1.final.avg_auc == t2.final.avg_auc

    def test_replay_mitigates_forgetting_vs_no_replay(self):
        # with drifted tasks, replaying the past should preserve task-1 AUC
        # better than sequential fine-tuning, seed-median
        deltas = []
        for seed in (1, 2, 3):
            stream = tiny_stream(
                "domain_safe", n_tasks=2, seed=seed,
                n_train_per_class=150, n_test_per_class=100,
            )
            cfg = tiny_cfg(seed=seed, epochs=4, arch=(32, 32))
            replay = run_incremental(stream, Strategy("adaptive"), cfg)
            none = run_incremental(stream, Strategy("lower_bound"), cfg)
            deltas.append(replay.final.task_auc[0] - none.final.task_auc[0])
        assert np.median(deltas) > 0.0

    def test_fixed_pool_mode_runs_and_differs_from_fresh(self):
        stream = tiny_stream(n_tasks=2, seed=8)
        fresh = run_incremental(stream, Strategy("adaptive"), tiny_cfg(seed=8))
        pooled = run_incremental(
            stream, Strategy("adaptive"), tiny_cfg(seed=8, replay_pool_size=64)
        )
        assert pooled.n_tasks == 2
        assert pooled.final.avg_auc != fresh.final.avg_auc

    def test_gmm_generator_kind_runs(self):
        stream = tiny_stream(n_tasks=2, seed=9)
        table = run_incremental(
            stream, Strategy("adaptive"), tiny_cfg(seed=9, generator_kind="gmm", gmm_components=2)
        )
        assert table.n_tasks == 2
