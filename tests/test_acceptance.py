"""Acceptance gate: ten criteria, each reporting one PASS/FAIL line.

Criteria 4-7 are qualitative orderings evaluated as seed-medians on synthetic
streams; the shared stream/training configuration below was chosen so the
behavioral regimes (domain-safe vs domain-risky replay, forgetting under
drift) are well separated at desk scale. Criteria 1-3 and 8-10 are exact or
property-based checks.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from genreplay.cli import main as cli_main
from genreplay.confusion import DcsConfig, confusion_score
from genreplay.losses import LossConfig, ce_loss_batch, rs_loss, rs_loss_with_grads
from genreplay.metrics import auc, build_table, TaskEval
from genreplay.model import MLP
from genreplay.numerics import Rng, finite_diff_grad
from genreplay.replay import Signature, fit_generator
from genreplay.streams import make_scenario, max_cross_similarity
from genreplay.trainer import (
    Strategy,
    TrainConfig,
    assemble_batch,
    batch_objective,
    run_incremental,
)
from genreplay.trainer import GeneratorPair  # re-exported via replay import

SEEDS = [1, 2, 3, 4, 5]
LOSS = LossConfig()
DCS = DcsConfig(normalizer="linear_over_5")


def acceptance_stream(kind, n_tasks, seed):
    return make_scenario(
        kind,
        n_tasks,
        2 * n_tasks + 2,
        Rng(seed).fork("scenario"),
        forgery_strength=2.0,
        replay_strength=2.0,
        class_spread=0.5,
        base_shift=0.1,
        real_drift=0.75,
        n_train_per_class=400,
        n_test_per_class=300,
    )


def acceptance_cfg(seed):
    return TrainConfig(seed=seed, epochs=10)


def median(values):
    return float(np.median(values))


def report(capsys, cid, title, ok, detail=""):
    line = f"[{cid}] {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def risky_safe_runs():
    """3-task domain-risky vs domain-safe runs for full replay and adaptive."""
    t0 = time.time()
    out = {}
    for strat_name, strat in (("full_replay", Strategy("full_replay")), ("adaptive", Strategy("adaptive"))):
        for kind in ("domain_risky", "domain_safe"):
            tables = []
            for seed in SEEDS:
                stream = acceptance_stream(kind, 3, seed)
                tables.append(
                    run_incremental(stream, strat, acceptance_cfg(seed), loss_cfg=LOSS, dcs_cfg=DCS)
                )
            out[(strat_name, kind)] = tables
    out["elapsed"] = time.time() - t0
    return out


MIXED_STRATEGIES = {
    "adaptive": Strategy("adaptive"),
    "lower_bound": Strategy("lower_bound"),
    "full_replay": Strategy("full_replay"),
    "fake_only_replay": Strategy("fake_only_replay"),
    "fixed_alpha_0.5": Strategy("fixed_alpha", 0.5),
    "fixed_alpha_0.1": Strategy("fixed_alpha", 0.1),
    "no_gen_real_sup": Strategy("no_gen_real_sup"),
    "no_rs": Strategy("no_rs"),
}


@pytest.fixture(scope="module")
def mixed_runs():
    """4-task mixed-regime runs for every strategy, shared by two criteria."""
    t0 = time.time()
    tables = {name: [] for name in MIXED_STRATEGIES}
    for seed in SEEDS:
        stream = acceptance_stream("mixed", 4, seed)
        cfg = acceptance_cfg(seed)
        for name, strat in MIXED_STRATEGIES.items():
            tables[name].append(
                run_incremental(stream, strat, cfg, loss_cfg=LOSS, dcs_cfg=DCS)
            )
    return tables, time.time() - t0


# ---------------------------------------------------------------- criteria


def test_c01_gradient_correctness(capsys):
    """Analytic gradients match central finite differences for every objective."""
    t0 = time.time()
    h = 1e-4
    worst = 0.0

    def rel_err(analytic, fd):
        return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))

    def kink_free(model, x, margin=4 * h):
        # central differences straddle the ReLU kink when a pre-activation
        # lies inside the probe window; such states invalidate the FD oracle
        # (not the gradient), so they are redrawn
        rec = model.forward(x)
        return all(np.abs(z).min() > margin for z in rec.pre_acts)

    def valid_states(base_seed, build):
        states, offset = [], 0
        while len(states) < 10:
            state = build(Rng(base_seed + offset))
            offset += 1
            if kink_free(*state[:2]):
                states.append(state)
        return states

    # plain cross-entropy through the detector
    def build_ce(rng):
        model = MLP([6, 8, 6], rng.fork("init"))
        x = rng.fork("x").normal(size=(8, 6))
        labels = (rng.fork("y").uniform(size=8) > 0.5).astype(int)
        return model, x, labels

    for model, x, labels in valid_states(1000, build_ce):
        rec = model.forward(x)
        _, d_yp = ce_loss_batch(rec.y_p, labels)
        grad = model.backward(rec, d_yp)

        def ce_at(flat, model=model, x=x, labels=labels):
            saved = model.get_flat()
            model.set_flat(flat)
            val, _ = ce_loss_batch(model.forward(x).y_p, labels)
            model.set_flat(saved)
            return val

        worst = max(worst, rel_err(grad, finite_diff_grad(ce_at, model.get_flat(), h=h)))

    # the three separation-loss variants on raw feature inputs
    rs_cfgs = [
        LossConfig(rs_metric="cosine", rs_granularity="sample_wise"),
        LossConfig(rs_metric="cosine", rs_granularity="centroid_based"),
        LossConfig(rs_metric="l2", rs_granularity="sample_wise"),
    ]
    for cfg in rs_cfgs:
        for trial in range(10):
            rng = Rng(2000 + trial)
            fake = rng.fork("f").normal(size=(5, 6)) + 1.0
            c = rng.fork("c").normal(size=6) + 2.0
            _, d_fake, d_c = rs_loss_with_grads(fake, c, None, cfg)
            fd_fake = finite_diff_grad(
                lambda flat: rs_loss(flat.reshape(fake.shape), c, cfg), fake.ravel(), h=h
            ).reshape(fake.shape)
            fd_c = finite_diff_grad(lambda cc: rs_loss(fake, cc, cfg), c, h=h)
            worst = max(worst, rel_err(d_fake, fd_fake), rel_err(d_c, fd_c))

    # the composed per-batch objective under adaptive and fixed weighting
    def build_batch(rng):
        model = MLP([6, 10, 8], rng.fork("init"))
        sig = Signature(np.zeros(6), 0.0)
        reals = rng.fork("gr").normal(size=(40, 6))
        fakes = 1.5 + rng.fork("gf").normal(size=(40, 6))
        pair = GeneratorPair(
            0,
            fit_generator(reals, "gaussian", 1, sig, rng.fork("fr")),
            fit_generator(fakes, "gaussian", 1, sig, rng.fork("ff")),
        )
        x = np.stack([rng.fork(f"s{i}").normal(size=6) for i in range(8)])
        batch = assemble_batch(
            x, np.arange(8) % 2, [pair], TrainConfig(batch_gen_real=6, batch_gen_fake=6), rng.fork("b")
        )
        return model, batch.x, batch

    for strategy, alpha in ((Strategy("adaptive"), 0.37), (Strategy("fixed_alpha", 0.5), 0.5)):
        for model, _, batch in valid_states(3000, build_batch):
            _, grad = batch_objective(model, batch, strategy, alpha, LOSS)

            def obj_at(flat, model=model, batch=batch, strategy=strategy, alpha=alpha):
                saved = model.get_flat()
                model.set_flat(flat)
                b, _ = batch_objective(model, batch, strategy, alpha, LOSS)
                model.set_flat(saved)
                return b.l_overall

            worst = max(worst, rel_err(grad, finite_diff_grad(obj_at, model.get_flat(), h=h)))

    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    report(capsys, "C1", "gradient correctness", ok,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_c02_auc_oracle_equivalence(capsys):
    """Rank-based AUC equals pairwise brute force exactly, ties included."""
    t0 = time.time()

    def brute(scores, labels):
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        total = 0.0
        for p in pos:
            for q in neg:
                total += 1.0 if p > q else (0.5 if p == q else 0.0)
        return total / (len(pos) * len(neg))

    rng = Rng(202)
    mismatches = 0
    for trial in range(200):
        r = rng.fork(f"t{trial}")
        n = int(r.fork("n").integers(2, 51))
        scores = np.round(r.fork("s").uniform(size=n) * 8) / 8.0
        labels = (r.fork("l").uniform(size=n) > 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if auc(scores, labels) != brute(scores, labels):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 5
    report(capsys, "C2", "AUC oracle equivalence", ok,
           f"{mismatches}/200 mismatches, {elapsed:.2f}s")


def test_c03_metric_formulas(capsys):
    """Table fields match hand recomputation; published row examples reproduce."""
    def ev(a):
        return TaskEval(auc=a, acc=a, acc_real=a, acc_fake=a)

    # random lower-triangular grid, recompute every derived field
    rng = Rng(303)
    per_step = []
    for k in range(5):
        per_step.append({t: ev(float(rng.fork(f"{k}-{t}").uniform(0.5, 1.0))) for t in range(k + 1)})
    table = build_table(per_step)
    max_dev = 0.0
    m0 = np.mean([per_step[0][0].auc])
    for k, row in enumerate(table.rows):
        vals = [per_step[k][t].auc for t in range(k + 1)]
        max_dev = max(max_dev, abs(row.avg_auc - np.mean(vals)))
        if k > 0:
            max_dev = max(max_dev, abs(row.pre_avg_auc - np.mean(vals[:-1])))
            max_dev = max(max_dev, abs(row.pd_auc - (m0 - np.mean(vals))))

    # published two-task average: (0.8075 + 0.8876) / 2 = 0.84755
    t2 = build_table([{0: ev(0.9999)}, {0: ev(0.8075), 1: ev(0.8876)}])
    avg_ok = abs(t2.final.avg_auc - 0.84755) < 1e-12

    # published six-task drop: first-step 0.9999 minus final-step average 0.0425
    finals = [0.9969, 0.8907, 0.9839, 0.9947, 0.8829, 0.9951]
    per6 = [{t: ev(0.9) for t in range(k)} | {k: ev(0.9)} for k in range(6)]
    per6[0] = {0: ev(0.9999)}
    per6[5] = {t: ev(v) for t, v in enumerate(finals)}
    t6 = build_table(per6)
    pd_ok = abs(t6.final.pd_auc - 0.0425) < 5e-5

    ok = max_dev < 1e-12 and avg_ok and pd_ok
    report(capsys, "C3", "metric formulas", ok,
           f"max deviation {max_dev:.1e}, avg {t2.final.avg_auc:.5f}, pd {t6.final.pd_auc:.5f}")


def test_c04_domain_confusion_effect(risky_safe_runs, capsys):
    """Aligned replay hurts the current task most under full replay."""
    def step3_current(tables):
        return [t.rows[2].task_auc[2] for t in tables]

    full_drop = median(step3_current(risky_safe_runs[("full_replay", "domain_safe")])) - median(
        step3_current(risky_safe_runs[("full_replay", "domain_risky")])
    )
    adaptive_drop = median(step3_current(risky_safe_runs[("adaptive", "domain_safe")])) - median(
        step3_current(risky_safe_runs[("adaptive", "domain_risky")])
    )
    # the streams really are in the aligned regime the criterion demands
    sims_ok = all(
        max_cross_similarity(acceptance_stream("domain_risky", 3, s)) >= 0.95 for s in SEEDS
    )
    elapsed = risky_safe_runs["elapsed"]
    ok = full_drop >= 0.05 and adaptive_drop < full_drop and sims_ok and elapsed < 600
    report(capsys, "C4", "domain confusion effect", ok,
           f"full-replay drop {full_drop:.6f} (>=0.05), adaptive drop {adaptive_drop:.6f}, {elapsed:.0f}s")


def test_c05_forgetting_ordering(mixed_runs, capsys):
    """Adaptive weighting tops the replay field; replay beats no-replay; fake-only forgets most."""
    tables, elapsed = mixed_runs

    def med_final(name, attr):
        return median([getattr(t.final, attr) for t in tables[name]])

    adaptive_avg = med_final("adaptive", "avg_auc")
    rivals = ["full_replay", "fake_only_replay", "fixed_alpha_0.5", "fixed_alpha_0.1"]
    rival_best = max(med_final(n, "avg_auc") for n in rivals)
    a_ok = adaptive_avg >= rival_best - 0.01

    replay_names = [n for n in MIXED_STRATEGIES if n != "lower_bound"]
    lb_pre = med_final("lower_bound", "pre_avg_auc")
    pre_margins = {n: med_final(n, "pre_avg_auc") - lb_pre for n in replay_names}
    b_ok = all(m >= 0.05 for m in pre_margins.values())

    pds = {n: med_final(n, "pd_auc") for n in replay_names}
    c_ok = max(pds, key=pds.get) == "fake_only_replay"

    ok = a_ok and b_ok and c_ok and elapsed < 1200
    report(capsys, "C5", "forgetting ordering", ok,
           f"adaptive {adaptive_avg:.6f} vs best rival {rival_best:.6f}; "
           f"min replay pre-avg margin {min(pre_margins.values()):.6f} (>=0.05); "
           f"largest drop: {max(pds, key=pds.get)}; {elapsed:.0f}s")


def test_c06_ablation_direction(mixed_runs, capsys):
    """Removing either supervision arm of the blended objective costs accuracy."""
    tables, _ = mixed_runs

    def med_final(name):
        return median([t.final.avg_auc for t in tables[name]])

    base = med_final("adaptive")
    gap_no_gr = base - med_final("no_gen_real_sup")
    gap_no_rs = base - med_final("no_rs")
    ok = gap_no_gr >= 0.03 and gap_no_rs >= 0.005
    report(capsys, "C6", "ablation direction", ok,
           f"no gen-real supervision -{gap_no_gr:.6f} (>=0.03), no separation loss -{gap_no_rs:.6f} (>=0.005)")


def test_c07_alpha_behavior(risky_safe_runs, capsys):
    """Alpha tracks the injected centroid gap exactly and drops on risky streams."""
    cfg = DcsConfig(normalizer="tanh")

    def pools(gap):
        a = np.zeros((16, 4))
        b = np.zeros((16, 4))
        b[:, 0] = gap
        return a, b

    expected = {0.0: 0.0, 1.0: 0.7615941559557649, 3.0: 0.9950547536867305}
    max_dev = max(
        abs(confusion_score(*pools(g), cfg)[1] - want) for g, want in expected.items()
    )
    injected_ok = max_dev < 1e-6

    # live per-task alpha, risky vs matched safe, seed-median per step
    live_ok = True
    gaps = []
    for step in (1, 2):  # steps with stored replay (0-indexed rows)
        risky = median([t.rows[step].alpha for t in risky_safe_runs[("adaptive", "domain_risky")]])
        safe = median([t.rows[step].alpha for t in risky_safe_runs[("adaptive", "domain_safe")]])
        gaps.append(safe - risky)
        live_ok = live_ok and risky < safe

    ok = injected_ok and live_ok
    report(capsys, "C7", "alpha behavior", ok,
           f"injected-gap deviation {max_dev:.1e}, live safe-risky alpha gaps "
           + ", ".join(f"{g:+.6f}" for g in gaps))


def test_c08_strategy_equivalence_traces(capsys):
    """Degenerate weightings reproduce their named counterparts batch-for-batch."""
    stream = make_scenario(
        "mixed", 2, 6, Rng(11).fork("scenario"), n_train_per_class=48, n_test_per_class=32
    )
    cfg = TrainConfig(seed=11, epochs=2, batch_current=16, arch=(16, 16))

    def trace(strategy):
        _, state = run_incremental(stream, strategy, cfg, return_state=True)
        return state.loss_trace

    eq1 = trace(Strategy("fixed_alpha", 1.0)) == trace(Strategy("no_rs"))
    eq2 = trace(Strategy("fixed_alpha", 0.0)) == trace(Strategy("no_gen_real_sup", fixed_alpha=0.0))
    ok = eq1 and eq2
    report(capsys, "C8", "strategy equivalence traces", ok,
           f"alpha=1 vs direct-supervision-only: {'exact' if eq1 else 'differs'}; "
           f"alpha=0 vs separation-only: {'exact' if eq2 else 'differs'}")


def test_c09_determinism(tmp_path, capsys):
    """Two executions of the run verb produce byte-identical CSVs."""
    cfg = {
        "scenario": {"kind": "mixed", "n_tasks": 2, "dim": 6,
                     "n_train_per_class": 32, "n_test_per_class": 24},
        "train": {"epochs": 1, "batch_current": 16, "arch": [8, 8]},
        "strategy": "adaptive",
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(path)]) == 0
    csvs = []
    for root, _, files in os.walk(cfg["out_dir"]):
        csvs += [os.path.join(root, f) for f in files if f.endswith(".csv")]
    before = {f: Path(f).read_bytes() for f in csvs}
    assert cli_main(["run", "--config", str(path)]) == 0
    identical = all(Path(f).read_bytes() == before[f] for f in csvs)
    ok = identical and len(csvs) >= 6
    report(capsys, "C9", "determinism", ok, f"{len(csvs)} CSV files byte-identical: {identical}")


def test_c10_generator_fidelity(capsys):
    """Density fits recover their targets; signature shifts land where stated."""
    rng = Rng(909)
    true_mean = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    x = true_mean + 0.8 * rng.fork("x").normal(size=(10000, 5))
    g = fit_generator(x, "gaussian", 1, Signature(np.zeros(5), 0.0), rng.fork("fit"))
    mean_err = float(np.abs(g.means[0] - true_mean).max())
    mean_ok = mean_err < 0.05

    two = np.vstack([
        np.array([3.0, 0, 0, 0, 0]) + 0.4 * rng.fork("a").normal(size=(1500, 5)),
        np.array([-3.0, 0, 0, 0, 0]) + 0.4 * rng.fork("b").normal(size=(1500, 5)),
    ])
    gm = fit_generator(two, "gmm", 2, Signature(np.zeros(5), 0.0), rng.fork("em"))
    trace = np.array(gm.loglik_trace)
    em_ok = trace.size >= 2 and bool(
        np.all(np.diff(trace) >= -1e-7 * (np.abs(trace[:-1]) + 1.0))
    )

    direction = np.zeros(5)
    direction[1] = 1.0
    gs = fit_generator(x, "gaussian", 1, Signature(direction, 1.0), rng.fork("fit2"))
    draws = gs.sample(20000, rng.fork("draw"))
    shift = float(draws.mean(axis=0)[1] - gs.means[0][1])
    shift_ok = abs(shift - 1.0) < 0.05

    ok = mean_ok and em_ok and shift_ok
    report(capsys, "C10", "generator fidelity", ok,
           f"max mean error {mean_err:.3f} (<0.05), EM monotone: {em_ok}, shift {shift:.3f} (1.0 +/- 0.05)")
