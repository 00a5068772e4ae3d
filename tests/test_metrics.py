"""AUC, accuracy, performance drop, and the incremental results table."""

from dataclasses import fields

import numpy as np
import pytest

from genreplay.metrics import (
    DERIVED_COLUMNS,
    StepRow,
    TaskEval,
    accuracy,
    auc,
    build_table,
    performance_drop,
    table_columns,
    table_row_values,
    table_to_dict,
)
from genreplay.numerics import Rng


def brute_force_auc(scores, labels):
    """O(n^2) pairwise comparison oracle; ties earn half credit."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_matches_brute_force_on_random_instances(self):
        rng = Rng(101)
        for trial in range(200):
            r = rng.fork(f"t{trial}")
            n = int(r.fork("n").integers(2, 51))
            # quantized scores force plenty of exact ties
            scores = np.round(r.fork("s").uniform(size=n) * 8) / 8.0
            labels = (r.fork("l").uniform(size=n) > 0.5).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="each class"):
            auc([0.1, 0.9], [1, 1])

    def test_nan_score_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            auc([0.1, np.nan, 0.8, 0.3], [0, 0, 1, 1])

    def test_infinite_scores_rank_as_ordered(self):
        inf = np.inf
        assert auc([-inf, 0.2, 0.5, inf], [0, 0, 1, 1]) == 1.0
        assert auc([inf, 0.2, 0.5, -inf], [0, 0, 1, 1]) == 0.25
        assert auc([inf, -inf], [0, 1]) == 0.0
        # tied infinities get half credit like any other tie
        assert auc([inf, inf, -inf, -inf], [0, 1, 0, 1]) == 0.5


class TestAccuracy:
    def test_per_class_split(self):
        overall, real_acc, fake_acc = accuracy([0.1, 0.9, 0.9, 0.1], [0, 0, 1, 1])
        assert overall == 0.5
        assert real_acc == 0.5 and fake_acc == 0.5

    @pytest.mark.parametrize("scores, labels", [([0.9, 0.8], [1, 1]), ([0.1], [0]), ([], [])])
    def test_one_class_or_empty_raises_like_auc(self, scores, labels):
        with pytest.raises(ValueError, match="need at least one sample of each class"):
            accuracy(scores, labels)
        with pytest.raises(ValueError, match="need at least one sample of each class"):
            auc(scores, labels)

    def test_scores_at_the_threshold_count_as_fake(self):
        below = np.nextafter(0.5, 0.0)
        assert accuracy([0.5, below], [1, 0]) == (1.0, 1.0, 1.0)
        assert accuracy([below, 0.5], [1, 0]) == (0.0, 0.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            accuracy([], [])


class TestPerformanceDrop:
    def test_value(self):
        assert performance_drop(0.9, 0.7) == pytest.approx(0.2)

    def test_range_check(self):
        with pytest.raises(ValueError):
            performance_drop(1.2, 0.5)


def ev(a):
    return TaskEval(auc=a, acc=a, acc_real=a, acc_fake=a)


class TestBuildTable:
    def test_hand_recomputation(self):
        per_step = [
            {0: ev(0.9)},
            {0: ev(0.8), 1: ev(0.95)},
            {0: ev(0.7), 1: ev(0.85), 2: ev(0.92)},
        ]
        table = build_table(per_step, alphas=[None, 0.4, 0.6])
        r0, r1, r2 = table.rows
        assert r0.avg_auc == pytest.approx(0.9, abs=1e-12)
        assert r0.pre_avg_auc is None and r0.pd_auc is None
        assert r1.avg_auc == pytest.approx((0.8 + 0.95) / 2, abs=1e-12)
        assert r1.pre_avg_auc == pytest.approx(0.8, abs=1e-12)
        assert r1.pd_auc == pytest.approx(0.9 - 0.875, abs=1e-12)
        assert r2.avg_auc == pytest.approx((0.7 + 0.85 + 0.92) / 3, abs=1e-12)
        assert r2.pre_avg_auc == pytest.approx((0.7 + 0.85) / 2, abs=1e-12)
        assert r2.pd_auc == pytest.approx(0.9 - r2.avg_auc, abs=1e-12)
        assert r2.alpha == 0.6
        assert table.final is r2

    def test_two_task_published_average(self):
        # a no-replay baseline's step-2 per-task values and their average
        per_step = [{0: ev(0.9999)}, {0: ev(0.8075), 1: ev(0.8876)}]
        table = build_table(per_step)
        assert table.final.avg_auc == pytest.approx(0.84755, abs=1e-12)

    def test_six_task_published_summary(self):
        # final-step per-task values of an adaptive run; derived summary stats
        finals = [0.9969, 0.8907, 0.9839, 0.9947, 0.8829, 0.9951]
        per_step = [{t: ev(0.5) for t in range(k)} | {k: ev(0.99)} for k in range(6)]
        per_step[0] = {0: ev(0.9999)}
        per_step[5] = {t: ev(v) for t, v in enumerate(finals)}
        table = build_table(per_step)
        assert table.final.avg_auc == pytest.approx(0.9574, abs=5e-5)
        assert table.final.pre_avg_auc == pytest.approx(0.9498, abs=5e-5)
        assert table.final.pd_auc == pytest.approx(0.0425, abs=5e-5)

    def test_missing_diagonal_raises(self):
        with pytest.raises(ValueError, match="diagonal"):
            build_table([{0: ev(0.9)}, {0: ev(0.8)}])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no evaluations"):
            build_table([])

    def test_accuracy_drops_by_hand(self):
        def acc(real, fake):
            return TaskEval(auc=0.9, acc=(real + fake) / 2, acc_real=real, acc_fake=fake)

        per_step = [{0: acc(0.75, 1.0)}, {0: acc(0.5, 0.75), 1: acc(1.0, 0.25)}]
        r0, r1 = build_table(per_step).rows
        assert (r0.acc_real, r0.acc_fake) == (0.75, 1.0)
        assert r0.pd_acc_real is None and r0.pd_acc_fake is None
        # step 2 averages both tasks: real (0.5 + 1.0) / 2, fake (0.75 + 0.25) / 2
        assert (r1.acc_real, r1.acc_fake) == (0.75, 0.5)
        assert (r1.pd_acc_real, r1.pd_acc_fake) == (0.0, 0.5)


class TestSerialization:
    def test_derived_columns_follow_step_row(self):
        assert DERIVED_COLUMNS == tuple(f.name for f in fields(StepRow))[3:]

    def test_columns_and_row_values_align(self):
        per_step = [{0: ev(0.9)}, {0: ev(0.8), 1: ev(0.95)}]
        table = build_table(per_step, alphas=[None, 0.3])
        cols = table_columns(table.n_tasks)
        for row in table.rows:
            assert len(table_row_values(table, row)) == len(cols)
        vals = table_row_values(table, table.rows[0])
        assert vals[0] == 1
        assert vals[cols.index("auc_t2")] is None  # task 2 unseen at step 1

    def test_to_dict_full_precision(self):
        table = build_table([{0: ev(1.0 / 3.0)}])
        d = table_to_dict(table)
        assert d["rows"][0]["task_auc"]["t1"] == 1.0 / 3.0
        assert d["n_tasks"] == 1
