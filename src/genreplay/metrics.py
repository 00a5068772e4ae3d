"""Evaluation metrics and incremental result tables."""

from dataclasses import dataclass, field

import numpy as np

# a row's label: auc and accuracy take the fake class as the positive one
LABEL_REAL = 0
LABEL_FAKE = 1
# accuracy calls a score at or above this fake
DECISION_THRESHOLD = 0.5

# the derived columns of a step, in table.csv order; StepRow carries each one
DERIVED_COLUMNS = (
    "avg_auc", "pre_avg_auc", "pd_auc", "acc_real", "acc_fake",
    "pd_acc_real", "pd_acc_fake", "alpha",
)


def auc(scores, labels):
    """Rank-based AUC with the fake class positive; ties get half credit.

    Scores of +-inf rank as ordered; a NaN score cannot be ranked.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if np.isnan(scores).any():
        raise ValueError("AUC undefined: non-finite (NaN) scores cannot be ranked")
    pos = labels == LABEL_FAKE
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one sample of each class")
    # average ranks: a group of tied scores shares the mean of its 1-based positions
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(scores, labels):
    """(overall, real_acc, fake_acc) at DECISION_THRESHOLD; like auc, it needs both classes."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    is_fake = labels == LABEL_FAKE
    if is_fake.all() or not is_fake.any():
        raise ValueError("accuracy undefined: need at least one sample of each class")
    correct = (scores >= DECISION_THRESHOLD) == is_fake
    return float(correct.mean()), float(correct[~is_fake].mean()), float(correct[is_fake].mean())


def performance_drop(m0, mN):
    if not (0.0 <= m0 <= 1.0 and 0.0 <= mN <= 1.0):
        raise ValueError("metric values must lie in [0,1]")
    return m0 - mN


@dataclass
class TaskEval:
    """One task's scores at one incremental step."""

    auc: float
    acc: float
    acc_real: float
    acc_fake: float


@dataclass
class StepRow:
    step: int
    task_auc: dict
    task_acc: dict
    avg_auc: float
    pre_avg_auc: float | None
    pd_auc: float | None
    acc_real: float
    acc_fake: float
    pd_acc_real: float | None
    pd_acc_fake: float | None
    alpha: float | None


@dataclass
class MetricsTable:
    n_tasks: int
    rows: list = field(default_factory=list)

    @property
    def final(self):
        return self.rows[-1]


def build_table(per_step_evals, alphas=None):
    """Assemble the incremental table from a lower-triangular step x task grid.

    per_step_evals: list over steps; entry k is a dict {task_index: TaskEval}
    covering every task <= k (the diagonal must be present). alphas, when
    given, is one optional float per step.
    """
    n_steps = len(per_step_evals)
    if n_steps == 0:
        raise ValueError("no evaluations supplied")
    alphas = alphas or [None] * n_steps
    table = MetricsTable(n_tasks=n_steps)
    m0_auc = m0_real = m0_fake = None
    for k, evals in enumerate(per_step_evals):
        if k not in evals:
            raise ValueError(f"missing diagonal evaluation for step {k + 1}")
        seen = sorted(evals)
        aucs = [evals[t].auc for t in seen]
        avg_auc = float(np.mean(aucs))
        prev = [evals[t].auc for t in seen if t != k]
        pre_avg = float(np.mean(prev)) if prev else None
        acc_real = float(np.mean([evals[t].acc_real for t in seen]))
        acc_fake = float(np.mean([evals[t].acc_fake for t in seen]))
        if k == 0:
            m0_auc, m0_real, m0_fake = avg_auc, acc_real, acc_fake
            pd_auc = pd_real = pd_fake = None
        else:
            pd_auc = performance_drop(m0_auc, avg_auc)
            pd_real = performance_drop(m0_real, acc_real)
            pd_fake = performance_drop(m0_fake, acc_fake)
        table.rows.append(
            StepRow(
                step=k + 1,
                task_auc={t: evals[t].auc for t in seen},
                task_acc={t: evals[t].acc for t in seen},
                avg_auc=avg_auc,
                pre_avg_auc=pre_avg,
                pd_auc=pd_auc,
                acc_real=acc_real,
                acc_fake=acc_fake,
                pd_acc_real=pd_real,
                pd_acc_fake=pd_fake,
                alpha=alphas[k],
            )
        )
    return table


def table_columns(n_tasks):
    return (
        ["step"]
        + [f"auc_t{t + 1}" for t in range(n_tasks)]
        + [f"acc_t{t + 1}" for t in range(n_tasks)]
        + list(DERIVED_COLUMNS)
    )


def table_row_values(table, row):
    tasks = range(table.n_tasks)
    return (
        [row.step]
        + [row.task_auc.get(t) for t in tasks]
        + [row.task_acc.get(t) for t in tasks]
        + [getattr(row, c) for c in DERIVED_COLUMNS]
    )


def table_to_dict(table):
    """Full-precision nested summary for JSON output."""
    return {
        "n_tasks": table.n_tasks,
        "rows": [
            {
                "step": r.step,
                "task_auc": {f"t{t + 1}": v for t, v in sorted(r.task_auc.items())},
                "task_acc": {f"t{t + 1}": v for t, v in sorted(r.task_acc.items())},
                **{c: getattr(r, c) for c in DERIVED_COLUMNS},
            }
            for r in table.rows
        ],
    }
