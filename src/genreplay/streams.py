"""Incremental task streams: synthetic scenarios and feature-file ingestion.

Each task is a pair of diagonal-Gaussian class distributions sharing a base
mean; the fake class is the real one shifted along the task's forgery
signature. The stream also fixes, per task, the signature that the replay
generators fitted on that task will carry -- orthogonal to every forgery
direction (domain-safe) or aligned with a later forgery direction
(domain-risky).
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import check_count, check_real
from .replay import Signature, signature_similarity
from .samples import LABEL_FAKE, LABEL_REAL, Sample

SCENARIO_KINDS = ("domain_safe", "domain_risky", "mixed")

DEFAULT_FORGERY_STRENGTH = 2.0
DEFAULT_REPLAY_STRENGTH = 2.0
DEFAULT_CLASS_SPREAD = 0.5
DEFAULT_BASE_SHIFT = 0.1
DEFAULT_REAL_DRIFT = 0.75
DEFAULT_N_TRAIN = 2000
DEFAULT_N_TEST = 1000


@dataclass(frozen=True)
class DomainSpec:
    name: str
    real_mean: np.ndarray
    fake_mean: np.ndarray
    class_var: float
    forgery_signature: Signature

    @property
    def dim(self):
        return self.real_mean.shape[0]


@dataclass(frozen=True)
class TaskStream:
    kind: str
    seed: int
    tasks: list
    replay_signatures: list
    n_train_per_class: int = DEFAULT_N_TRAIN
    n_test_per_class: int = DEFAULT_N_TEST

    def __post_init__(self):
        if len(self.tasks) < 2:
            raise ValueError("a stream needs at least 2 tasks")
        if len(self.replay_signatures) != len(self.tasks):
            raise ValueError("one replay signature per task is required")

    @property
    def n_tasks(self):
        return len(self.tasks)

    @property
    def dim(self):
        return self.tasks[0].dim


def _unit(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def make_scenario(
    kind,
    n_tasks,
    dim,
    rng,
    forgery_strength=DEFAULT_FORGERY_STRENGTH,
    replay_strength=DEFAULT_REPLAY_STRENGTH,
    class_spread=DEFAULT_CLASS_SPREAD,
    base_shift=DEFAULT_BASE_SHIFT,
    real_drift=DEFAULT_REAL_DRIFT,
    n_train_per_class=DEFAULT_N_TRAIN,
    n_test_per_class=DEFAULT_N_TEST,
):
    """Build a task stream of the requested safety regime.

    Forgery signatures are the first n_tasks canonical directions; domain-safe
    replay signatures use the next n_tasks directions (orthogonal to all
    forgery directions). Domain-risky replay shifts each task's generated
    samples exactly onto the final task's fake cluster, so every replayed
    "real" sample carries the final task's forgery cue and the replay
    signature is tightly aligned with that forgery signature. Each task's
    real mean drifts by real_drift along the previous task's forgery
    direction, so sequential training overwrites old fake territory with new
    real data and a no-replay learner forgets. The RNG consumption is
    identical for every kind, so streams built from the same seed differ only
    in replay signatures.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    # the type checks only; the ranges below keep their own messages
    for name, value in (
        ("n_tasks", n_tasks), ("dim", dim),
        ("n_train_per_class", n_train_per_class), ("n_test_per_class", n_test_per_class),
    ):
        check_count(name, value, float("-inf"))
    for name, value in (
        ("forgery_strength", forgery_strength), ("replay_strength", replay_strength),
        ("class_spread", class_spread), ("base_shift", base_shift), ("real_drift", real_drift),
    ):
        check_real(name, value)
    if n_tasks < 2:
        raise ValueError("need at least 2 tasks")
    if dim < 2 * n_tasks:
        raise ValueError(
            f"dim={dim} too small to host {n_tasks} forgery plus {n_tasks} orthogonal replay signatures"
        )
    if n_train_per_class < 1 or n_test_per_class < 1:
        raise ValueError("n_train_per_class and n_test_per_class must be >= 1")

    tasks = []
    base = np.zeros(dim)
    for t in range(n_tasks):
        if t > 0:
            base = base + real_drift * tasks[t - 1].forgery_signature.vector
        base = base + base_shift * rng.normal(size=dim) / np.sqrt(dim)
        forgery_dir = np.zeros(dim)
        forgery_dir[t] = 1.0
        tasks.append(
            DomainSpec(
                name=f"task{t + 1}",
                real_mean=base,
                fake_mean=base + forgery_dir * forgery_strength,
                class_var=class_spread**2,
                forgery_signature=Signature(forgery_dir, forgery_strength),
            )
        )

    # Risky replay shifts a task's generated samples onto (or right next to)
    # the final task's fake cluster, so the shift is dominated by that task's
    # forgery direction. The real-mean offset between the two tasks is capped
    # so the alignment between the replay signature and the final forgery
    # signature always stays above 0.95 regardless of drift.
    final = tasks[-1]
    offset_cap = forgery_strength / 3.2
    replay_sigs = []
    for t in range(n_tasks):
        safe_sig = Signature(_unit(dim, n_tasks + t), replay_strength)
        offset = final.real_mean - tasks[t].real_mean
        offset_norm = float(np.linalg.norm(offset))
        if offset_norm > offset_cap:
            offset = offset * (offset_cap / offset_norm)
        v = offset + final.forgery_signature.vector * forgery_strength
        norm = float(np.linalg.norm(v))
        risky_sig = Signature(v / norm, norm) if norm > 0 else safe_sig
        if kind == "domain_safe":
            replay_sigs.append(safe_sig)
        elif kind == "domain_risky":
            replay_sigs.append(risky_sig)
        else:
            replay_sigs.append(risky_sig if t % 2 == 0 else safe_sig)

    return TaskStream(
        kind=kind,
        seed=rng.seed,
        tasks=tasks,
        replay_signatures=replay_sigs,
        n_train_per_class=n_train_per_class,
        n_test_per_class=n_test_per_class,
    )


def max_cross_similarity(stream):
    """Largest |cos| between any task's replay signature and any later forgery signature."""
    best = 0.0
    for t, rsig in enumerate(stream.replay_signatures):
        for t2 in range(t + 1, stream.n_tasks):
            best = max(
                best, abs(signature_similarity(rsig, stream.tasks[t2].forgery_signature))
            )
    return best


def _draw_class(spec, mean, n, task_index, label, rng):
    x = mean + np.sqrt(spec.class_var) * rng.normal(size=(n, spec.dim))
    return [Sample(row, label, task_index) for row in x]


@dataclass(frozen=True)
class DatasetStream:
    """Pre-materialized stream built from an ingested feature file."""

    tasks_data: list  # per task: (train samples, test samples)
    replay_signatures: list

    def __post_init__(self):
        if len(self.tasks_data) < 2:
            raise ValueError("a stream needs at least 2 tasks")

    @property
    def n_tasks(self):
        return len(self.tasks_data)

    @property
    def dim(self):
        return self.tasks_data[0][0][0].features.shape[0]


def _group_by_task(samples, test_fraction):
    """{task id: (its samples, test rows)} in id order, after the checks no split can fix."""
    if not samples:
        raise ValueError("no samples to build a stream from")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0,1)")
    by_task = {}
    for s in samples:
        by_task.setdefault(s.task_index, []).append(s)
    groups = {}
    for t in sorted(by_task):
        group = by_task[t]
        if len({s.label for s in group}) < 2:
            raise ValueError(f"task {t} has only one class")
        n_test = max(1, int(round(len(group) * test_fraction)))
        if n_test >= len(group):
            raise ValueError(f"task {t} has too few samples to split")
        groups[t] = (group, n_test)
    if len(groups) < 2:
        raise ValueError("a stream needs at least 2 tasks")
    return groups


def train_sizes(samples, test_fraction=0.25):
    """{task id: training rows} of the split stream_from_samples makes, for any rng.

    Raises what stream_from_samples raises before it splits.
    """
    return {t: len(group) - n_test for t, (group, n_test) in _group_by_task(samples, test_fraction).items()}


def stream_from_samples(samples, rng, test_fraction=0.25):
    """Group ingested samples by task id and split each task train/test.

    Raises ValueError naming the task when a split holds one class.
    """
    tasks_data = []
    for t, (group, n_test) in _group_by_task(samples, test_fraction).items():
        order = np.arange(len(group))
        rng.fork(f"task{t}").shuffle(order)
        test = [group[i] for i in order[:n_test]]
        train = [group[i] for i in order[n_test:]]
        for split, rows in (("train", train), ("test", test)):
            if len({s.label for s in rows}) < 2:
                raise ValueError(
                    f"task {t}: the {split} split of {len(rows)} rows holds one class; "
                    "add rows or change test_fraction"
                )
        tasks_data.append((train, test))
    dim = tasks_data[0][0][0].features.shape[0]
    # ingested data carries no known generator artifact
    zero_sig = Signature(np.zeros(dim), 0.0)
    return DatasetStream(tasks_data=tasks_data, replay_signatures=[zero_sig] * len(tasks_data))


def draw_stream_data(stream, rng):
    """Per-task (train, test) lists; test sizes follow the stream config."""
    if isinstance(stream, DatasetStream):
        return list(stream.tasks_data)
    out = []
    for t, spec in enumerate(stream.tasks):
        task_rng = rng.fork(f"task{t}")
        train = _draw_class(
            spec, spec.real_mean, stream.n_train_per_class, t, LABEL_REAL, task_rng.fork("train-real")
        ) + _draw_class(
            spec, spec.fake_mean, stream.n_train_per_class, t, LABEL_FAKE, task_rng.fork("train-fake")
        )
        test = _draw_class(
            spec, spec.real_mean, stream.n_test_per_class, t, LABEL_REAL, task_rng.fork("test-real")
        ) + _draw_class(
            spec, spec.fake_mean, stream.n_test_per_class, t, LABEL_FAKE, task_rng.fork("test-fake")
        )
        out.append((train, test))
    return out


def load_feature_dataset(path, dim=None):
    """Read samples from a CSV file: f0..f{d-1}, label, optional task column.

    The header names the columns: at least one feature column, and one
    label and at most one task column. Label must be 0 (real) or 1 (fake), and
    label and task cells must be integer literals. A row whose cell count
    differs from the header's, that fails to parse, or that holds a NaN or
    inf feature raises with its 1-based row number; blank lines are skipped
    but still counted.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports put before the header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return []
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: header must contain a 'label' column")
        for name in ("label", "task"):
            if header.count(name) > 1:
                raise ValueError(f"{path}: header holds the {name!r} column more than once")
        label_col = header.index("label")
        task_col = header.index("task") if "task" in header else None
        feat_cols = [
            i for i, h in enumerate(header) if i != label_col and i != task_col
        ]
        if not feat_cols:
            raise ValueError(f"{path}: header holds no feature column")
        if dim is not None and len(feat_cols) != dim:
            raise ValueError(
                f"{path}: expected {dim} feature columns, found {len(feat_cols)}"
            )
        columns = _parse_columns(fh, len(header), label_col, task_col, feat_cols)
        if columns is None:
            # no row, a bad row, or rows that need the csv module's quoting:
            # the row-by-row scan decides, and names the row it rejects
            fh.seek(0)
            return _scan_rows(path, fh, len(header), label_col, task_col, feat_cols)
    feats, labels, tasks = columns
    return [Sample(f, label, task) for f, label, task in zip(feats, labels, tasks)]


def _parse_columns(fh, n_cells, label_col, task_col, feat_cols):
    """(features (n, d), labels, task ids) of the rows left in fh, parsed by column.

    None when there is no row, or when any row is not `n_cells` bare numbers
    (integers in the label and task columns) or fails a check; such rows may
    still be valid CSV, quoted cells for example.
    """
    dtype = np.dtype(
        [(f"c{i}", np.int64 if i in (label_col, task_col) else float) for i in range(n_cells)]
    )
    try:
        with warnings.catch_warnings():
            # a file without rows is left to the row-by-row scan
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except ValueError:
        return None
    feats = np.empty((len(table), len(feat_cols)))
    for j, i in enumerate(feat_cols):
        feats[:, j] = table[f"c{i}"]
    labels = table[f"c{label_col}"]
    if not (len(table) and np.isfinite(feats).all() and np.isin(labels, (LABEL_REAL, LABEL_FAKE)).all()):
        return None
    tasks = table[f"c{task_col}"].tolist() if task_col is not None else [0] * len(table)
    return feats, labels.tolist(), tasks


def _scan_rows(path, fh, n_cells, label_col, task_col, feat_cols):
    """Row-by-row parse of the CSV file fh after its header; raises at the first bad row."""
    reader = csv.reader(fh)
    next(reader)
    samples = []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_cells:
            raise ValueError(f"{path}: row {row_no}: expected {n_cells} cells, found {len(row)}")
        try:
            feats = np.array([float(row[i]) for i in feat_cols])
            label = int(row[label_col])
            task = int(row[task_col]) if task_col is not None else 0
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {row_no}: {exc}") from exc
        if label not in (LABEL_REAL, LABEL_FAKE):
            raise ValueError(f"{path}: row {row_no}: label must be 0 or 1, got {label}")
        if not np.isfinite(feats).all():
            raise ValueError(f"{path}: row {row_no}: non-finite feature")
        samples.append(Sample(feats, label, task))
    return samples
