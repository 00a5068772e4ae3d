"""Incremental task streams: synthetic scenarios and feature-file ingestion.

Each task is a pair of diagonal-Gaussian class distributions sharing a base
mean; the fake class is the real one shifted along the task's forgery
signature. The stream also fixes, per task, the signature that the replay
generators fitted on that task will carry -- orthogonal to every forgery
direction (domain-safe) or aligned with a later forgery direction
(domain-risky).
"""

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import LABEL_FAKE, LABEL_REAL
from .numerics import check_count, check_real
from .replay import Signature, signature_similarity
from .samples import Sample

SCENARIO_KINDS = ("domain_safe", "domain_risky", "mixed")

DEFAULT_FORGERY_STRENGTH = 2.0
DEFAULT_REPLAY_STRENGTH = 2.0
DEFAULT_CLASS_SPREAD = 0.5
DEFAULT_BASE_SHIFT = 0.1
DEFAULT_REAL_DRIFT = 0.75
DEFAULT_N_TRAIN = 2000
DEFAULT_N_TEST = 1000
# the largest |value| make_scenario takes for each of its five float
# arguments: every default is near 1, a class_spread of 1e4 already overflows
# in training, and a real_drift or base_shift of 1e50 ends a run with
# non-finite results
MAX_SCENARIO_MAGNITUDE = 1e3
# the most float64 values (8 GiB) a scenario's rows may hold, n_tasks * 2 classes
# * (n_train_per_class + n_test_per_class) rows of dim values each; a larger one
# is refused before any draw
MAX_SCENARIO_VALUES = 2**30


@dataclass(frozen=True)
class DomainSpec:
    real_mean: np.ndarray
    fake_mean: np.ndarray
    class_var: float
    forgery_signature: Signature

    @property
    def dim(self):
        return self.real_mean.shape[0]


@dataclass(frozen=True)
class TaskStream:
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

    @property
    def task_ids(self):
        """Each task's name in errors: its index in the stream."""
        return list(range(self.n_tasks))

    @property
    def train_counts(self):
        """{task index: (real, fake) training rows}, as draw_stream_data draws them."""
        return {t: (self.n_train_per_class, self.n_train_per_class) for t in self.task_ids}


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
    in replay signatures. Each float argument must be a finite number in
    [-MAX_SCENARIO_MAGNITUDE, MAX_SCENARIO_MAGNITUDE], and forgery_strength,
    replay_strength and class_spread must be >= 0. The rows drawn from the
    stream, n_tasks * 2 * (n_train_per_class + n_test_per_class) * dim values,
    may number at most MAX_SCENARIO_VALUES.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    # the type checks only; the ranges below keep their own messages
    for name, value in (
        ("n_tasks", n_tasks), ("dim", dim),
        ("n_train_per_class", n_train_per_class), ("n_test_per_class", n_test_per_class),
    ):
        check_count(name, value, float("-inf"))
    magnitudes = (
        ("forgery_strength", forgery_strength), ("replay_strength", replay_strength),
        ("class_spread", class_spread), ("base_shift", base_shift), ("real_drift", real_drift),
    )
    for name, value in magnitudes:
        check_real(name, value)
    if n_tasks < 2:
        raise ValueError("need at least 2 tasks")
    if dim < 2 * n_tasks:
        raise ValueError(
            f"dim={dim} too small to host {n_tasks} forgery plus {n_tasks} orthogonal replay signatures"
        )
    if n_train_per_class < 1 or n_test_per_class < 1:
        raise ValueError("n_train_per_class and n_test_per_class must be >= 1")
    n_values = n_tasks * 2 * (n_train_per_class + n_test_per_class) * dim
    if n_values > MAX_SCENARIO_VALUES:
        raise ValueError(
            f"n_tasks={n_tasks} * 2 * (n_train_per_class={n_train_per_class} + "
            f"n_test_per_class={n_test_per_class}) * dim={dim} = {n_values} values, "
            f"more than {MAX_SCENARIO_VALUES}"
        )
    for name, value in magnitudes:
        if abs(value) > MAX_SCENARIO_MAGNITUDE:
            bound = f"{MAX_SCENARIO_MAGNITUDE:g}"
            raise ValueError(f"{name} must lie in [-{bound}, {bound}], got {value!r}")
    # the two strengths and class_spread, first in magnitudes: a strength is a
    # signature's length, and class_var = class_spread**2 would hide a sign
    for name, value in magnitudes[:3]:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")

    tasks = []
    base = np.zeros(dim)
    for t in range(n_tasks):
        if t > 0:
            base = base + real_drift * tasks[t - 1].forgery_signature.vector
        base = base + base_shift * rng.normal(size=dim) / np.sqrt(dim)
        forgery_dir = np.eye(dim)[t]
        tasks.append(
            DomainSpec(
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
        safe_sig = Signature(np.eye(dim)[n_tasks + t], replay_strength)
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


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """The rows of a feature file, by column.

    features is (n, d) float, labels (n,) int (0 real, 1 fake) and tasks (n,)
    the file's int64 task ids. len() is the row count n.
    """

    features: np.ndarray
    labels: np.ndarray
    tasks: np.ndarray

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class DatasetStream:
    """Pre-materialized stream built from an ingested feature file.

    tasks_data holds, per task in stream order, the read-only arrays
    (x_train, y_train, x_test, y_test); task_ids holds each task's file id.
    """

    tasks_data: list
    replay_signatures: list
    task_ids: list

    def __post_init__(self):
        if len(self.tasks_data) < 2:
            raise ValueError("a stream needs at least 2 tasks")
        # every cell and seed of a compare or ablate runs on them, so a write must raise
        for arrays in self.tasks_data:
            for a in arrays:
                a.flags.writeable = False

    def __reduce__(self):
        # unpickling skips __post_init__ and leaves the arrays writeable; rebuild through it
        return DatasetStream, (self.tasks_data, self.replay_signatures, self.task_ids)

    @property
    def n_tasks(self):
        return len(self.tasks_data)

    @property
    def dim(self):
        return self.tasks_data[0][0].shape[1]

    @property
    def train_counts(self):
        """{file task id: (real, fake) training rows}, in stream order."""
        return {
            t: tuple(int(np.count_nonzero(y_train == c)) for c in (LABEL_REAL, LABEL_FAKE))
            for t, (_, y_train, _, _) in zip(self.task_ids, self.tasks_data)
        }


def stream_from_samples(table, rng, test_fraction=0.25):
    """Group the rows of the FeatureTable table by task id and split each task train/test.

    Tasks train in ascending id, not in file order: a file whose task 7 rows
    come before its task 3 rows gives task_ids [3, 7]. Raises ValueError
    naming the task when a task, or one of its splits, holds one class.
    """
    if not table:
        raise ValueError("no samples to build a stream from")
    check_real("test_fraction", test_fraction)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0,1)")
    ids, inverse, counts = np.unique(table.tasks, return_inverse=True, return_counts=True)
    # each task's row indices, in file order
    by_task = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    groups = {}
    for t, rows in zip(ids.tolist(), by_task):
        if len(np.unique(table.labels[rows])) < 2:
            raise ValueError(f"task {t} has only one class")
        n_test = max(1, int(round(len(rows) * test_fraction)))
        if n_test >= len(rows):
            raise ValueError(f"task {t} has too few samples to split")
        groups[t] = (rows, n_test)
    if len(groups) < 2:
        raise ValueError("a stream needs at least 2 tasks")
    tasks_data = []
    for t, (rows, n_test) in groups.items():
        order = np.arange(len(rows))
        rng.fork(f"task{t}").shuffle(order)
        test, train = rows[order[:n_test]], rows[order[n_test:]]
        for split, idx in (("train", train), ("test", test)):
            if len(np.unique(table.labels[idx])) < 2:
                raise ValueError(
                    f"task {t}: the {split} split of {len(idx)} rows holds one class; "
                    "add rows or change test_fraction"
                )
        arrays = tuple(column[idx] for idx in (train, test) for column in (table.features, table.labels))
        tasks_data.append(arrays)
    # ingested data carries no known generator artifact
    zero_sig = Signature(np.zeros(table.features.shape[1]), 0.0)
    return DatasetStream(
        tasks_data=tasks_data, replay_signatures=[zero_sig] * len(tasks_data), task_ids=list(groups)
    )


def draw_stream_data(stream, rng):
    """Per task (x_train, y_train, x_test, y_test): rows (n, dim) and labels (n,).

    A dataset stream's own read-only arrays are returned, shared and not
    copied. A scenario's are drawn from rng, real rows then fake rows in each
    split, with the split sizes of the stream config.
    """
    if isinstance(stream, DatasetStream):
        return list(stream.tasks_data)
    out = []
    for t, spec in enumerate(stream.tasks):
        task_rng = rng.fork(f"task{t}")
        arrays = []
        for split, n in (("train", stream.n_train_per_class), ("test", stream.n_test_per_class)):
            rows = _draw_class(
                spec, spec.real_mean, n, t, LABEL_REAL, task_rng.fork(f"{split}-real")
            ) + _draw_class(spec, spec.fake_mean, n, t, LABEL_FAKE, task_rng.fork(f"{split}-fake"))
            arrays += [np.stack([s.features for s in rows]), np.array([s.label for s in rows])]
        out.append(tuple(arrays))
    return out


def load_feature_dataset(path):
    """Read a CSV file's rows into a FeatureTable: f0..f{d-1}, label, optional task column.

    The header names the columns: at least one feature column, and one
    label and at most one task column. Label must be 0 (real) or 1 (fake), and
    label and task cells must be integer literals. A row whose cell count
    differs from the header's, that fails to parse, that holds a NaN or inf
    feature, or that holds a byte that is not UTF-8 raises with its 1-based
    row number; blank lines are skipped but still counted. The header is
    checked first, then the first bad row in file order is reported. A file
    without a header gives a table of 0 rows and 0 feature columns.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports put before
    # the header; a byte that is not UTF-8 reaches the row checks as a lone
    # surrogate (_check_utf8)
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return _table(np.empty((0, 0)), [], [])
        _check_utf8(path, 1, header)
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: header must contain a 'label' column")
        for name in ("label", "task"):
            if header.count(name) > 1:
                raise ValueError(f"{path}: header holds the {name!r} column more than once")
        label_col = header.index("label")
        task_col = header.index("task") if "task" in header else None
        feat_cols = [i for i, h in enumerate(header) if i != label_col and i != task_col]
        if not feat_cols:
            raise ValueError(f"{path}: header holds no feature column")
        columns = _parse_columns(fh, len(header), label_col, task_col, feat_cols)
        if columns is None:
            # no row, a bad row, or rows that need the csv module's quoting:
            # the row-by-row scan decides, and names the row it rejects
            fh.seek(0)
            return _scan_rows(path, fh, len(header), label_col, task_col, feat_cols)
    return _table(*columns)


# the range of a task id
_INT64 = np.iinfo(np.int64)
# what errors="surrogateescape" decodes a byte b that is not UTF-8 to: chr(0xDC00 + b)
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _check_utf8(path, row_no, cells):
    """Raise a ValueError naming row_no when one of its cells holds a byte that is not UTF-8."""
    for cell in cells:
        found = _ESCAPED_BYTE.search(cell)
        if found:
            raise ValueError(f"{path}: row {row_no}: byte {ord(found[0]) - 0xDC00:#04x} is not UTF-8")


def _table(feats, labels, tasks):
    return FeatureTable(feats, np.array(labels, dtype=np.int64), np.array(tasks, dtype=np.int64))


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
    tasks = table[f"c{task_col}"] if task_col is not None else np.zeros(len(table), dtype=np.int64)
    return feats, labels, tasks


def _scan_rows(path, fh, n_cells, label_col, task_col, feat_cols):
    """Row-by-row parse of the CSV file fh after its header; raises at the first bad row."""
    reader = csv.reader(fh)
    next(reader)
    feature_rows, labels, tasks = [], [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        _check_utf8(path, row_no, row)
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
        if not _INT64.min <= task <= _INT64.max:
            raise ValueError(f"{path}: row {row_no}: task id {task} lies beyond int64")
        if not np.isfinite(feats).all():
            raise ValueError(f"{path}: row {row_no}: non-finite feature")
        feature_rows.append(feats)
        labels.append(label)
        tasks.append(task)
    features = np.array(feature_rows).reshape(len(feature_rows), len(feat_cols))
    return _table(features, labels, tasks)
