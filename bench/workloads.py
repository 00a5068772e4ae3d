"""Benchmark workloads: inputs built from a workload seed, one run per seed, output checks.

The package only ever sees the generated inputs: a task stream for the two
library workloads, a feature CSV plus a JSON config for the CLI workload.
"""

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import genreplay.cli
import genreplay.trainer
from genreplay.confusion import DcsConfig
from genreplay.losses import LossConfig
from genreplay.metrics import table_to_dict
from genreplay.numerics import Rng
from genreplay.streams import make_scenario
from genreplay.trainer import Strategy, TrainConfig

from spans import patched

# Run seeds derived per workload seed; a pass that outlives them starts over.
SEED_POOL = 128

# The acceptance suite's mixed stream (tests/test_acceptance.py).
ACCEPTANCE_STREAM = dict(
    forgery_strength=2.0,
    replay_strength=2.0,
    class_spread=0.5,
    base_shift=0.1,
    real_drift=0.75,
    n_train_per_class=400,
    n_test_per_class=300,
)

# The CLI workload's feature file: 1,600 rows per class and task, of which
# test_fraction 0.1875 (300 per class) is held out by the CLI's split.
CSV_TASKS = 4
CSV_DIM = 16
CSV_ROWS_PER_CLASS = 1600
CSV_TEST_FRACTION = 0.1875
CSV_CONFIG = {
    "strategy": "adaptive",
    "train": {
        "epochs": 5,
        "batch_current": 96,
        "batch_gen_real": 32,
        "batch_gen_fake": 32,
        "arch": [128, 128],
        "generator_kind": "gmm",
        "gmm_components": 3,
        "replay_pool_size": 2000,
    },
    "loss": {"rs_granularity": "centroid_based"},
    "dcs": {"normalizer": "linear_over_5"},
}


@dataclass
class RunResult:
    seed: int
    loss_trace: list
    table: dict  # table_to_dict form
    fingerprint: str


@dataclass(frozen=True)
class Workload:
    name: str
    quality_seeds: int  # first seeds of a pass; quality metrics and fingerprint
    n_tasks: int
    epochs: int
    batch_current: int
    train_rows_per_task: int
    test_rows_per_task: int
    build: Callable  # (run seeds, work dir) -> inputs
    run: Callable  # (inputs, run seed) -> RunResult

    @property
    def steps_per_run(self):
        """Adam steps one run must take: tasks x epochs x full batches."""
        return self.n_tasks * self.epochs * (self.train_rows_per_task // self.batch_current)

    @property
    def rows_per_run(self):
        return self.n_tasks * (self.train_rows_per_task + self.test_rows_per_task)

    def check(self, result):
        return check_run(result, self.steps_per_run)


def run_seeds(workload_name, seed, n=SEED_POOL):
    """The run seeds of one pass, a pure function of (workload, workload seed)."""
    rnd = random.Random(f"{workload_name}:{seed}")
    return [rnd.randrange(1, 2**31) for _ in range(n)]


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def check_run(result, expected_steps):
    """Problems with one run's outputs; an empty list means the run passed."""
    problems = []
    trace = np.asarray(result.loss_trace, dtype=float)
    if trace.size != expected_steps:
        problems.append(f"loss_trace has {trace.size} steps, expected {expected_steps}")
    if not np.isfinite(trace).all():
        problems.append("non-finite loss in loss_trace")
    for row in result.table["rows"]:
        aucs = list(row["task_auc"].values()) + [row["avg_auc"]]
        # written so that NaN fails too
        if not all(0.0 <= v <= 1.0 for v in aucs):
            problems.append(f"AUC outside [0,1] at step {row['step']}")
    return problems


# ------------------------------------------------------------ library runs


def acceptance_stream(seed):
    return make_scenario("mixed", 4, 10, Rng(seed).fork("scenario"), **ACCEPTANCE_STREAM)


def build_streams(seeds, work_dir):
    return {s: acceptance_stream(s) for s in seeds}


def library_runner(kind):
    def run(streams, seed):
        # looked up on the module at call time, so the traced pass sees it
        table, state = genreplay.trainer.run_incremental(
            streams[seed],
            Strategy(kind),
            TrainConfig(seed=seed, epochs=10),
            loss_cfg=LossConfig(),
            dcs_cfg=DcsConfig(normalizer="linear_over_5"),
            return_state=True,
        )
        table_dict = table_to_dict(table)
        fingerprint = digest([
            np.asarray(state.loss_trace, dtype=float).tobytes(),
            json.dumps(table_dict, sort_keys=True).encode(),
        ])
        return RunResult(seed, list(state.loss_trace), table_dict, fingerprint)

    return run


# ---------------------------------------------------------------- CLI runs


@dataclass(frozen=True)
class CsvInputs:
    config_path: str
    out_dir: str


def write_feature_csv(path, seed):
    """Four drifting tasks; each task's real mean moves along the previous
    task's forgery direction, onto old fake territory, so old tasks are
    forgotten without replay. Ingested data carries no replay signature."""
    g = np.random.default_rng(seed)
    blocks = []
    base = np.zeros(CSV_DIM)
    for t in range(CSV_TASKS):
        if t > 0:
            base = base + 0.75 * np.eye(CSV_DIM)[t - 1]
        base = base + 0.1 * g.normal(size=CSV_DIM) / np.sqrt(CSV_DIM)
        for label, mean in ((0, base), (1, base + 2.0 * np.eye(CSV_DIM)[t])):
            x = mean + 0.5 * g.normal(size=(CSV_ROWS_PER_CLASS, CSV_DIM))
            tail = np.tile([label, t], (CSV_ROWS_PER_CLASS, 1))
            blocks.append(np.hstack([x, tail]))
    header = ",".join([f"f{i}" for i in range(CSV_DIM)] + ["label", "task"])
    np.savetxt(
        path, np.vstack(blocks), delimiter=",", header=header, comments="",
        fmt=["%.8f"] * CSV_DIM + ["%d", "%d"],
    )


def build_csv(seeds, work_dir):
    csv_path = os.path.join(work_dir, "features.csv")
    config_path = os.path.join(work_dir, "config.json")
    # the CSV is a function of the pass's first run seed, so of the workload seed
    write_feature_csv(csv_path, seeds[0])
    config = dict(
        CSV_CONFIG,
        dataset={"path": csv_path, "test_fraction": CSV_TEST_FRACTION},
        out_dir=os.path.join(work_dir, "out"),
    )
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return CsvInputs(config_path, config["out_dir"])


def run_cli(inputs, seed):
    # The CLI writes no loss trace, so the run's state is captured at the name
    # the CLI looks run_incremental up by; the loss checks need it.
    captured = []
    inner = genreplay.cli.run_incremental

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        captured.append(out)
        return out

    with patched([(genreplay.cli, "run_incremental", capture)]):
        code = genreplay.cli.main([
            "run", "--config", inputs.config_path, "--out", inputs.out_dir,
            "--seeds", str(seed), "--jobs", "1",
        ])
    if code != 0:
        raise RuntimeError(f"genreplay run exited with status {code}")
    (_, state), = captured
    seed_dir = os.path.join(inputs.out_dir, f"seed_{seed}")
    csv_parts = []
    for name in sorted(os.listdir(seed_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(seed_dir, name), "rb") as fh:
                csv_parts.append(name.encode() + b"\0" + fh.read())
    with open(os.path.join(seed_dir, "summary.json")) as fh:
        table_dict = json.load(fh)["table"]
    shutil.rmtree(seed_dir)
    return RunResult(seed, list(state.loss_trace), table_dict, digest(csv_parts))


# ------------------------------------------------------------ the workloads

_GAUSSIAN_SHAPE = dict(
    n_tasks=4, epochs=10, batch_current=32,
    train_rows_per_task=2 * ACCEPTANCE_STREAM["n_train_per_class"],
    test_rows_per_task=2 * ACCEPTANCE_STREAM["n_test_per_class"],
)
_CSV_TEST_ROWS = round(2 * CSV_ROWS_PER_CLASS * CSV_TEST_FRACTION)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_adaptive",
            quality_seeds=15, build=build_streams, run=library_runner("adaptive"),
            **_GAUSSIAN_SHAPE,
        ),
        Workload(
            name="no_replay",
            quality_seeds=50, build=build_streams, run=library_runner("lower_bound"),
            **_GAUSSIAN_SHAPE,
        ),
        Workload(
            name="csv_gmm_wide",
            quality_seeds=12, build=build_csv, run=run_cli,
            n_tasks=CSV_TASKS, epochs=CSV_CONFIG["train"]["epochs"],
            batch_current=CSV_CONFIG["train"]["batch_current"],
            train_rows_per_task=2 * CSV_ROWS_PER_CLASS - _CSV_TEST_ROWS,
            test_rows_per_task=_CSV_TEST_ROWS,
        ),
    )
}
