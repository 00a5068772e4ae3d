"""genreplay benchmark: one workload per call, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload sweep_adaptive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones (see README.md
next to this file). Runs happen one after another in this process (the CLI's
`--jobs 1`), with one BLAS thread. Run times are reported at the speed of a
fixed reference loop (reference.py) timed beside each run, which cancels most
of a shared host's drift in speed.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import COUNT_TARGETS, SPAN_TARGETS, Tracer, instrument

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sweep_adaptive", "no_replay", "csv_gmm_wide")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s.p50": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_avg_auc": "auc",
    "final_pd_auc": "auc",
    "ok_share": "share",
}

# Zero-call predictions that the traced pass reports per workload.
BYPASSED = {
    "sweep_adaptive": (
        "replay.em_iters", "streams.load_feature_dataset.calls", "cli.main.calls",
    ),
    "no_replay": (
        "replay.sample_replay.calls", "replay.GeneratorModel.sample.calls",
        "losses.rs_loss_with_grads.calls", "confusion.compute_alpha.calls",
        "replay.em_iters", "streams.load_feature_dataset.calls", "cli.main.calls",
    ),
    "csv_gmm_wide": (),
}


@dataclass
class Outcome:
    seed: int
    wall_s: float
    result: object  # workloads.RunResult, or None when the run raised
    problems: list = field(default_factory=list)


def run_checked(workload, inputs, seed):
    """One run, timed; an exception or a failed output check becomes a problem."""
    start = time.perf_counter()
    try:
        result = workload.run(inputs, seed)
    except Exception as exc:  # noqa: BLE001 - a failing run is counted, not fatal
        return Outcome(seed, time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - start
    return Outcome(seed, wall, result, workload.check(result))


def rerun_check(workload, inputs, first):
    """Re-run the pass's first seed; it must reproduce the first fingerprint."""
    again = run_checked(workload, inputs, first.seed)
    if again.result is not None and first.result is not None:
        if again.result.fingerprint != first.result.fingerprint:
            again.problems.append(f"re-run of seed {first.seed} is not byte-identical")
    return again


def timed_pass(workload, inputs, seeds, seconds, time_reference):
    """Runs seeds in order until `seconds` have passed and the quality seeds are done.

    The reference loop is timed before every run and after the last one;
    returns (outcomes, reference times).
    """
    outcomes, references = [], []
    start = time.perf_counter()
    while len(outcomes) < workload.quality_seeds or time.perf_counter() - start < seconds:
        references.append(time_reference())
        seed = seeds[len(outcomes) % len(seeds)]
        outcomes.append(run_checked(workload, inputs, seed))
    references.append(time_reference())
    return outcomes, references


def fingerprint_of(outcomes):
    """One hash over the runs' fingerprints, in run order."""
    parts = (o.result.fingerprint if o.result is not None else "failed" for o in outcomes)
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()


def _median(values):
    return statistics.median(values) if values else None


def reference_speed(outcomes, references, reference_s):
    """Each run's wall time at the speed where the reference loop takes reference_s.

    A run is compared with the mean of the reference loops timed just before
    and just after it, so that a change in the host's speed during a pass
    cancels out.
    """
    return [
        o.wall_s * reference_s / ((references[i] + references[i + 1]) / 2)
        for i, o in enumerate(outcomes)
    ]


def end_to_end_metrics(workload, outcomes, all_outcomes, run_times, setup_s, peak_rss_mb):
    """The end-to-end metrics; run_times and setup_s are at reference speed."""
    quality = [o.result.table["rows"][-1] for o in outcomes[: workload.quality_seeds] if o.result]
    steps = sum(len(o.result.loss_trace) for o in outcomes if o.result)
    failed = sum(1 for o in all_outcomes if o.problems)
    return {
        "setup_s": setup_s,
        "run_s.p50": _median(run_times),
        "steps_per_s": steps / sum(run_times),
        "peak_rss_mb": peak_rss_mb,
        "final_avg_auc": _median([row["avg_auc"] for row in quality]),
        "final_pd_auc": _median([row["pd_auc"] for row in quality]),
        "ok_share": (len(all_outcomes) - failed) / len(all_outcomes),
    }


def layer_metric_names():
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for _, attr, name, _ in SPAN_TARGETS:
        calls = f"{name}.count" if attr == "__init__" else f"{name}.calls"
        if calls not in names:
            names += [calls, f"{name}.self_s"]
    names += [f"{name}.count" for _, _, name in COUNT_TARGETS]
    names += ["streams.load_feature_dataset.rows", "replay.em_iters", "trace.overhead"]
    return names


def layer_metrics(tracer, n_runs, overhead):
    """Per-layer metrics as means per traced run."""
    span_names = {name for _, _, name, _ in SPAN_TARGETS}
    out = {}
    for metric in layer_metric_names():
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            value = tracer.self_s(base)
        elif kind in ("calls", "count") and base in span_names:
            value = tracer.calls(base)
        else:
            value = tracer.counts.get(metric, 0)
        out[metric] = value / n_runs
    out["trace.overhead"] = overhead
    return out


def stage_shares(tracer):
    """Inclusive stage times as shares of run_incremental, in the ROADMAP's stages."""
    total = tracer.total_s("trainer.run_incremental")
    if not total:
        return {}
    stages = {
        "batch_objective": tracer.total_s("trainer.batch_objective"),
        "replay_assembly": tracer.total_s("trainer.assemble_batch"),
        "alpha_probe": tracer.total_s("confusion.compute_alpha")
        + tracer.total_s("replay.sample_replay", parent="trainer.train_task"),
        "adam": tracer.total_s("numerics.adam_step"),
        "evaluation": tracer.total_s("trainer.evaluate"),
        "generator_fit": tracer.total_s("replay.fit_generator"),
    }
    return {k: round(v / total, 4) for k, v in stages.items()}


def traced_pass(workload, inputs, seeds):
    """Each quality seed untraced, then traced; returns (warm-up, untraced, traced,
    tracer, overhead).

    A first untraced run warms the process up, so that neither side of the
    overhead ratio pays for it; it is checked and counted like the others.
    """
    seeds = seeds[: workload.quality_seeds]
    warmup = run_checked(workload, inputs, seeds[0])
    tracer = Tracer()
    untraced, traced = [], []
    for seed in seeds:
        untraced.append(run_checked(workload, inputs, seed))
        with instrument(tracer):
            traced.append(run_checked(workload, inputs, seed))
        plain, spanned = untraced[-1].result, traced[-1].result
        if plain and spanned and plain.fingerprint != spanned.fingerprint:
            traced[-1].problems.append(f"traced run of seed {seed} changed the fingerprint")
    overhead = sum(o.wall_s for o in traced) / sum(o.wall_s for o in untraced)
    return warmup, untraced, traced, tracer, overhead


def measure_setup(args):
    """Import plus input building, each in a fresh interpreter; seconds per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(workload, seed, seeds):
    import numpy
    import scipy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "workload": workload.name,
        "workload_seed": seed,
        "quality_seeds": seeds[: workload.quality_seeds],
        "rows_per_run": workload.rows_per_run,
        "steps_per_run": workload.steps_per_run,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Put this checkout's src/ first on the path; refuse any other genreplay."""
    if not (SRC / "genreplay" / "__init__.py").is_file():
        raise SystemExit(f"bench: no genreplay package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import genreplay

    if Path(genreplay.__file__).resolve().parent != (SRC / "genreplay").resolve():
        raise SystemExit(f"bench: imported genreplay from {genreplay.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    start = time.perf_counter()
    import_package()
    import reference
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.run_seeds(workload.name, args.seed)
    work_dir = tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT)
    try:
        inputs = workload.build(seeds, work_dir)
        if args.setup_probe:
            print(time.perf_counter() - start)
            return 0
        env = environment(workload, args.seed, seeds)
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            return report_traced(workload, inputs, seeds)
        return report_end_to_end(workload, inputs, seeds, args, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report_end_to_end(workload, inputs, seeds, args, reference):
    setup_samples = measure_setup(args)
    outcomes, references = timed_pass(
        workload, inputs, seeds, args.seconds, reference.time_reference
    )
    rerun = rerun_check(workload, inputs, outcomes[0])
    all_outcomes = outcomes + [rerun]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_times = reference_speed(outcomes, references, reference.REFERENCE_S)
    # set-up runs in other processes, before the pass: scaled by the pass's median
    setup_s = _median(setup_samples) * reference.REFERENCE_S / _median(references)
    metrics = end_to_end_metrics(workload, outcomes, all_outcomes, run_times, setup_s, peak_rss_mb)
    print(f"fingerprint {fingerprint_of(outcomes[: workload.quality_seeds])}")
    print(f"runs {len(outcomes)} timed + 1 re-run; setup samples {len(setup_samples)}")
    print(f"reference loop p50 {_median(references):.5f} s over {len(references)}")
    print(f"raw wall run_s.p50 {_median([o.wall_s for o in outcomes]):.4f} "
          f"setup_s {_median(setup_samples):.4f}")
    print("run walls s " + " ".join(f"{o.wall_s:.3f}" for o in outcomes))
    print("reference walls s " + " ".join(f"{r:.4f}" for r in references))
    for name, value in metrics.items():
        print(f"{name} {value} {END_TO_END_UNITS[name]}")
    return emit(all_outcomes, metrics, END_TO_END_UNITS)


def report_traced(workload, inputs, seeds):
    warmup, untraced, traced, tracer, overhead = traced_pass(workload, inputs, seeds)
    metrics = layer_metrics(tracer, len(traced), overhead)
    fp_plain, fp_traced = fingerprint_of(untraced), fingerprint_of(traced)
    print(f"fingerprint {fp_plain} traced {fp_traced}")
    print("stage_shares " + json.dumps(stage_shares(tracer)))
    predictions = {name: metrics[name] == 0 for name in BYPASSED[workload.name]}
    if workload.name == "csv_gmm_wide":
        # pools replace per-batch replay draws; only the alpha probe draws fresh rows
        under_batches = tracer.stats.get(("replay.sample_replay", "trainer.assemble_batch"))
        predictions["replay.sample_replay.calls under trainer.assemble_batch"] = under_batches is None
    print("zero_call_predictions " + json.dumps(predictions, sort_keys=True))
    units = {name: layer_unit(name) for name in metrics}
    return emit([warmup] + untraced + traced, metrics, units)


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def emit(outcomes, metrics, units):
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"failed seed {o.seed}: {'; '.join(o.problems)}")
    print(f"failed_share {len(failed)}/{len(outcomes)}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": _finite_or_none(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


if __name__ == "__main__":
    sys.exit(main())
