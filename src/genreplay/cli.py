"""Config-driven experiment runner.

Verbs: run (one strategy), compare (several strategies on identical streams),
ablate (cartesian grid over loss/score variants), validate (the config checks
of the other verbs, without running).
Configs are JSON with strictly validated keys; outputs are one directory per
run with a subdirectory per seed and a seed-median summary at the top level.
All files are written via write-then-rename, and identical configs produce
byte-identical CSVs.
"""

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from decimal import ROUND_HALF_UP, Decimal
from inspect import Parameter, signature
from itertools import product

import numpy as np

from .confusion import DcsConfig
from .losses import LossConfig
from .metrics import DERIVED_COLUMNS, table_columns, table_row_values, table_to_dict
from .numerics import Rng
from .samples import LABEL_FAKE
from .streams import load_feature_dataset, make_scenario, stream_from_samples
from .trainer import Strategy, TrainConfig, check_stream, run_incremental


class ConfigError(Exception):
    pass


# scenario keys are make_scenario's arguments; those without a default are required
_SCENARIO_PARAMS = [p for p in signature(make_scenario).parameters.values() if p.name != "rng"]
# each section's keys are the arguments of what it builds; a dataset is read
# by load_feature_dataset and split by stream_from_samples
_SECTION_KEYS = {
    "scenario": {p.name for p in _SCENARIO_PARAMS},
    "dataset": {
        name for f in (load_feature_dataset, stream_from_samples) for name in signature(f).parameters
    } - {"samples", "rng"},
    "train": {f.name for f in fields(TrainConfig)} - {"seed"},
    "loss": {f.name for f in fields(LossConfig)},
    "dcs": {f.name for f in fields(DcsConfig)},
}
_STRATEGY_KEYS = {f.name for f in fields(Strategy)}
# grid axes in cell order
_GRID_AXES = ("strategy", "rs_metric", "dcs_metric", "normalizer", "rs_granularity")
# the config section each verb runs from
_VERB_KEYS = {"run": "strategy", "compare": "strategies", "ablate": "grid"}
_TOP_KEYS = set(_SECTION_KEYS) | set(_VERB_KEYS.values()) | {"seeds", "out_dir"}


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}" if section else f"unknown key {key}")


def _section(raw, name):
    value = raw.get(name, {})
    _check_keys(name, value, _SECTION_KEYS[name])
    return dict(value)


def _build(where, factory, *args, **kwargs):
    """factory(*args, **kwargs); its ValueError, TypeError, OSError or MemoryError becomes a
    ConfigError naming where (a scenario's dim can ask for more memory than there is)."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        raise ConfigError(f"{where}: {str(exc) or type(exc).__name__}") from exc


def _parse_strategy(raw, where="strategy"):
    if isinstance(raw, str):
        raw = {"kind": raw}
    _check_keys(where, raw, _STRATEGY_KEYS)
    if "kind" not in raw:
        raise ConfigError(f"{where}: missing required field 'kind'")
    return _build(where, Strategy, **raw)


def _cell_axes(strategy, loss_cfg, dcs_cfg):
    """A cell's value on each grid axis, in _GRID_AXES order."""
    return (
        strategy.name, loss_cfg.rs_metric, dcs_cfg.distance_metric,
        dcs_cfg.normalizer, loss_cfg.rs_granularity,
    )


def _cells(raw, verb, loss_cfg, dcs_cfg):
    """The distinct (Strategy, LossConfig, DcsConfig) cells a verb runs, and the duplicate count.

    run has one cell, compare one per strategy and ablate the product of its
    grid's axes. An axis the grid leaves out takes the config's own loss or
    dcs value, and strategy takes adaptive.
    """
    if verb == "run":
        if "strategy" not in raw:
            raise ConfigError("missing required field 'strategy'")
        axes, where = {"strategy": [raw["strategy"]]}, "strategy"
    elif verb == "compare":
        axes, where = {"strategy": raw.get("strategies")}, "strategies[{}]"
        if not isinstance(axes["strategy"], list) or len(axes["strategy"]) < 2:
            raise ConfigError("strategies: compare needs a list of >= 2 strategies")
    else:
        axes, where = raw.get("grid"), "grid.strategy[{}]"
        if not isinstance(axes, dict):
            raise ConfigError("missing required field 'grid'")
        _check_keys("grid", axes, _GRID_AXES)
    own = _cell_axes(Strategy(), loss_cfg, dcs_cfg)
    axes = [axes.get(key, [value]) for key, value in zip(_GRID_AXES, own)]
    for key, values in zip(_GRID_AXES, axes):
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}: need a non-empty list")
    axes[0] = [_parse_strategy(s, where=where.format(i)) for i, s in enumerate(axes[0])]
    combos = list(product(*axes))
    cells = {}
    for i, (strategy, rs, dcs, norm, gran) in enumerate(combos):
        cell_loss = _build("grid", replace, loss_cfg, rs_metric=rs, rs_granularity=gran)
        cell_dcs = _build("grid", replace, dcs_cfg, distance_metric=dcs, normalizer=norm)
        key = (strategy.name, cell_loss, cell_dcs)
        if verb == "compare" and key in cells:
            raise ConfigError(f"strategies[{i}]: {strategy.name} is listed twice")
        cells.setdefault(key, (strategy, cell_loss, cell_dcs))
    return list(cells.values()), len(combos) - len(cells)


def _reject_non_finite(literal):
    raise ConfigError(f"config holds the non-finite number {literal}; numbers must be finite")


def _finite_float(literal):
    """json's float parse, except that a literal beyond float range (1e999) is rejected."""
    value = float(literal)
    if not math.isfinite(value):
        _reject_non_finite(literal)
    return value


def load_config(path, verb, seeds_override=None, out_override=None):
    """Parse and validate a config file for the given verb.

    Every number in the file must be finite: NaN, Infinity and a literal
    beyond float range such as 1e999 are rejected as they are parsed. A
    section's keys are the arguments of what it builds (_SECTION_KEYS).

    The verb "validate" checks the config for every verb it has a section
    for. The train, loss, dcs, scenario, strategy and grid values get every
    check a run makes on them, so a config that loads does not fail on them
    once training has started. Every seed's stream is built here, once, into
    cfg["streams"] ({seed: stream}): a scenario's from
    Rng(seed).fork("scenario"); a dataset's file is read once and split per
    seed from Rng(seed).fork("split"), so a split that holds one class is
    rejected naming its seed. Each seed's stream then gets the check
    run_incremental makes before its first step (trainer.check_stream), and
    its error names the seed. out_dir must be a directory or creatable as
    one. The verb's cells are kept in cfg["cells"] (see _cells); ablate and
    validate warn here about duplicate grid cells that ablate skips.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_non_finite, parse_float=_finite_float)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    _check_keys("", raw, _TOP_KEYS)
    if ("scenario" in raw) == ("dataset" in raw):
        raise ConfigError("exactly one of 'scenario' or 'dataset' is required")
    seeds = seeds_override if seeds_override is not None else raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError(f"seeds: need a non-empty list of integers, got {seeds!r}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # each seed writes seed_<n>/, and a repeat would count twice in the medians
        raise ConfigError(f"seeds: seed {repeated[0]} is listed more than once")
    cfg = {"seeds": seeds}

    if "scenario" in raw:
        sc = _section(raw, "scenario")
        for p in _SCENARIO_PARAMS:
            if p.default is Parameter.empty and p.name not in sc:
                raise ConfigError(f"scenario: missing required field '{p.name}'")
        streams = {
            s: _build("scenario", make_scenario, rng=Rng(s).fork("scenario"), **sc) for s in seeds
        }
    else:
        ds = _section(raw, "dataset")
        if not isinstance(ds.get("path"), str):
            raise ConfigError("dataset: 'path' must be given as a string")
        table = _build("dataset", load_feature_dataset, ds.pop("path"))
        streams = {
            s: _build(f"dataset: seed {s}", stream_from_samples, table, Rng(s).fork("split"), **ds)
            for s in seeds
        }

    cfg["train"] = _build("train", TrainConfig, **_section(raw, "train"))
    source = "scenario" if "scenario" in raw else "dataset"
    for s, stream in streams.items():
        _build(f"{source}: seed {s}", check_stream, stream, cfg["train"])
    cfg["streams"] = streams
    cfg["loss"] = _build("loss", LossConfig, **_section(raw, "loss"))
    cfg["dcs"] = _build("dcs", DcsConfig, **_section(raw, "dcs"))

    out_dir = out_override if out_override is not None else raw.get("out_dir")
    if out_dir is None:
        raise ConfigError("out_dir: missing required field 'out_dir'")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir: need a non-empty string, got {out_dir!r}")
    # the nearest path that exists at or above out_dir must be a directory; nothing is created
    existing = os.path.abspath(out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out_dir: cannot create {out_dir!r}: {existing} is not a directory")
    cfg["out_dir"] = out_dir

    if verb == "validate":
        # check the config for every verb whose section it has
        verbs = [v for v, key in _VERB_KEYS.items() if key in raw] or ["run"]
    else:
        verbs = [verb]
    for v in verbs:
        cfg["cells"], duplicates = _cells(raw, v, cfg["loss"], cfg["dcs"])
    if duplicates:
        print(f"warning: {duplicates} duplicate grid cells skipped", file=sys.stderr)
    return cfg


def _fmt(value):
    """4-decimal half-up display; empty for absent values."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(Decimal(repr(float(value))).quantize(Decimal("0.0001"), ROUND_HALF_UP))


def _write_file(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_file(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _pca_2d(features):
    centered = features - features.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    # deterministic sign: largest-magnitude loading positive
    for i in range(comps.shape[0]):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    proj = centered @ comps.T
    # a 1-d feature layer has one component: y is 0
    return np.pad(proj, ((0, 0), (0, 2 - proj.shape[1])))


def _run_one_seed(cfg, cell, seed, out_dir):
    """Execute one (cell, seed) run and write its artifact files."""
    strategy, loss_cfg, dcs_cfg = cell
    table, state = run_incremental(
        cfg["streams"][seed], strategy, replace(cfg["train"], seed=seed),
        loss_cfg=loss_cfg, dcs_cfg=dcs_cfg, return_state=True,
    )
    os.makedirs(out_dir, exist_ok=True)

    _write_csv(
        os.path.join(out_dir, "table.csv"),
        table_columns(table.n_tasks),
        [table_row_values(table, row) for row in table.rows],
    )
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {"strategy": strategy.name, "seed": seed, "table": table_to_dict(table)},
    )
    _write_csv(
        os.path.join(out_dir, "alpha.csv"),
        ["task_index", "epoch", "s", "alpha"],
        [(r.task_index, r.epoch, r.s, r.alpha) for r in state.dcs_history],
    )

    _, _, x_test, y_test = state.stream_data[-1]
    proj = _pca_2d(state.model.features(x_test))
    _write_csv(
        os.path.join(out_dir, "projection.csv"),
        ["x", "y", "label", "origin"],
        [
            (x, y, label, "current_fake" if label == LABEL_FAKE else "current_real")
            for (x, y), label in zip(proj, y_test.tolist())
        ],
    )
    return table_to_dict(table)


def _median_summary(per_seed_tables):
    """Seed-median of every derived column, per step."""
    n_steps = len(per_seed_tables[0]["rows"])
    steps = []
    for k in range(n_steps):
        rows = [t["rows"][k] for t in per_seed_tables]

        def med(key):
            vals = [r[key] for r in rows if r[key] is not None]
            return float(np.median(vals)) if vals else None

        steps.append({"step": k + 1, **{c: med(c) for c in DERIVED_COLUMNS}})
    return {"n_seeds": len(per_seed_tables), "steps": steps}


def _cell_dir(out_dir, verb, cell):
    if verb == "run":
        return out_dir
    if verb == "compare":
        return os.path.join(out_dir, cell[0].name)
    name, rs, dcs, norm, gran = _cell_axes(*cell)
    return os.path.join(out_dir, f"{name}__rs-{rs}__dcs-{dcs}__norm-{norm}__{gran}")


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the config a pool worker runs from, set once per worker by _init_worker
_WORKER_CFG = None


def _init_worker(cfg):
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _run_in_worker(cell, seed, out_dir):
    return _run_one_seed(_WORKER_CFG, cell, seed, out_dir)


def _execute(cfg, verb, jobs):
    """Run every cell over the seeds, write each cell's median_summary.json, and return the summaries.

    All (cell, seed) runs share one pool, so no worker idles at a cell's end.
    """
    seeds, cells = cfg["seeds"], cfg["cells"]
    os.makedirs(cfg["out_dir"], exist_ok=True)
    bases = [_cell_dir(cfg["out_dir"], verb, cell) for cell in cells]
    runs = [(cell, s, os.path.join(base, f"seed_{s}")) for cell, base in zip(cells, bases) for s in seeds]
    # a pool starts all its workers up front, so never more than one per run
    workers = min(jobs, len(runs))
    if workers > 1:
        # one BLAS thread per worker, as the products are small. A spawned worker reads the
        # variables when it starts, and workers start while map submits, so they stay set
        saved = {var: os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            # cfg (with every seed's stream) reaches each worker once, through the initializer
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                workers, mp_context=spawn, initializer=_init_worker, initargs=(cfg,)
            ) as pool:
                results = list(pool.map(_run_in_worker, *zip(*runs)))
        finally:
            for var in _BLAS_THREAD_VARS:
                os.environ.pop(var, None)
            os.environ.update(saved)
    else:
        results = [_run_one_seed(cfg, *run) for run in runs]
    summaries = []
    for i, (cell, base) in enumerate(zip(cells, bases)):
        summary = _median_summary(results[i * len(seeds) : (i + 1) * len(seeds)])
        summary["strategy"] = cell[0].name
        _write_json(os.path.join(base, "median_summary.json"), summary)
        summaries.append(summary)
    return summaries


_COMPARE_METRICS = (
    "avg_auc", "pre_avg_auc", "pd_auc",
    "acc_real", "pd_acc_real", "acc_fake", "pd_acc_fake",
)


def _write_comparison(out_dir, summaries):
    _write_csv(
        os.path.join(out_dir, "comparison.csv"),
        ("strategy", "step") + _COMPARE_METRICS,
        [
            [summary["strategy"], step["step"]] + [step[m] for m in _COMPARE_METRICS]
            for summary in summaries for step in summary["steps"]
        ],
    )

    winners = {}
    finals = {s["strategy"]: s["steps"][-1] for s in summaries}
    for metric in _COMPARE_METRICS:
        scored = {n: v[metric] for n, v in finals.items()}
        # a performance drop is better lower, every other metric higher
        if metric.startswith("pd_"):
            winners[f"lowest_final_{metric}"] = min(scored, key=scored.get)
        else:
            winners[f"best_final_{metric}"] = max(scored, key=scored.get)
    _write_json(os.path.join(out_dir, "winners.json"), winners)


# the final-step columns of ablation.csv, after the cell's axes
_ABLATE_METRICS = ("avg_auc", "pre_avg_auc", "pd_auc", "acc_real", "acc_fake", "alpha")


def _write_ablation(out_dir, cells, summaries):
    _write_csv(
        os.path.join(out_dir, "ablation.csv"),
        _GRID_AXES + _ABLATE_METRICS,
        [
            list(_cell_axes(*cell)) + [summary["steps"][-1][m] for m in _ABLATE_METRICS]
            for cell, summary in zip(cells, summaries)
        ],
    )


def _parse_seeds(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be a comma-separated integer list: {text!r}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(prog="genreplay", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "compare", "ablate", "validate"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="override out_dir")
        p.add_argument("--seeds", default=None, help="override seeds, e.g. 1,2,3")
        p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        seeds = _parse_seeds(args.seeds) if args.seeds is not None else None
        cfg = load_config(args.config, args.verb, seeds_override=seeds, out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.verb == "validate":
        print("config OK")
        return 0
    try:
        summaries = _execute(cfg, args.verb, args.jobs)
        if args.verb == "compare":
            _write_comparison(cfg["out_dir"], summaries)
        elif args.verb == "ablate":
            _write_ablation(cfg["out_dir"], cfg["cells"], summaries)
        return 0
    except Exception as exc:  # noqa: BLE001 - surface context, fail with status 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
