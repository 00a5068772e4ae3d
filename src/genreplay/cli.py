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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from itertools import product
from math import ceil

import numpy as np

from .confusion import DcsConfig
from .losses import LossConfig
from .metrics import DERIVED_COLUMNS, table_columns, table_row_values, table_to_dict
from .numerics import Rng
from .samples import LABEL_FAKE
from .streams import load_feature_dataset, make_scenario, stream_from_samples, train_sizes
from .trainer import Strategy, TrainConfig, run_incremental


class ConfigError(Exception):
    pass


_SCENARIO_KEYS = {
    "kind", "n_tasks", "dim", "forgery_strength", "replay_strength",
    "class_spread", "base_shift", "real_drift",
    "n_train_per_class", "n_test_per_class",
}
_DATASET_KEYS = {"path", "test_fraction"}
_TRAIN_KEYS = {
    "epochs", "batch_current", "batch_gen_real", "batch_gen_fake", "lr",
    "beta1", "beta2", "eps", "arch", "init_scale", "generator_kind",
    "gmm_components", "replay_pool_size",
}
_LOSS_KEYS = {"rs_metric", "rs_granularity", "eps_cos"}
_DCS_KEYS = {"distance_metric", "normalizer", "probe_cap"}
_STRATEGY_KEYS = {"kind", "fixed_alpha"}
# grid axes in cell order, with the value an absent axis takes
_GRID_DEFAULTS = {
    "strategy": "adaptive", "rs_metric": "cosine", "dcs_metric": "l2",
    "normalizer": "tanh", "rs_granularity": "sample_wise",
}
# the config section each verb runs from
_VERB_KEYS = {"run": "strategy", "compare": "strategies", "ablate": "grid"}
_TOP_KEYS = {
    "scenario", "dataset", "strategy", "strategies", "grid",
    "train", "loss", "dcs", "seeds", "out_dir",
}


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}" if section else f"unknown key {key}")


def _section(raw, name, allowed):
    value = raw.get(name, {})
    _check_keys(name, value, allowed)
    return dict(value)


def _build(where, factory, *args, **kwargs):
    """factory(*args, **kwargs); its ValueError or TypeError becomes a ConfigError naming where."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_strategy(raw, where="strategy"):
    if isinstance(raw, str):
        raw = {"kind": raw}
    _check_keys(where, raw, _STRATEGY_KEYS)
    if "kind" not in raw:
        raise ConfigError(f"{where}: missing required field 'kind'")
    return _build(where, Strategy, kind=raw["kind"], fixed_alpha=raw.get("fixed_alpha"))


def _scenario_stream(sc, rng):
    extras = {k: sc[k] for k in sc if k not in ("kind", "n_tasks", "dim")}
    return make_scenario(sc["kind"], sc["n_tasks"], sc["dim"], rng, **extras)


def _load_dataset(ds, train_cfg):
    """The dataset's samples, parsed once, after every check that holds for all seeds."""
    try:
        samples = _build("dataset", load_feature_dataset, ds["path"])
    except OSError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    sizes = _build("dataset", train_sizes, samples, ds["test_fraction"])
    for t, n_train in sizes.items():
        if n_train < train_cfg.batch_current:
            raise ConfigError(
                f"dataset: task {t} has {n_train} training rows, "
                f"fewer than train.batch_current={train_cfg.batch_current}"
            )
    return samples


def _grid_cells(grid, loss_cfg, dcs_cfg):
    """Distinct (Strategy, LossConfig, DcsConfig) cells of an ablation grid, and the duplicate count."""
    axes = {key: grid.get(key, [default]) for key, default in _GRID_DEFAULTS.items()}
    for key, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}: need a non-empty list")
    axes["strategy"] = [
        _parse_strategy(s, where=f"grid.strategy[{i}]") for i, s in enumerate(axes["strategy"])
    ]
    combos = list(product(*axes.values()))
    cells = {}
    for strategy, rs, dcs, norm, gran in combos:
        cell_loss = _build("grid", replace, loss_cfg, rs_metric=rs, rs_granularity=gran)
        cell_dcs = _build("grid", replace, dcs_cfg, distance_metric=dcs, normalizer=norm)
        cells.setdefault((strategy.name, cell_loss, cell_dcs), (strategy, cell_loss, cell_dcs))
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
    beyond float range such as 1e999 are rejected as they are parsed.

    The verb "validate" checks the config for every verb it has a section
    for. The train, loss, dcs, scenario, strategy and grid values get every
    check a run makes on them, so a config that loads does not fail on them
    once training has started; a scenario's training rows per task are
    checked against batch_current. A dataset is read here, once: its file, its
    test_fraction and each task's training rows against batch_current are
    checked, and the samples are kept in cfg["samples"]; only the per-seed
    split is left to the run, which rejects a split that holds one class.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_non_finite, parse_float=_finite_float)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    _check_keys("", raw, _TOP_KEYS)
    cfg = {}

    if ("scenario" in raw) == ("dataset" in raw):
        raise ConfigError("exactly one of 'scenario' or 'dataset' is required")
    if "scenario" in raw:
        sc = _section(raw, "scenario", _SCENARIO_KEYS)
        for key in ("kind", "n_tasks", "dim"):
            if key not in sc:
                raise ConfigError(f"scenario: missing required field '{key}'")
        # the stream itself is drawn per seed at run time
        stream = _build("scenario", _scenario_stream, sc, Rng(0))
        cfg["scenario"] = sc
    else:
        ds = _section(raw, "dataset", _DATASET_KEYS)
        if not isinstance(ds.get("path"), str):
            raise ConfigError("dataset: 'path' must be given as a string")
        ds.setdefault("test_fraction", 0.25)
        cfg["dataset"] = ds

    cfg["train"] = _build("train", TrainConfig, **_section(raw, "train", _TRAIN_KEYS))
    if "dataset" in cfg:
        cfg["samples"] = _load_dataset(cfg["dataset"], cfg["train"])
    elif 2 * stream.n_train_per_class < cfg["train"].batch_current:
        raise ConfigError(
            f"scenario: each task has {2 * stream.n_train_per_class} training rows "
            f"(2 x n_train_per_class), fewer than train.batch_current={cfg['train'].batch_current}"
        )
    cfg["loss"] = _build("loss", LossConfig, **_section(raw, "loss", _LOSS_KEYS))
    cfg["dcs"] = _build("dcs", DcsConfig, **_section(raw, "dcs", _DCS_KEYS))

    seeds = seeds_override if seeds_override is not None else raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError(f"seeds: need a non-empty list of integers, got {seeds!r}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # each seed writes seed_<n>/, and a repeat would count twice in the medians
        raise ConfigError(f"seeds: seed {repeated[0]} is listed more than once")
    cfg["seeds"] = seeds

    out_dir = out_override if out_override is not None else raw.get("out_dir")
    if out_dir is None:
        raise ConfigError("out_dir: missing required field 'out_dir'")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir: need a non-empty string, got {out_dir!r}")
    cfg["out_dir"] = out_dir

    if verb == "validate":
        # check the config for every verb whose section it has
        verbs = {v for v, key in _VERB_KEYS.items() if key in raw} or {"run"}
    else:
        verbs = {verb}
    if "run" in verbs:
        if "strategy" not in raw:
            raise ConfigError("missing required field 'strategy'")
        cfg["strategy"] = _parse_strategy(raw["strategy"])
    if "compare" in verbs:
        strategies = raw.get("strategies")
        if not isinstance(strategies, list) or len(strategies) < 2:
            raise ConfigError("strategies: compare needs a list of >= 2 strategies")
        cfg["strategies"] = [
            _parse_strategy(s, where=f"strategies[{i}]") for i, s in enumerate(strategies)
        ]
        names = [s.name for s in cfg["strategies"]]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"strategies[{i}]: {name} is listed twice")
    if "ablate" in verbs:
        grid = raw.get("grid")
        if not isinstance(grid, dict):
            raise ConfigError("missing required field 'grid'")
        _check_keys("grid", grid, _GRID_DEFAULTS)
        cfg["grid"] = _grid_cells(grid, cfg["loss"], cfg["dcs"])
    return cfg


def _build_stream(cfg, seed):
    if "scenario" in cfg:
        return _scenario_stream(cfg["scenario"], Rng(seed).fork("scenario"))
    return stream_from_samples(
        cfg["samples"], Rng(seed).fork("split"), test_fraction=cfg["dataset"]["test_fraction"]
    )


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
    return centered @ comps.T


def _run_one_seed(cfg, strategy, seed, out_dir):
    """Execute one (strategy, seed) run and write its artifact files."""
    stream = _build_stream(cfg, seed)
    table, state = run_incremental(
        stream, strategy, replace(cfg["train"], seed=seed),
        loss_cfg=cfg["loss"], dcs_cfg=cfg["dcs"], return_state=True,
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
    proj = _pca_2d(state.model.forward(x_test).features)
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


def _execute_strategy(cfg, strategy, base_dir, jobs):
    seeds = cfg["seeds"]
    run = partial(_run_one_seed, cfg, strategy)
    dirs = [os.path.join(base_dir, f"seed_{s}") for s in seeds]
    if jobs > 1 and len(seeds) > 1:
        # one chunk per worker, so cfg (with any dataset samples) is pickled at most jobs times
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, seeds, dirs, chunksize=ceil(len(seeds) / jobs)))
    else:
        results = list(map(run, seeds, dirs))
    summary = _median_summary(results)
    summary["strategy"] = strategy.name
    _write_json(os.path.join(base_dir, "median_summary.json"), summary)
    return summary


def cmd_run(cfg, jobs=1):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    _execute_strategy(cfg, cfg["strategy"], cfg["out_dir"], jobs)
    return 0


_COMPARE_METRICS = (
    "avg_auc", "pre_avg_auc", "pd_auc",
    "acc_real", "pd_acc_real", "acc_fake", "pd_acc_fake",
)


def cmd_compare(cfg, jobs=1):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    summaries = []
    for strategy in cfg["strategies"]:
        base = os.path.join(cfg["out_dir"], strategy.name)
        summaries.append(_execute_strategy(cfg, strategy, base, jobs))

    rows = []
    for summary in summaries:
        for step in summary["steps"]:
            rows.append(
                [summary["strategy"], step["step"]]
                + [step[m] for m in _COMPARE_METRICS]
            )
    _write_csv(
        os.path.join(cfg["out_dir"], "comparison.csv"),
        ["strategy", "step"] + list(_COMPARE_METRICS),
        rows,
    )

    winners = {}
    finals = {s["strategy"]: s["steps"][-1] for s in summaries}
    for metric in _COMPARE_METRICS:
        scored = {n: v[metric] for n, v in finals.items() if v[metric] is not None}
        if not scored:
            continue
        # a performance drop is better lower, every other metric higher
        if metric.startswith("pd_"):
            winners[f"lowest_final_{metric}"] = min(scored, key=scored.get)
        else:
            winners[f"best_final_{metric}"] = max(scored, key=scored.get)
    _write_json(os.path.join(cfg["out_dir"], "winners.json"), winners)
    return 0


# the final-step columns of ablation.csv, after the cell's axes
_ABLATE_METRICS = ("avg_auc", "pre_avg_auc", "pd_auc", "acc_real", "acc_fake", "alpha")


def cmd_ablate(cfg, jobs=1):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    cells, duplicates = cfg["grid"]
    if duplicates:
        print(f"warning: {duplicates} duplicate grid cells skipped", file=sys.stderr)

    rows = []
    for strategy, loss_cfg, dcs_cfg in cells:
        name, rs, gran = strategy.name, loss_cfg.rs_metric, loss_cfg.rs_granularity
        dcs, norm = dcs_cfg.distance_metric, dcs_cfg.normalizer
        cell_dir = os.path.join(cfg["out_dir"], f"{name}__rs-{rs}__dcs-{dcs}__norm-{norm}__{gran}")
        summary = _execute_strategy(dict(cfg, loss=loss_cfg, dcs=dcs_cfg), strategy, cell_dir, jobs)
        final = summary["steps"][-1]
        rows.append([name, rs, dcs, norm, gran] + [final[m] for m in _ABLATE_METRICS])
    _write_csv(
        os.path.join(cfg["out_dir"], "ablation.csv"),
        ["strategy", "rs_metric", "dcs_metric", "normalizer", "rs_granularity"]
        + list(_ABLATE_METRICS),
        rows,
    )
    return 0


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
        seeds = _parse_seeds(args.seeds) if args.seeds else None
        cfg = load_config(args.config, args.verb, seeds_override=seeds, out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.verb == "validate":
        print("config OK")
        return 0
    try:
        if args.verb == "run":
            return cmd_run(cfg, jobs=args.jobs)
        if args.verb == "compare":
            return cmd_compare(cfg, jobs=args.jobs)
        return cmd_ablate(cfg, jobs=args.jobs)
    except Exception as exc:  # noqa: BLE001 - surface context, fail with status 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
