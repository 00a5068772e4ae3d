"""Config-driven runner: validation, artifacts, determinism, comparisons."""

import inspect
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import genreplay.cli
import genreplay.streams
import genreplay.trainer
from genreplay.cli import ConfigError, load_config, main
from genreplay.confusion import DcsConfig
from genreplay.losses import LossConfig
from genreplay.metrics import DERIVED_COLUMNS
from genreplay.numerics import Rng
from genreplay.streams import make_scenario
from genreplay.trainer import Strategy, TrainConfig

TINY_SCENARIO = {
    "kind": "domain_safe",
    "n_tasks": 2,
    "dim": 6,
    "n_train_per_class": 32,
    "n_test_per_class": 24,
}
TINY_TRAIN = {"epochs": 1, "batch_current": 16, "arch": [8, 8]}
# an integer literal beyond float range; json parses it exactly
HUGE_INT = "1" + "0" * 400
# the variables a --jobs pool runs with at "1", one BLAS thread per worker
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def in_process_pools(monkeypatch):
    """Run the CLI's process pools in this process; returns the pools it made.

    Each pool made appends (max_workers, the BLAS thread variables as the pool
    found them, None where unset).
    """
    made = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs, mp_context=None):
            made.append((max_workers, {var: os.environ.get(var) for var in BLAS_THREAD_VARS}))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(genreplay.cli, "ProcessPoolExecutor", InProcessPool)
    # the in-process initializer sets the worker's config here; restore it afterwards
    monkeypatch.setattr(genreplay.cli, "_WORKER_CFG", None)
    return made


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "scenario": dict(TINY_SCENARIO),
        "train": dict(TINY_TRAIN),
        "strategy": "adaptive",
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_dataset_config(tmp_path, rows_per_task=24, test_fraction=0.25, **overrides):
    """A two-task CSV of alternating labels and a run config reading it."""
    rows = ["f0,f1,label,task"]
    for t in range(2):
        for i in range(rows_per_task):
            label = i % 2
            rows.append(f"{t + 0.1 * i},{label + 0.05 * i},{label},{t}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = {
        "dataset": {"path": str(data), "test_fraction": test_fraction},
        "train": dict(TINY_TRAIN, arch=[4]),
        "strategy": "lower_bound",
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    if "strategies" in overrides:
        del cfg["strategy"]
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_valid_run_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path), "run")
        (strategy, loss_cfg, dcs_cfg), = cfg["cells"]
        assert strategy.name == "adaptive"
        assert (loss_cfg, dcs_cfg) == (cfg["loss"], cfg["dcs"])
        assert cfg["seeds"] == [0]

    def test_unknown_top_key_named(self, tmp_path):
        path = write_config(tmp_path, learning_rate=0.1)
        with pytest.raises(ConfigError, match="unknown key learning_rate"):
            load_config(path, "run")

    def test_unknown_section_key_named(self, tmp_path):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, tasks=3))
        with pytest.raises(ConfigError, match="unknown key scenario.tasks"):
            load_config(path, "run")

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "section, key, value",
        [("train", "lr", 2e-4), ("train", "beta1", 0.9), ("train", "beta2", 0.999),
         ("train", "eps", 1e-8), ("train", "init_scale", 1.0), ("loss", "eps_cos", 1e-8),
         ("dcs", "probe_cap", 512)],
    )
    def test_constant_named_as_a_key_exits_2(self, tmp_path, capsys, verb, section, key, value):
        # these are constants of the code, not config fields, even at their own value
        base = TINY_TRAIN if section == "train" else {}
        path = write_config(tmp_path, **{section: dict(base, **{key: value})})
        assert main([verb, "--config", path]) == 2
        assert f"config error: unknown key {section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "source, factory", [("scenario", "make_scenario"), ("dataset", "load_feature_dataset")]
    )
    @pytest.mark.parametrize(
        "message", ["Unable to allocate 7.28 TiB for an array", ""], ids=["numpy", "bare"]
    )
    def test_memory_error_at_build_exits_2(
        self, tmp_path, capsys, monkeypatch, verb, source, factory, message
    ):
        # a scenario's np.eye(dim) can ask for more memory than there is; raise in its place
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(genreplay.cli, factory, out_of_memory)
        if source == "scenario":
            path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, dim=1_000_000))
        else:
            path = write_dataset_config(tmp_path)
        assert main([verb, "--config", path]) == 2
        assert capsys.readouterr().err == f"config error: {source}: {message or 'MemoryError'}\n"
        assert not (tmp_path / "out").exists()

    def test_scenario_and_dataset_exclusive(self, tmp_path):
        path = write_config(tmp_path, dataset={"path": "x.csv"})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path, "run")

    @pytest.mark.parametrize("dataset", [{}, {"path": 5}])
    def test_dataset_path_must_be_a_string(self, tmp_path, dataset):
        path = write_dataset_config(tmp_path, dataset=dataset)
        with pytest.raises(ConfigError, match="'path' must be given as a string"):
            load_config(path, "run")

    def test_missing_strategy_for_run(self, tmp_path):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        path = tmp_path / "no_strat.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="strategy"):
            load_config(str(path), "run")

    def test_missing_grid_for_ablate(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required field 'grid'"):
            load_config(write_config(tmp_path), "ablate")

    def test_compare_needs_two_strategies(self, tmp_path):
        path = write_config(tmp_path, strategies=["adaptive"])
        with pytest.raises(ConfigError, match=">= 2"):
            load_config(path, "compare")

    def test_bad_seeds(self, tmp_path):
        path = write_config(tmp_path, seeds=[])
        with pytest.raises(ConfigError, match="seeds"):
            load_config(path, "run")

    def test_repeated_seed_in_config(self, tmp_path):
        path = write_config(tmp_path, seeds=[1, 2, 1])
        with pytest.raises(ConfigError, match="seed 1 is listed more than once"):
            load_config(path, "run")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json", "run")

    @pytest.mark.parametrize("text, found", [("[]", "list"), ('"x"', "str"), ("3", "int")])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text, found):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"config error: config must be a JSON object, got {found}\n" == capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path), "run")

    def test_real_drift_accepted_in_scenario(self, tmp_path):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, real_drift=0.5, base_shift=0.0))
        stream = load_config(path, "run")["streams"][0]
        # task 2's real mean drifts by real_drift along task 1's forgery direction
        assert stream.tasks[1].real_mean.tolist() == [0.5] + [0.0] * (TINY_SCENARIO["dim"] - 1)

    def test_every_field_reaches_what_it_configures(self, tmp_path, capsys):
        scenario = {
            "kind": "domain_risky", "n_tasks": 3, "dim": 7, "forgery_strength": 1.5,
            "replay_strength": 2.5, "class_spread": 0.4, "base_shift": 0.2, "real_drift": 0.6,
            "n_train_per_class": 20, "n_test_per_class": 9,
        }
        train = {
            "epochs": 2, "batch_current": 16, "batch_gen_real": 4, "batch_gen_fake": 6, "arch": [8, 4],
            "generator_kind": "gmm", "gmm_components": 3, "replay_pool_size": 100,
        }
        loss = {"rs_metric": "l2", "rs_granularity": "centroid_based"}
        dcs = {"distance_metric": "cosine_distance", "normalizer": "tanh"}
        strategy = {"kind": "no_gen_real_sup", "fixed_alpha": 0.2}
        sections = {"scenario": scenario, "train": train, "loss": loss, "dcs": dcs, "strategy": strategy}
        for name, cls in (("train", TrainConfig), ("loss", LossConfig), ("dcs", DcsConfig), ("strategy", Strategy)):
            assert set(sections[name]) == {f.name for f in fields(cls)} - {"seed"}, name
            for f in fields(cls):
                value = sections[name].get(f.name)
                # arch is given as a list and kept as a tuple
                assert f.name == "seed" or (tuple(value) if isinstance(value, list) else value) != f.default
        defaults = inspect.signature(make_scenario).parameters
        assert set(scenario) == set(defaults) - {"rng"}
        assert all(scenario[k] != defaults[k].default for k in scenario)

        path = write_config(tmp_path, seeds=[4, 7], **sections)
        assert main(["validate", "--config", path]) == 0
        cfg = load_config(path, "run")
        assert cfg["train"] == TrainConfig(**dict(train, arch=(8, 4)))
        (cell,) = cfg["cells"]
        assert cell == (Strategy(**strategy), LossConfig(**loss), DcsConfig(**dcs))
        assert list(cfg["streams"]) == [4, 7]
        for seed, stream in cfg["streams"].items():
            expected = make_scenario(rng=Rng(seed).fork("scenario"), **scenario)
            assert (stream.n_tasks, stream.dim) == (3, 7)
            assert (stream.n_train_per_class, stream.n_test_per_class) == (20, 9)
            for task, want in zip(stream.tasks, expected.tasks):
                assert task.class_var == pytest.approx(0.4**2)
                assert task.forgery_signature.strength == 1.5
                assert np.array_equal(task.real_mean, want.real_mean)
                assert np.array_equal(task.fake_mean, want.fake_mean)
            for sig, want in zip(stream.replay_signatures, expected.replay_signatures):
                assert np.array_equal(sig.vector, want.vector) and sig.strength == want.strength

    def test_dataset_fields_reach_each_seed_split(self, tmp_path):
        # the keys are load_feature_dataset's and stream_from_samples' arguments but table and rng
        assert genreplay.cli._SECTION_KEYS["dataset"] == {"path", "test_fraction"}
        path = write_dataset_config(tmp_path, rows_per_task=40, test_fraction=0.3, seeds=[2, 3])
        streams = load_config(path, "run")["streams"]
        assert list(streams) == [2, 3]
        for stream in streams.values():
            sizes = [(len(x_train), len(x_test)) for x_train, _, x_test, _ in stream.tasks_data]
            assert sizes == [(28, 12)] * 2
        # each seed splits from its own fork
        test_rows = [stream.tasks_data[0][2].tolist() for stream in streams.values()]
        assert test_rows[0] != test_rows[1]

    @pytest.mark.parametrize("kind", ["scenario", "dataset"])
    def test_each_seed_stream_built_once(self, tmp_path, monkeypatch, kind):
        builds = []
        for name in ("make_scenario", "stream_from_samples"):
            inner = getattr(genreplay.cli, name)

            def counting(*args, _name=name, _inner=inner, **kwargs):
                builds.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(genreplay.cli, name, counting)
        strategies = ["adaptive", "lower_bound"]
        if kind == "scenario":
            path = write_config(tmp_path, strategies=strategies, seeds=[0, 1])
        else:
            path = write_dataset_config(tmp_path, strategies=strategies, seeds=[0, 1])
        assert main(["compare", "--config", path]) == 0
        built = "make_scenario" if kind == "scenario" else "stream_from_samples"
        assert builds == [built, built]
        assert os.path.exists(tmp_path / "out" / "lower_bound" / "seed_1" / "table.csv")


class TestValidateVerb:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", write_config(tmp_path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_compare_config_also_validates(self, tmp_path, capsys):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", "lower_bound"]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, kind="weird"))
        assert main(["validate", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,section",
        [
            ({"train": dict(TINY_TRAIN, epochs=0)}, "train"),
            ({"scenario": dict(TINY_SCENARIO, dim=6, n_tasks=4)}, "scenario"),
            ({"dcs": {"distance_metric": "cityblock"}}, "dcs"),
            ({"loss": {"rs_granularity": "pairwise"}}, "loss"),
            ({"grid": {"rs_metric": ["manhattan"]}}, "grid"),
            ({"grid": {"rs_metric": "l2"}}, "grid.rs_metric"),
            ({"grid": {"normalizer": []}}, "grid.normalizer"),
            ({"scenario": []}, "config section 'scenario' must be an object"),
            ({"strategy": {"fixed_alpha": 0.2}}, "strategy: missing required field 'kind'"),
            ({"scenario": {"n_tasks": 2, "dim": 6}}, "scenario: missing required field 'kind'"),
            ({"out_dir": None}, "out_dir: missing required field 'out_dir'"),
        ],
        ids=[
            "epochs_0", "dim_too_small", "distance_metric_unknown", "rs_granularity_unknown", "grid_rs_metric",
            "grid_axis_not_a_list", "grid_axis_empty", "section_not_an_object", "strategy_without_kind",
            "scenario_without_kind", "no_out_dir",
        ],
    )
    def test_checks_run_would_fail_exit_2(self, tmp_path, capsys, overrides, section):
        # a grid config also holds a valid strategy: validate checks every verb's section
        path = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", path]) == 2
        assert f"config error: {section}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("train", "gmm_components", 0, "gmm_components must be >= 1"),
            ("train", "replay_pool_size", 0, "replay_pool_size must be >= 1"),
            ("train", "replay_pool_size", -5, "replay_pool_size must be >= 1"),
            ("train", "epochs", True, "epochs must be an integer, got True"),
            ("train", "epochs", 1.5, "epochs must be an integer, got 1.5"),
            ("train", "batch_current", 8.5, "batch_current must be an integer, got 8.5"),
            ("train", "arch", [8.5], "arch[0] must be an integer, got 8.5"),
            ("dcs", "normalizer", "relu", "unknown normalizer 'relu'"),
            ("dcs", "normalizer", "sigmoid", "unknown normalizer 'sigmoid'"),
            ("train", "generator_kind", "vae", "unknown generator kind 'vae'"),
            ("train", "arch", [], "arch needs at least one hidden width"),
        ],
        ids=[
            "gmm_components_0", "replay_pool_size_0", "replay_pool_size_negative",
            "epochs_bool", "epochs_float", "batch_current_float", "arch_float", "normalizer_unknown",
            "normalizer_sigmoid", "generator_kind_unknown", "arch_empty",
        ],
    )
    def test_bad_train_or_dcs_value_exits_2(self, tmp_path, capsys, section, key, value, message):
        base = TINY_TRAIN if section == "train" else {}
        path = write_config(tmp_path, **{section: dict(base, **{key: value})})
        assert main(["validate", "--config", path]) == 2
        assert f"config error: {section}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_train_per_class", 32.5),
            ("n_test_per_class", 24.5),
            ("n_train_per_class", True),
            ("n_test_per_class", True),
            ("n_tasks", 2.0),
            ("dim", 6.0),
        ],
        ids=["n_train_float", "n_test_float", "n_train_bool", "n_test_bool", "n_tasks_float", "dim_float"],
    )
    def test_scenario_count_not_an_integer_exits_2(self, tmp_path, capsys, verb, key, value):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, **{key: value}))
        assert main([verb, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: scenario: {key} must be an integer, got {value!r}" in err
        assert not os.path.exists(tmp_path / "out")

    def test_scenario_tasks_smaller_than_batch_exit_2(self, tmp_path, capsys):
        scenario = dict(TINY_SCENARIO, n_train_per_class=10)
        path = write_config(tmp_path, scenario=scenario, train=dict(TINY_TRAIN, batch_current=32))
        for verb in ("validate", "run"):
            assert main([verb, "--config", path]) == 2
            assert (
                "config error: scenario: seed 0: task 0 has 20 training rows, fewer than batch_current=32"
            ) in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["adaptive", "lower_bound"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_gmm_components_above_class_rows_exit_2(self, tmp_path, capsys, verb, strategy):
        # task 0's pair would be fitted on 8 rows per class; the check ignores the strategy
        path = write_config(
            tmp_path, scenario=dict(TINY_SCENARIO, n_train_per_class=8), strategy=strategy, seeds=[3],
            train=dict(TINY_TRAIN, generator_kind="gmm", gmm_components=9),
        )
        assert main([verb, "--config", path]) == 2
        assert (
            "config error: scenario: seed 3: task 0 has 8 training rows of one class, fewer than gmm_components=9"
        ) in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


    def test_duplicate_grid_cells_warn(self, tmp_path, capsys):
        path = write_config(tmp_path, grid={"normalizer": ["tanh", "tanh"]})
        assert main(["validate", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "config OK" in captured.out
        assert "warning: 1 duplicate grid cells skipped" in captured.err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
    def test_out_dir_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, verb, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out_dir = blocker / "out" / "run" if under else blocker
        path = write_config(tmp_path, out_dir=str(out_dir))
        assert main([verb, "--config", path]) == 2
        assert (
            f"config error: out_dir: cannot create {str(out_dir)!r}: {blocker} is not a directory"
        ) in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

class TestRunVerb:
    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", write_config(tmp_path)]) == 0
        assert os.path.exists(os.path.join(out, "median_summary.json"))
        seed_dir = os.path.join(out, "seed_0")
        for name in ("table.csv", "summary.json", "alpha.csv", "projection.csv"):
            assert os.path.exists(os.path.join(seed_dir, name)), name

    def test_table_csv_format(self, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path)])
        lines = Path(out, "seed_0", "table.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "step"
        assert "avg_auc" in header and "alpha" in header
        assert len(lines) == 3  # header + one row per task
        first_auc = lines[1].split(",")[header.index("auc_t1")]
        assert len(first_auc.split(".")[1]) == 4  # 4-decimal display rounding

    def test_alpha_csv_columns(self, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path)])
        lines = Path(out, "seed_0", "alpha.csv").read_text().splitlines()
        assert lines[0] == "task_index,epoch,s,alpha"
        assert len(lines) == 2  # 1 epoch on task 2 computes one alpha

    def test_integer_fixed_alpha_writes_as_a_float(self, tmp_path):
        out = str(tmp_path / "out")
        strategy = {"kind": "fixed_alpha", "fixed_alpha": 1}
        assert main(["run", "--config", write_config(tmp_path, strategy=strategy)]) == 0
        lines = Path(out, "seed_0", "table.csv").read_text().splitlines()
        alpha = lines[0].split(",").index("alpha")
        assert [line.split(",")[alpha] for line in lines[1:]] == ["1.0000"] * 2

    def test_projection_csv_columns(self, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path)])
        lines = Path(out, "seed_0", "projection.csv").read_text().splitlines()
        assert lines[0] == "x,y,label,origin"
        assert len(lines) == 1 + 2 * TINY_SCENARIO["n_test_per_class"]

    def test_reruns_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["run", "--config", path])
        files = ["seed_0/table.csv", "seed_0/alpha.csv", "seed_0/projection.csv"]
        before = {f: Path(out, f).read_bytes() for f in files}
        main(["run", "--config", path])
        for f in files:
            assert Path(out, f).read_bytes() == before[f]

    def test_seed_and_out_overrides(self, tmp_path):
        out2 = str(tmp_path / "other")
        main(["run", "--config", write_config(tmp_path), "--out", out2, "--seeds", "3,4"])
        assert os.path.exists(os.path.join(out2, "seed_3", "table.csv"))
        assert os.path.exists(os.path.join(out2, "seed_4", "table.csv"))
        summary = json.loads(Path(out2, "median_summary.json").read_text())
        assert summary["n_seeds"] == 2

    def test_median_summary_takes_none_from_the_first_seed(self):
        def table(**values):
            return {"rows": [{c: values.get(c, 0.5) for c in DERIVED_COLUMNS}]}

        step, = genreplay.cli._median_summary(
            [table(alpha=None, avg_auc=0.25), table(alpha=None, avg_auc=1.0), table(alpha=None)]
        )["steps"]
        assert step["alpha"] is None
        assert step["avg_auc"] == 0.5
        # a column None on only some seeds is no median of the others
        with pytest.raises(TypeError):
            genreplay.cli._median_summary([table(), table(alpha=None)])

    def test_stream_drawn_once_per_seed(self, tmp_path, monkeypatch):
        calls = []
        inner = genreplay.streams.draw_stream_data

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(genreplay.streams, "draw_stream_data", counting)
        monkeypatch.setattr(genreplay.trainer, "draw_stream_data", counting)
        assert main(["run", "--config", write_config(tmp_path), "--seeds", "0,1"]) == 0
        assert len(calls) == 2

    def test_dataset_ingestion(self, tmp_path):
        assert main(["run", "--config", write_dataset_config(tmp_path)]) == 0
        assert os.path.exists(tmp_path / "out" / "seed_0" / "table.csv")

    def test_runtime_error_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise RuntimeError("training diverged")

        monkeypatch.setattr(genreplay.cli, "run_incremental", failing)
        assert main(["run", "--config", write_config(tmp_path)]) == 1
        assert "error: training diverged" in capsys.readouterr().err

    def test_failed_generator_fit_exits_1_naming_the_task(self, tmp_path, capsys):
        # task 7's real rows are two points, 50 copies each; EM at k=3 empties a component
        rows = ["f0,f1,label,task"]
        for i in range(100):
            rows.append(f"{2 * (i % 2)},{1 + 2 * (i % 2)},0,7")
            rows.append(f"{0.01 * i},{1 - 0.02 * i},1,7")
        for i in range(40):
            rows.append(f"{0.03 * i},{0.02 * i},{i % 2},9")
        path = write_dataset_config(
            tmp_path, strategy="adaptive",
            train=dict(TINY_TRAIN, arch=[4], generator_kind="gmm", gmm_components=3),
        )
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
        assert main(["validate", "--config", path]) == 0
        capsys.readouterr()
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error: task 7: cannot fit the real generator on " in err
        assert "EM degenerate component after re-seeding" in err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_one_class_split_exits_2_naming_the_seed(self, tmp_path, capsys, verb):
        # seed 1 splits task 0 into a one-class test split; seed 0 splits it well
        path = write_dataset_config(tmp_path, rows_per_task=49, test_fraction=0.05, seeds=[0, 1])
        assert main([verb, "--config", path, "--seeds", "0"]) == 0
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        capsys.readouterr()
        assert main([verb, "--config", path]) == 2
        assert (
            "config error: dataset: seed 1: task 0: the test split of 2 rows holds one class; "
            "add rows or change test_fraction"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # rows replace the CSV's lines; None deletes the file; "keep" keeps it
    @pytest.mark.parametrize("rows, fraction, message", [
        (None, 0.25, "No such file"),
        (["f0,label,task", "x,0,0"], 0.25, "malformed row 2"),
        (["f0,label,task", "0.1,0,0", "0.2,1,99999999999999999999"], 0.25,
         "data.csv: row 3: task id 99999999999999999999 lies beyond int64"),
        (["f0,label,task", "0.1,0,0", "0.2,1,0", "0.3,0,0"], 0.25, "at least 2 tasks"),
        ("keep", 1.5, "test_fraction"),
        ("keep", 0.5, "dataset: seed 0: task 0 has 12 training rows, fewer than batch_current=16"),
        (["label,task", "0,0", "1,1"], 0.25, "data.csv: header holds no feature column"),
        (["f0,label,label,task", "0.1,0,0,0"], 0.25, "data.csv: header holds the 'label' column more than once"),
        (["f0,label,task,task", "0.1,0,0,0"], 0.25, "data.csv: header holds the 'task' column more than once"),
        # a bad byte in the data rows, named by its row, not by an offset in the decoder's chunk
        ("not_utf8", 0.25, "data.csv: row 40: byte 0xff is not UTF-8"),
    ])
    def test_dataset_errors_exit_2_at_validate(self, tmp_path, capsys, rows, fraction, message):
        path = write_dataset_config(tmp_path, rows_per_task=24, test_fraction=fraction)
        data = tmp_path / "data.csv"
        if rows is None:
            data.unlink()
        elif rows == "not_utf8":
            # pad every row so that the bad byte lies past the first 8 KB
            lines = data.read_bytes().replace(b"\n", b"," + b"0" * 300 + b"\n").splitlines()
            lines[0] = b"f0,f1,label,task,pad"
            lines[39] = lines[39].replace(b",", b",\xff", 1)
            data.write_bytes(b"\n".join(lines) + b"\n")
            assert data.read_bytes().index(b"\xff") > 8192
        elif rows != "keep":
            data.write_text("\n".join(rows) + "\n")
        for verb in ("validate", "run"):
            assert main([verb, "--config", path]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb, overrides, n_files", [
        ("run", {}, 1 + 3 * 4),
        ("compare", {"strategies": ["adaptive", {"kind": "fixed_alpha", "fixed_alpha": 0.4}]}, 2 + 2 * 13),
        ("ablate", {"grid": {"rs_metric": ["cosine", "l2"], "normalizer": ["tanh"]}}, 1 + 2 * 13),
    ], ids=["run", "compare", "ablate"])
    def test_jobs_2_matches_jobs_1(self, tmp_path, verb, overrides, n_files):
        path = write_dataset_config(tmp_path, strategy="adaptive", seeds=[0, 1, 2], **overrides)
        outs = [str(tmp_path / "jobs1"), str(tmp_path / "jobs2")]
        for jobs, out in zip(("1", "2"), outs):
            assert main([verb, "--config", path, "--out", out, "--jobs", jobs]) == 0
        trees = []
        for out in outs:
            trees.append({
                os.path.relpath(os.path.join(root, name), out): Path(root, name).read_bytes()
                for root, _, names in os.walk(out) for name in names
            })
        assert len(trees[0]) == n_files
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("verb, seeds, jobs, pools", [
        ("run", "1,2", "64", [2]),
        ("run", "1", "3", []),
        ("run", "1,2,3", "2", [2]),
        ("compare", "1,2", "64", [4]),
        ("compare", "1", "2", [2]),
    ], ids=["run_jobs_64_seeds_2", "run_jobs_3_seed_1", "run_jobs_2_seeds_3", "compare_jobs_64_seeds_2",
            "compare_jobs_2_seed_1"])
    def test_at_most_one_worker_per_seed(self, tmp_path, in_process_pools, verb, seeds, jobs, pools):
        # one pool for all of a verb's (cell, seed) runs, with at most one worker per run
        path = write_config(tmp_path, strategies=["adaptive", "lower_bound"])
        assert main([verb, "--config", path, "--seeds", seeds, "--jobs", jobs]) == 0
        assert [workers for workers, _ in in_process_pools] == pools

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "run_raises"])
    def test_pool_gets_one_blas_thread_and_the_environment_is_restored(
        self, tmp_path, monkeypatch, in_process_pools, fails
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        if fails:
            def broken_run(*args):
                raise RuntimeError("worker failed")

            monkeypatch.setattr(genreplay.cli, "_run_one_seed", broken_run)
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--seeds", "1,2", "--jobs", "2"]) == int(fails)
        assert in_process_pools == [(2, dict.fromkeys(BLAS_THREAD_VARS, "1"))]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ and "MKL_NUM_THREADS" not in os.environ

    def test_width_1_feature_layer_projects_onto_x(self, tmp_path):
        path = write_config(tmp_path, train=dict(TINY_TRAIN, arch=[8, 1]))
        assert main(["run", "--config", path]) == 0
        lines = (tmp_path / "out" / "seed_0" / "projection.csv").read_text().splitlines()
        assert lines[0] == "x,y,label,origin"
        assert len(lines) == 1 + 2 * TINY_SCENARIO["n_test_per_class"]
        assert {line.split(",")[1] for line in lines[1:]} == {"0.0000"}
        assert (tmp_path / "out" / "median_summary.json").exists()

    def test_dataset_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        inner = genreplay.cli.load_feature_dataset

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(genreplay.cli, "load_feature_dataset", counting)
        path = write_dataset_config(
            tmp_path, strategies=["lower_bound", "fake_only_replay"], seeds=[0, 5],
        )
        assert main(["compare", "--config", path]) == 0
        assert len(calls) == 1
        assert os.path.exists(tmp_path / "out" / "fake_only_replay" / "seed_5" / "table.csv")


class TestCompareVerb:
    def test_outputs(self, tmp_path):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", "lower_bound"]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(path)]) == 0
        out = cfg["out_dir"]
        lines = Path(out, "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("strategy,step,avg_auc")
        assert len(lines) == 1 + 2 * 2  # two strategies x two steps
        winners = json.loads(Path(out, "winners.json").read_text())
        assert winners["best_final_avg_auc"] in ("adaptive", "lower_bound")
        assert os.path.exists(os.path.join(out, "adaptive", "median_summary.json"))
        assert os.path.exists(os.path.join(out, "lower_bound", "seed_0", "table.csv"))

    def test_fixed_alpha_override_is_its_own_strategy(self, tmp_path):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", {"kind": "adaptive", "fixed_alpha": 0.3}]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(path)]) == 0
        out = cfg["out_dir"]
        alphas = []
        for name in ("adaptive", "adaptive_fixed_alpha_0.3"):
            summary = json.loads(Path(out, name, "median_summary.json").read_text())
            assert summary["strategy"] == name
            alphas.append(summary["steps"][-1]["alpha"])
        assert alphas[0] != 0.3 and alphas[1] == 0.3
        rows = Path(out, "comparison.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["adaptive"] * 2 + ["adaptive_fixed_alpha_0.3"] * 2

    def test_close_fixed_alphas_are_two_strategies(self, tmp_path):
        alphas = [{"kind": "fixed_alpha", "fixed_alpha": a} for a in (0.1, 0.1000001)]
        path = write_config(tmp_path, strategies=alphas)
        assert main(["compare", "--config", path]) == 0
        rows = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["fixed_alpha_0.1"] * 2 + ["fixed_alpha_0.1000001"] * 2
        for name in ("fixed_alpha_0.1", "fixed_alpha_0.1000001"):
            assert (tmp_path / "out" / name / "median_summary.json").exists()

    def test_strategy_listed_twice_exits_2(self, tmp_path, capsys):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", "lower_bound", {"kind": "adaptive"}]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(path)]) == 2
        assert "strategies[2]: adaptive is listed twice" in capsys.readouterr().err


    def test_negative_zero_fixed_alpha_is_listed_twice(self, tmp_path, capsys):
        alphas = [{"kind": "fixed_alpha", "fixed_alpha": a} for a in (0.0, -0.0)]
        path = write_config(tmp_path, strategies=alphas)
        assert main(["compare", "--config", path]) == 2
        assert "strategies[1]: fixed_alpha_0 is listed twice" in capsys.readouterr().err


class TestAblateVerb:
    def test_grid_cells_and_summary(self, tmp_path, capsys):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["grid"] = {
            "rs_metric": ["cosine", "l2"],
            "normalizer": ["tanh"],
            "strategy": ["adaptive"],
        }
        path = tmp_path / "abl.json"
        path.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(path)]) == 0
        out = cfg["out_dir"]
        lines = Path(out, "ablation.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert os.path.isdir(
            os.path.join(out, "adaptive__rs-cosine__dcs-l2__norm-tanh__sample_wise")
        )
        assert os.path.isdir(
            os.path.join(out, "adaptive__rs-l2__dcs-l2__norm-tanh__sample_wise")
        )

    def test_fixed_alpha_override_is_its_own_cell(self, tmp_path, capsys):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["grid"] = {"strategy": ["adaptive", {"kind": "adaptive", "fixed_alpha": 0.3}]}
        path = tmp_path / "abl.json"
        path.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(path)]) == 0
        assert "duplicate" not in capsys.readouterr().err
        rows = Path(cfg["out_dir"], "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["adaptive", "adaptive_fixed_alpha_0.3"]

    def test_close_fixed_alphas_are_two_cells(self, tmp_path, capsys):
        alphas = [{"kind": "fixed_alpha", "fixed_alpha": a} for a in (0.1, 0.1000001)]
        path = write_config(tmp_path, grid={"strategy": alphas})
        assert main(["ablate", "--config", path]) == 0
        assert "duplicate" not in capsys.readouterr().err
        rows = (tmp_path / "out" / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["fixed_alpha_0.1", "fixed_alpha_0.1000001"]

    def test_negative_zero_fixed_alpha_is_a_duplicate_cell(self, tmp_path, capsys):
        alphas = [{"kind": "fixed_alpha", "fixed_alpha": a} for a in (0.0, -0.0)]
        path = write_config(tmp_path, grid={"strategy": alphas})
        assert main(["ablate", "--config", path]) == 0
        assert "warning: 1 duplicate grid cells skipped" in capsys.readouterr().err
        rows = (tmp_path / "out" / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["fixed_alpha_0"]
        assert not (tmp_path / "out" / "fixed_alpha_-0").exists()

    # each case grids one axis; the config sets a non-default value on all four
    @pytest.mark.parametrize("axis, values", [
        ("rs_metric", ["cosine", "l2"]),
        ("rs_granularity", ["sample_wise", "centroid_based"]),
        ("dcs_metric", ["l2", "cosine_distance"]),
        ("normalizer", ["linear_over_5", "tanh"]),
    ], ids=["rs_metric", "rs_granularity", "dcs_metric", "normalizer"])
    def test_axis_left_out_takes_config_value(self, tmp_path, monkeypatch, axis, values):
        own = {
            "rs_metric": "l2", "rs_granularity": "centroid_based",
            "dcs_metric": "cosine_distance", "normalizer": "tanh",
        }
        path = write_config(
            tmp_path,
            loss={"rs_metric": own["rs_metric"], "rs_granularity": own["rs_granularity"]},
            dcs={"distance_metric": own["dcs_metric"], "normalizer": own["normalizer"]},
            grid={axis: values},
        )
        trained = []
        inner = genreplay.cli.run_incremental

        def recording(*args, loss_cfg, dcs_cfg, **kwargs):
            trained.append((loss_cfg, dcs_cfg))
            return inner(*args, loss_cfg=loss_cfg, dcs_cfg=dcs_cfg, **kwargs)

        monkeypatch.setattr(genreplay.cli, "run_incremental", recording)
        assert main(["ablate", "--config", path]) == 0
        cells = [dict(own, **{axis: value}) for value in values]
        out = tmp_path / "out"
        for c in cells:
            name = f"adaptive__rs-{c['rs_metric']}__dcs-{c['dcs_metric']}__norm-{c['normalizer']}__{c['rs_granularity']}"
            assert (out / name / "median_summary.json").exists(), name
        assert [
            (lc.rs_metric, lc.rs_granularity, dc.distance_metric, dc.normalizer) for lc, dc in trained
        ] == [(c["rs_metric"], c["rs_granularity"], c["dcs_metric"], c["normalizer"]) for c in cells]
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("strategy,rs_metric,dcs_metric,normalizer,rs_granularity,")
        assert [line.split(",")[:5] for line in lines[1:]] == [
            ["adaptive", c["rs_metric"], c["dcs_metric"], c["normalizer"], c["rs_granularity"]]
            for c in cells
        ]

    def test_duplicate_cells_warn_once(self, tmp_path, capsys):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["strategy"]
        cfg["grid"] = {"rs_metric": ["cosine", "cosine"], "strategy": ["adaptive"]}
        path = tmp_path / "abl.json"
        path.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(path)]) == 0
        assert "duplicate" in capsys.readouterr().err


class TestCliParsing:
    def test_bad_seeds_flag_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", write_config(tmp_path), "--seeds", "1,two"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["", " ", ","], ids=["empty", "blank", "comma"])
    def test_seeds_flag_without_a_seed_exits_2(self, tmp_path, capsys, seeds):
        assert main(["run", "--config", write_config(tmp_path), "--seeds", seeds]) == 2
        assert "config error: seeds: need a non-empty list of integers, got []" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_repeated_seed_flag_exits_2(self, tmp_path, capsys, verb):
        out = tmp_path / "out"
        code = main([verb, "--config", write_config(tmp_path), "--out", str(out), "--seeds", "1,1,2"])
        assert code == 2
        assert "seed 1 is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_repeated_seed_in_config_exits_2(self, tmp_path, capsys, verb):
        code = main([verb, "--config", write_config(tmp_path, seeds=[1, 1])])
        assert code == 2
        assert "seed 1 is listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, verb, jobs):
        code = main([verb, "--config", write_config(tmp_path), "--jobs", jobs])
        assert code == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInputsThatWouldBreakTraining:
    """Values a run cannot train on exit 2 at load, under validate and run alike."""

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "section, key, literal, message",
        [
            ("scenario", "class_spread", "NaN", "config holds the non-finite number NaN"),
            ("strategy", "fixed_alpha", "NaN", "config holds the non-finite number NaN"),
            ("scenario", "real_drift", "NaN", "config holds the non-finite number NaN"),
            ("scenario", "base_shift", "Infinity", "config holds the non-finite number Infinity"),
            ("scenario", "replay_strength", "Infinity", "config holds the non-finite number Infinity"),
            ("scenario", "base_shift", "-Infinity", "config holds the non-finite number -Infinity"),
            ("scenario", "forgery_strength", "1e999", "config holds the non-finite number 1e999"),
            ("scenario", "base_shift", HUGE_INT, f"scenario: base_shift must be a finite number, got {HUGE_INT}"),
            ("scenario", "forgery_strength", HUGE_INT,
             f"scenario: forgery_strength must be a finite number, got {HUGE_INT}"),
            ("scenario", "class_spread", HUGE_INT, f"scenario: class_spread must be a finite number, got {HUGE_INT}"),
            ("strategy", "fixed_alpha", HUGE_INT, f"strategy: fixed_alpha must be a finite number, got {HUGE_INT}"),
            ("scenario", "replay_strength", HUGE_INT,
             f"scenario: replay_strength must be a finite number, got {HUGE_INT}"),
            ("strategy", "fixed_alpha", "true", "strategy: fixed_alpha must be a finite number, got True"),
            ("scenario", "base_shift", "true", "scenario: base_shift must be a finite number, got True"),
            ("scenario", "real_drift", "false", "scenario: real_drift must be a finite number, got False"),
            ("scenario", "class_spread", '"0.1"', "scenario: class_spread must be a finite number, got '0.1'"),
        ],
        ids=[
            "class_spread_nan", "fixed_alpha_nan", "real_drift_nan", "base_shift_inf",
            "replay_strength_inf", "base_shift_minus_inf", "forgery_strength_1e999",
            "base_shift_huge_int", "forgery_strength_huge_int", "class_spread_huge_int",
            "fixed_alpha_huge_int", "replay_strength_huge_int", "fixed_alpha_bool", "base_shift_bool",
            "real_drift_bool", "class_spread_string",
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, verb, section, key, literal, message):
        base = {"scenario": TINY_SCENARIO, "train": TINY_TRAIN, "strategy": {"kind": "fixed_alpha"}}
        path = write_config(tmp_path, **{section: dict(base.get(section, {}), **{key: "<literal>"})})
        # json.dumps cannot write 1e999, so the literal goes into the text as written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(cfg.read_text().replace('"<literal>"', literal))
        assert main([verb, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("key, value", [
        ("class_spread", 1e200), ("real_drift", 1e50), ("real_drift", 1e10),
        ("base_shift", 1e300), ("forgery_strength", 1e4), ("replay_strength", -2e3),
    ], ids=[
        "class_spread_1e200", "real_drift_1e50", "real_drift_1e10", "base_shift_1e300",
        "forgery_strength_1e4", "replay_strength_minus_2e3",
    ])
    def test_scenario_magnitude_beyond_bound_exits_2(self, tmp_path, capsys, verb, key, value):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, **{key: value}))
        assert main([verb, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: scenario: {key} must lie in [-1000, 1000], got {value!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_scenario_with_too_many_values_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, verb
    ):
        # 2 tasks * 2 classes * (10**12 + 24) rows * dim 6; the check comes before the stream's
        # first draw, so nothing is drawn or allocated
        draws = []
        monkeypatch.setattr(Rng, "normal", lambda self, size: draws.append(size))
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, n_train_per_class=10**12))
        assert main([verb, "--config", path]) == 2
        assert capsys.readouterr().err == (
            "config error: scenario: n_tasks=2 * 2 * (n_train_per_class=1000000000000 + "
            "n_test_per_class=24) * dim=6 = 24000000000576 values, more than 1073741824\n"
        )
        assert draws == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "key, value", [("forgery_strength", -1), ("replay_strength", -0.5), ("class_spread", -0.5)]
    )
    def test_scenario_negative_strength_or_spread_exits_2(self, tmp_path, capsys, verb, key, value):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, **{key: value}))
        assert main([verb, "--config", path]) == 2
        assert f"config error: scenario: {key} must be >= 0, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("write, overrides, message", [
        (write_config, {"train": dict(TINY_TRAIN, arch=64)}, "train: arch must be a list of hidden widths, got 64"),
        (write_config, {"train": dict(TINY_TRAIN, arch="64")}, "train: arch must be a list of hidden widths, got '64'"),
        (write_config, {"strategy": {"kind": ["adaptive"]}}, "strategy: kind must be a string, got ['adaptive']"),
        (
            write_dataset_config, {"test_fraction": "0.25"},
            "dataset: seed 0: test_fraction must be a finite number, got '0.25'",
        ),
    ], ids=["arch_int", "arch_string", "kind_list", "test_fraction_string"])
    def test_wrong_type_exits_2_naming_the_field(self, tmp_path, capsys, write, overrides, message):
        assert main(["validate", "--config", write(tmp_path, **overrides)]) == 2
        assert f"config error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bool_seed_exits_2(self, tmp_path, capsys, verb):
        assert main([verb, "--config", write_config(tmp_path, seeds=[True])]) == 2
        assert "config error: seeds: need a non-empty list of integers, got [True]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("out_dir", [5, "", ["out"]], ids=["int", "empty", "list"])
    def test_out_dir_must_be_a_string(self, tmp_path, capsys, verb, out_dir):
        assert main([verb, "--config", write_config(tmp_path, out_dir=out_dir)]) == 2
        assert f"config error: out_dir: need a non-empty string, got {out_dir!r}" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(genreplay.cli.__file__))
    code = "import sys, genreplay, genreplay.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_module_entry_point_exits_with_mains_status(tmp_path):
    # python -m genreplay.cli, as README documents it, passes main's status to the shell
    src = os.path.dirname(os.path.dirname(genreplay.cli.__file__))
    path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, kind="weird"))
    proc = subprocess.run(
        [sys.executable, "-m", "genreplay.cli", "validate", "--config", path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
