"""Config-driven runner: validation, artifacts, determinism, comparisons."""

import json
import os
import subprocess
import sys

import pytest

import genreplay.cli
import genreplay.streams
import genreplay.trainer
from genreplay.cli import ConfigError, load_config, main

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
        cfg = json.loads(open(write_config(tmp_path)).read())
        del cfg["strategy"]
        path = tmp_path / "no_strat.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="strategy"):
            load_config(str(path), "run")

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

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path), "run")

    def test_real_drift_accepted_in_scenario(self, tmp_path):
        path = write_config(tmp_path, scenario=dict(TINY_SCENARIO, real_drift=0.5))
        cfg = load_config(path, "run")
        assert cfg["scenario"]["real_drift"] == 0.5


class TestValidateVerb:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", write_config(tmp_path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_compare_config_also_validates(self, tmp_path, capsys):
        cfg = json.loads(open(write_config(tmp_path)).read())
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
            ({"dcs": {"probe_cap": 0}}, "dcs"),
            ({"loss": {"eps_cos": -1}}, "loss"),
            ({"grid": {"rs_metric": ["manhattan"]}}, "grid"),
            ({"grid": {"rs_metric": "l2"}}, "grid.rs_metric"),
            ({"grid": {"normalizer": []}}, "grid.normalizer"),
        ],
        ids=[
            "epochs_0", "dim_too_small", "probe_cap_0", "eps_cos_negative", "grid_rs_metric",
            "grid_axis_not_a_list", "grid_axis_empty",
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
            ("train", "beta1", 1.5, "beta1 and beta2 must lie in [0, 1)"),
            ("train", "beta2", 1.0, "beta1 and beta2 must lie in [0, 1)"),
            ("train", "eps", 0, "eps must be > 0"),
            ("train", "init_scale", -1, "init_scale must be >= 0"),
            ("train", "lr", -1, "lr must be finite and > 0"),
            ("train", "gmm_components", 0, "gmm_components must be >= 1"),
            ("train", "replay_pool_size", 0, "replay_pool_size must be >= 1"),
            ("train", "replay_pool_size", -5, "replay_pool_size must be >= 1"),
            ("train", "epochs", True, "epochs must be an integer, got True"),
            ("train", "epochs", 1.5, "epochs must be an integer, got 1.5"),
            ("train", "batch_current", 8.5, "batch_current must be an integer, got 8.5"),
            ("train", "arch", [8.5], "arch[0] must be an integer, got 8.5"),
            ("dcs", "probe_cap", 2.5, "probe_cap must be an integer, got 2.5"),
        ],
        ids=[
            "beta1_1.5", "beta2_1", "eps_0", "init_scale_negative", "lr_negative",
            "gmm_components_0", "replay_pool_size_0", "replay_pool_size_negative",
            "epochs_bool", "epochs_float", "batch_current_float", "arch_float", "probe_cap_float",
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
                "config error: scenario: each task has 20 training rows (2 x n_train_per_class), "
                "fewer than train.batch_current=32"
            ) in capsys.readouterr().err


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
        lines = open(os.path.join(out, "seed_0", "table.csv")).read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "step"
        assert "avg_auc" in header and "alpha" in header
        assert len(lines) == 3  # header + one row per task
        first_auc = lines[1].split(",")[header.index("auc_t1")]
        assert len(first_auc.split(".")[1]) == 4  # 4-decimal display rounding

    def test_alpha_csv_columns(self, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path)])
        lines = open(os.path.join(out, "seed_0", "alpha.csv")).read().splitlines()
        assert lines[0] == "task_index,epoch,s,alpha"
        assert len(lines) == 2  # 1 epoch on task 2 computes one alpha

    def test_projection_csv_columns(self, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path)])
        lines = open(os.path.join(out, "seed_0", "projection.csv")).read().splitlines()
        assert lines[0] == "x,y,label,origin"
        assert len(lines) == 1 + 2 * TINY_SCENARIO["n_test_per_class"]

    def test_reruns_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["run", "--config", path])
        files = ["seed_0/table.csv", "seed_0/alpha.csv", "seed_0/projection.csv"]
        before = {f: open(os.path.join(out, f), "rb").read() for f in files}
        main(["run", "--config", path])
        for f in files:
            assert open(os.path.join(out, f), "rb").read() == before[f]

    def test_seed_and_out_overrides(self, tmp_path):
        out2 = str(tmp_path / "other")
        main(["run", "--config", write_config(tmp_path), "--out", out2, "--seeds", "3,4"])
        assert os.path.exists(os.path.join(out2, "seed_3", "table.csv"))
        assert os.path.exists(os.path.join(out2, "seed_4", "table.csv"))
        summary = json.load(open(os.path.join(out2, "median_summary.json")))
        assert summary["n_seeds"] == 2

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

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        # seed 1 splits task 0 into a one-class test split; seed 0 splits it well
        path = write_dataset_config(tmp_path, rows_per_task=49, test_fraction=0.05)
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path, "--seeds", "1"]) == 1
        assert "error: task 0: the test split of 2 rows holds one class" in capsys.readouterr().err

    # rows replace the CSV's lines; None deletes the file; "keep" keeps it
    @pytest.mark.parametrize("rows, fraction, message", [
        (None, 0.25, "No such file"),
        (["f0,label,task", "x,0,0"], 0.25, "malformed row 2"),
        (["f0,label,task", "0.1,0,0", "0.2,1,0", "0.3,0,0"], 0.25, "at least 2 tasks"),
        ("keep", 1.5, "test_fraction"),
        ("keep", 0.5, "task 0 has 12 training rows, fewer than train.batch_current=16"),
        (["label,task", "0,0", "1,1"], 0.25, "data.csv: header holds no feature column"),
        (["f0,label,label,task", "0.1,0,0,0"], 0.25, "data.csv: header holds the 'label' column more than once"),
        (["f0,label,task,task", "0.1,0,0,0"], 0.25, "data.csv: header holds the 'task' column more than once"),
    ])
    def test_dataset_errors_exit_2_at_validate(self, tmp_path, capsys, rows, fraction, message):
        path = write_dataset_config(tmp_path, rows_per_task=24, test_fraction=fraction)
        data = tmp_path / "data.csv"
        if rows is None:
            data.unlink()
        elif rows != "keep":
            data.write_text("\n".join(rows) + "\n")
        for verb in ("validate", "run"):
            assert main([verb, "--config", path]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb, overrides, n_files", [
        ("run", {}, 1 + 3 * 4),
        ("compare", {"strategies": ["adaptive", {"kind": "fixed_alpha", "fixed_alpha": 0.4}]}, 2 + 2 * 13),
        ("ablate", {"grid": {"rs_metric": ["cosine", "l2"], "normalizer": ["sigmoid"]}}, 1 + 2 * 13),
    ], ids=["run", "compare", "ablate"])
    def test_jobs_2_matches_jobs_1(self, tmp_path, verb, overrides, n_files):
        path = write_dataset_config(tmp_path, strategy="adaptive", seeds=[0, 1, 2], **overrides)
        outs = [str(tmp_path / "jobs1"), str(tmp_path / "jobs2")]
        for jobs, out in zip(("1", "2"), outs):
            assert main([verb, "--config", path, "--out", out, "--jobs", jobs]) == 0
        trees = []
        for out in outs:
            trees.append({
                os.path.relpath(os.path.join(root, name), out): open(os.path.join(root, name), "rb").read()
                for root, _, names in os.walk(out) for name in names
            })
        assert len(trees[0]) == n_files
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("verb, seeds, jobs, pools", [
        ("run", "1,2", "64", [2]),
        ("run", "1", "3", []),
        ("run", "1,2,3", "2", [2]),
        ("compare", "1,2", "64", [2, 2]),
    ], ids=["run_jobs_64_seeds_2", "run_jobs_3_seed_1", "run_jobs_2_seeds_3", "compare_jobs_64_seeds_2"])
    def test_at_most_one_worker_per_seed(self, tmp_path, monkeypatch, verb, seeds, jobs, pools):
        made = []

        class InProcessPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(genreplay.cli, "ProcessPoolExecutor", InProcessPool)
        path = write_config(tmp_path, strategies=["adaptive", "lower_bound"])
        assert main([verb, "--config", path, "--seeds", seeds, "--jobs", jobs]) == 0
        assert made == pools

    def test_width_1_feature_layer_projects_onto_x(self, tmp_path):
        path = write_config(tmp_path, train=dict(TINY_TRAIN, arch=[8, 1]))
        assert main(["run", "--config", path]) == 0
        lines = open(tmp_path / "out" / "seed_0" / "projection.csv").read().splitlines()
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
        cfg = json.loads(open(write_config(tmp_path)).read())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", "lower_bound"]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(path)]) == 0
        out = cfg["out_dir"]
        lines = open(os.path.join(out, "comparison.csv")).read().splitlines()
        assert lines[0].startswith("strategy,step,avg_auc")
        assert len(lines) == 1 + 2 * 2  # two strategies x two steps
        winners = json.load(open(os.path.join(out, "winners.json")))
        assert winners["best_final_avg_auc"] in ("adaptive", "lower_bound")
        assert os.path.exists(os.path.join(out, "adaptive", "median_summary.json"))
        assert os.path.exists(os.path.join(out, "lower_bound", "seed_0", "table.csv"))

    def test_fixed_alpha_override_is_its_own_strategy(self, tmp_path):
        cfg = json.loads(open(write_config(tmp_path)).read())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", {"kind": "adaptive", "fixed_alpha": 0.3}]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(path)]) == 0
        out = cfg["out_dir"]
        alphas = []
        for name in ("adaptive", "adaptive_fixed_alpha_0.3"):
            summary = json.load(open(os.path.join(out, name, "median_summary.json")))
            assert summary["strategy"] == name
            alphas.append(summary["steps"][-1]["alpha"])
        assert alphas[0] != 0.3 and alphas[1] == 0.3
        rows = open(os.path.join(out, "comparison.csv")).read().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["adaptive"] * 2 + ["adaptive_fixed_alpha_0.3"] * 2

    def test_strategy_listed_twice_exits_2(self, tmp_path, capsys):
        cfg = json.loads(open(write_config(tmp_path)).read())
        del cfg["strategy"]
        cfg["strategies"] = ["adaptive", "lower_bound", {"kind": "adaptive"}]
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(path)]) == 2
        assert "strategies[2]: adaptive is listed twice" in capsys.readouterr().err


class TestAblateVerb:
    def test_grid_cells_and_summary(self, tmp_path, capsys):
        cfg = json.loads(open(write_config(tmp_path)).read())
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
        lines = open(os.path.join(out, "ablation.csv")).read().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert os.path.isdir(
            os.path.join(out, "adaptive__rs-cosine__dcs-l2__norm-tanh__sample_wise")
        )
        assert os.path.isdir(
            os.path.join(out, "adaptive__rs-l2__dcs-l2__norm-tanh__sample_wise")
        )

    def test_fixed_alpha_override_is_its_own_cell(self, tmp_path, capsys):
        cfg = json.loads(open(write_config(tmp_path)).read())
        del cfg["strategy"]
        cfg["grid"] = {"strategy": ["adaptive", {"kind": "adaptive", "fixed_alpha": 0.3}]}
        path = tmp_path / "abl.json"
        path.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(path)]) == 0
        assert "duplicate" not in capsys.readouterr().err
        rows = open(os.path.join(cfg["out_dir"], "ablation.csv")).read().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["adaptive", "adaptive_fixed_alpha_0.3"]

    # each case grids one axis; the config sets a non-default value on all four
    @pytest.mark.parametrize("axis, values", [
        ("rs_metric", ["cosine", "l2"]),
        ("rs_granularity", ["sample_wise", "centroid_based"]),
        ("dcs_metric", ["l2", "cosine_distance"]),
        ("normalizer", ["tanh", "sigmoid"]),
    ], ids=["rs_metric", "rs_granularity", "dcs_metric", "normalizer"])
    def test_axis_left_out_takes_config_value(self, tmp_path, monkeypatch, axis, values):
        own = {
            "rs_metric": "l2", "rs_granularity": "centroid_based",
            "dcs_metric": "cosine_distance", "normalizer": "linear_over_5",
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
        cfg = json.loads(open(write_config(tmp_path)).read())
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
            ("loss", "eps_cos", "NaN", "config holds the non-finite number NaN"),
            ("scenario", "real_drift", "NaN", "config holds the non-finite number NaN"),
            ("train", "init_scale", "Infinity", "config holds the non-finite number Infinity"),
            ("train", "eps", "Infinity", "config holds the non-finite number Infinity"),
            ("train", "lr", "-Infinity", "config holds the non-finite number -Infinity"),
            ("scenario", "forgery_strength", "1e999", "config holds the non-finite number 1e999"),
            ("train", "lr", HUGE_INT, f"train: lr must be a finite number, got {HUGE_INT}"),
            ("scenario", "forgery_strength", HUGE_INT,
             f"scenario: forgery_strength must be a finite number, got {HUGE_INT}"),
            ("scenario", "class_spread", HUGE_INT, f"scenario: class_spread must be a finite number, got {HUGE_INT}"),
            ("train", "init_scale", HUGE_INT, f"train: init_scale must be a finite number, got {HUGE_INT}"),
            ("loss", "eps_cos", HUGE_INT, f"loss: eps_cos must be a finite number, got {HUGE_INT}"),
            ("strategy", "fixed_alpha", "true", "strategy: fixed_alpha must be a finite number, got True"),
            ("train", "lr", "true", "train: lr must be a finite number, got True"),
            ("scenario", "real_drift", "false", "scenario: real_drift must be a finite number, got False"),
            ("loss", "eps_cos", '"0.1"', "loss: eps_cos must be a finite number, got '0.1'"),
        ],
        ids=[
            "class_spread_nan", "eps_cos_nan", "real_drift_nan", "init_scale_inf",
            "eps_inf", "lr_minus_inf", "forgery_strength_1e999",
            "lr_huge_int", "forgery_strength_huge_int", "class_spread_huge_int",
            "init_scale_huge_int", "eps_cos_huge_int", "fixed_alpha_bool", "lr_bool",
            "real_drift_bool", "eps_cos_string",
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
