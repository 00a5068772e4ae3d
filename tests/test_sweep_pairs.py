"""tools/sweep_pairs.py: the paired summary on stub timings, the tree comparison, each child's
environment and time limit, and one real pair."""

import json
import re
import subprocess
import time
from pathlib import Path

import pytest
import sweep_pairs

import genreplay.cli

ROOT = Path(__file__).resolve().parents[1]


def stub_pair(parent, change, identical=True):
    return {
        "parent": {"cpu_s": parent[0], "wall_s": parent[1]},
        "change": {"cpu_s": change[0], "wall_s": change[1]},
        "trees": {"identical": identical, "files": [3, 3], "differ": [] if identical else ["a.csv"]},
    }


def test_summary_gives_quartiles_paired_ratio_and_wins():
    pairs = [
        stub_pair((10.0, 12.0), (9.0, 12.5)),
        stub_pair((8.0, 9.0), (8.0, 8.1)),
        stub_pair((12.0, 13.0), (10.8, 11.7)),
    ]
    summary = sweep_pairs.summarize(pairs)
    cpu, wall = summary["cpu_s"], summary["wall_s"]
    assert cpu["parent_q1_median_q3"] == [9.0, 10.0, 11.0]
    assert cpu["change_q1_median_q3"] == [8.5, 9.0, 9.9]
    assert cpu["change_over_parent_median"] == 0.9
    assert (cpu["change_wins"], cpu["ties"], cpu["pairs"]) == (2, 1, 3)
    assert wall["change_over_parent_median"] == 0.9
    assert (wall["change_wins"], wall["ties"]) == (2, 0)
    assert summary["trees_identical_in_every_pair"] is True
    assert set(summary) == {"cpu_s", "wall_s", "trees_identical_in_every_pair"}


def test_one_differing_pair_makes_the_trees_not_identical():
    pairs = [stub_pair((1.0, 1.0), (1.0, 1.0)), stub_pair((1.0, 1.0), (1.0, 1.0), identical=False)]
    assert sweep_pairs.summarize(pairs)["trees_identical_in_every_pair"] is False


def test_compare_trees_names_each_differing_or_missing_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "seed_1").mkdir(parents=True)
        (root / "same.csv").write_bytes(b"x,y\n1,2\n")
        (root / "seed_1" / "loss.csv").write_bytes(b"0.5\n")
    assert sweep_pairs.compare_trees(a, b) == {"identical": True, "files": [2, 2], "differ": []}
    (b / "seed_1" / "loss.csv").write_bytes(b"0.50000000000000011\n")
    (a / "only_a.txt").write_text("a")
    (b / "seed_1" / "only_b.txt").write_text("b")
    assert sweep_pairs.compare_trees(a, b) == {
        "identical": False, "files": [3, 3], "differ": ["only_a.txt", "seed_1/loss.csv", "seed_1/only_b.txt"],
    }


def test_two_pairs_of_one_checkout_write_identical_trees(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "scenario": {"kind": "domain_safe", "n_tasks": 2, "dim": 6,
                     "n_train_per_class": 32, "n_test_per_class": 24},
        "train": {"epochs": 1, "batch_current": 16, "arch": [8, 8]},
        "strategies": ["lower_bound", "adaptive"],
        "seeds": [1],
    }))
    out = tmp_path / "sweep.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--config", str(config),
            "--seeds", "1-2", "--pairs", "2", "--out", str(out)]
    assert sweep_pairs.main(argv) == 0
    result = json.loads(out.read_text())
    assert result["command"].startswith("python3 -m genreplay.cli compare --config ")
    assert [pair["first"] for pair in result["pairs"]] == ["parent", "change"]
    for pair in result["pairs"]:
        assert pair["trees"]["identical"] and pair["trees"]["files"][0] > 2
        assert all(pair[side]["cpu_s"] > 0 and pair[side]["wall_s"] > 0 for side in ("parent", "change"))
    assert result["summary"]["trees_identical_in_every_pair"] is True
    assert result["summary"]["cpu_s"]["pairs"] == 2


# the shared --seeds and --out checks are pinned by tests/test_bench_pairs.py; one case shows them here
@pytest.mark.parametrize("argv, message", [
    (["--seeds", "5-1"], "names no seed"),
    (["--pairs", "0"], "--pairs must be >= 1, got 0"),
])
def test_bad_arguments_exit_2_naming_them(tmp_path, capsys, argv, message):
    base = {"--parent": ".", "--change": ".", "--config": str(tmp_path / "cfg.json"),
            "--seeds": "1-5", "--pairs": "2", "--out": str(tmp_path / "sweep.json")}
    base.update(dict(zip(argv[::2], argv[1::2])))
    with pytest.raises(SystemExit) as exc:
        sweep_pairs.main([tok for item in base.items() for tok in item])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_each_child_gets_one_blas_thread_and_its_own_checkouts_src(monkeypatch, tmp_path):
    children = []

    def fake_run(cmd, cwd, env, capture_output, text, timeout):
        children.append((cwd, env))
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    for var in genreplay.cli._BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "4")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "elsewhere"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"strategies": ["lower_bound", "adaptive"]}))
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--config", str(config), "--seeds", "1", "--pairs", "2", "--out", str(tmp_path / "sweep.json")]
    assert sweep_pairs.main(argv) == 0
    assert len(genreplay.cli._BLAS_THREAD_VARS) == 3 and len(children) == 4
    for cwd, env in children:
        assert {var: env[var] for var in genreplay.cli._BLAS_THREAD_VARS} == dict.fromkeys(
            genreplay.cli._BLAS_THREAD_VARS, "1"
        )
        assert env["PYTHONPATH"] == str(Path(cwd) / "src") and Path(cwd) in checkouts.values()


def test_hung_child_is_stopped_and_names_its_command(monkeypatch, tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "genreplay").mkdir(parents=True)
    (checkout / "src" / "genreplay" / "__init__.py").write_text("")
    (checkout / "src" / "genreplay" / "cli.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(sweep_pairs, "CHILD_TIMEOUT_S", 0.5)
    config, work = tmp_path / "cfg.json", tmp_path / "work"
    message = (
        rf"^\S+ -m genreplay\.cli compare --config {re.escape(str(config))} --seeds 1,2 --jobs 1 "
        rf"--out {re.escape(str(work / 'out'))} in {re.escape(str(checkout))} did not finish within 0\.5 s$"
    )
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=message):
        sweep_pairs.run_side(checkout, "compare", config, [1, 2], work)
    assert time.perf_counter() - start < 30
