"""tools/bench_pairs.py: output parsing and summary arithmetic, on canned bench output."""

import json
import re
import subprocess
import sys
from pathlib import Path

import bench_pairs
import pytest

ROOT = Path(__file__).resolve().parents[1]

DIRECTIONS = {"run_s.p50": "lower", "steps_per_s": "higher", "final_avg_auc": "higher"}


def canned_output(run_s, steps, auc=0.84, fingerprint="abc", failed=0, walls=None):
    """What bench/run.py --trace 0 prints, cut down to the lines the tool reads.

    walls, when given, are the pass's raw run walls in seconds.
    """
    metrics = {
        "run_s.p50": {"value": run_s, "unit": "s"},
        "steps_per_s": {"value": steps, "unit": "1/s"},
        "final_avg_auc": {"value": auc, "unit": "auc"},
    }
    result = {"correct": not failed, "attempted": 20, "failed": failed, "metrics": metrics}
    return "\n".join([
        'env {"commit": "c0ffee", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "blas_threads": 1}',
        f"fingerprint {fingerprint}",
        "runs 19 timed + 1 re-run; setup samples 5",
        *([] if walls is None else ["run walls s " + " ".join(f"{w:.3f}" for w in walls)]),
        "run_s.p50 0.5 s",
        f"failed_share {failed}/20",
        json.dumps(result),
    ]) + "\n"


def pair(parent, change):
    return {
        "parent": bench_pairs.parse_output(canned_output(*parent)),
        "change": bench_pairs.parse_output(canned_output(*change)),
    }


def test_parse_output_reads_result_fingerprint_and_env():
    parsed = bench_pairs.parse_output(canned_output(0.61, 1600.0, fingerprint="037c"))
    assert parsed["fingerprint"] == "037c"
    assert parsed["env"]["commit"] == "c0ffee"
    assert parsed["result"]["metrics"]["run_s.p50"] == {"value": 0.61, "unit": "s"}
    traced = bench_pairs.parse_output(
        'fingerprint f1 traced f1\nstage_shares {"adam": 0.1}\n'
        'zero_call_predictions {"cli.main.calls": true}\n{"failed": 0, "metrics": {}}\n'
    )
    assert traced["fingerprint"] == "f1 traced f1"
    assert traced["stage_shares"] == {"adam": 0.1}
    assert traced["zero_call_predictions"] == {"cli.main.calls": True}
    with pytest.raises(ValueError):
        bench_pairs.parse_output("\n")


# a timed no_replay pass, with its walls cut to five runs and six reference loops
CAPTURED_TIMED_PASS = """\
env {"blas_threads": 1, "commit": "04396bb", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
fingerprint 7f7ab0d95f0a7602901ece8c4f3e05f508821fbc6dfeb3a1bc00fe9062af0d5c
runs 5 timed + 1 re-run; setup samples 5
reference loop p50 0.03393 s over 6
raw wall run_s.p50 0.1786 setup_s 0.1772
run walls s 0.215 0.199 0.425 0.187 0.150
reference walls s 0.0387 0.0378 0.0581 0.0384 0.0630 0.0339
setup_s 0.20896334416457735 s
run_s.p50 0.210616824736444 s
failed_share 0/6
{"correct": true, "attempted": 6, "failed": 0, "metrics": {"run_s.p50": {"value": 0.2106, "unit": "s"}}}
"""


def test_parse_output_keeps_a_timed_passs_raw_walls_as_numbers():
    parsed = bench_pairs.parse_output(CAPTURED_TIMED_PASS)
    assert parsed["run_walls_s"] == [0.215, 0.199, 0.425, 0.187, 0.150]
    assert parsed["reference_walls_s"] == [0.0387, 0.0378, 0.0581, 0.0384, 0.0630, 0.0339]
    assert parsed["raw_wall"] == {"run_s.p50": 0.1786, "setup_s": 0.1772}
    assert parsed["fingerprint"].startswith("7f7ab0d9")
    # summarize reads the result object, and the run walls for their spread
    summary = bench_pairs.summarize([{"parent": parsed, "change": parsed}], {"run_s.p50": "lower"})
    assert summary["run_s.p50"]["ties"] == 1
    assert summary["raw_wall_spread"] == {"parent": [2.13568] * 3, "change": [2.13568] * 3}
    # a traced pass prints no walls
    traced = bench_pairs.parse_output('fingerprint f1 traced f1\n{"failed": 0, "metrics": {}}\n')
    assert not {"run_walls_s", "reference_walls_s", "raw_wall"} & set(traced)


def test_summary_names_the_pass_whose_raw_walls_spread_widest():
    def timed(walls):
        return bench_pairs.parse_output(canned_output(0.5, 2000.0, walls=walls))

    pairs = [
        {"workload_seed": 21, "parent": timed([0.5, 0.5, 0.6]), "change": timed([0.4, 0.5, 0.5])},
        # a contended pass: its middle wall reads ordinary, its slowest run 4.5x that
        {"workload_seed": 22, "parent": timed([0.8, 1.0, 1.2]), "change": timed([0.8, 0.8, 3.6])},
        {"workload_seed": 23, "parent": timed([1.0, 1.0, 1.0]), "change": timed([0.5, 0.5, 0.5])},
    ]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    # max/median per pass: parent 1.2, 1.2, 1.0; change 1.0, 4.5, 1.0
    assert summary["raw_wall_spread"] == {"parent": [1.1, 1.2, 1.2], "change": [1.0, 1.0, 2.75]}
    assert summary["widest_pass"] == {"workload_seed": 22, "side": "change", "max_over_median": 4.5}
    # a pass that printed no walls adds nothing; with none on either side the keys are absent
    pairs[2]["change"] = bench_pairs.parse_output(canned_output(0.5, 2000.0))
    assert bench_pairs.summarize(pairs, DIRECTIONS)["raw_wall_spread"]["change"] == [1.875, 2.75, 3.625]
    plain = bench_pairs.summarize([pair((0.5, 2000.0), (0.4, 2100.0))], DIRECTIONS)
    assert not {"raw_wall_spread", "widest_pass"} & set(plain)


def test_quartiles_inclusive_and_rounded():
    values = [0.7680872210313661, 0.7713861278957671, 0.7736663327897175, 0.7744306932174891,
              0.7749428887242636, 0.7757198466818855, 0.7801087911194429, 0.7840657818871317,
              0.8008093187576301, 0.8086637611020122]
    assert bench_pairs.quartiles(values) == [0.77386, 0.77533, 0.78308]
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([0.5]) == [0.5, 0.5, 0.5]


def test_summary_counts_wins_by_direction_and_ties():
    pairs = [
        pair((0.80, 1250.0), (0.63, 1600.0)),  # faster: a win on both timing metrics
        pair((0.79, 1260.0), (0.64, 1580.0)),
        pair((0.60, 1700.0), (0.65, 1550.0)),  # slower: a loss on both
        pair((0.81, 1240.0), (0.81, 1240.0)),  # equal: a tie
    ]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    run_s = summary["run_s.p50"]
    assert (run_s["change_wins"], run_s["ties"], run_s["pairs"]) == (2, 1, 4)
    assert run_s["unit"] == "s"
    assert run_s["parent_q1_median_q3"] == [0.7425, 0.795, 0.8025]
    assert run_s["change_q1_median_q3"] == [0.6375, 0.645, 0.69]
    # change/parent per pair: 0.7875, 0.81013, 1.08333, 1.0
    assert run_s["change_over_parent_median"] == round((0.64 / 0.79 + 1.0) / 2, 5)
    steps = summary["steps_per_s"]
    assert (steps["change_wins"], steps["ties"]) == (2, 1)
    auc = summary["final_avg_auc"]
    assert (auc["change_wins"], auc["ties"]) == (0, 4)
    assert summary["fingerprints_equal_in_every_pair"] is True
    assert summary["failed"] == 0


def test_paired_ratio_cancels_a_drift_the_quartiles_show():
    # the host slows down pair by pair; the change is 10% faster in every pair
    pairs = [pair((t, 1.0 / t), (0.9 * t, 1.0 / (0.9 * t))) for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    run_s = summary["run_s.p50"]
    assert run_s["change_over_parent_median"] == 0.9
    assert summary["steps_per_s"]["change_over_parent_median"] == round(1 / 0.9, 5)
    # unpaired, the change's median sits inside the parent's interquartile range
    q1, _, q3 = run_s["parent_q1_median_q3"]
    assert q1 < run_s["change_q1_median_q3"][1] < q3


def test_paired_ratio_skips_a_zero_parent():
    pairs = [pair((0.5, 0.0), (0.4, 2.0)), pair((0.5, 1.0), (0.4, 3.0))]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    assert summary["steps_per_s"]["change_over_parent_median"] == 3.0
    only_zero = bench_pairs.summarize([pair((0.5, 0.0), (0.4, 2.0))], DIRECTIONS)
    assert only_zero["steps_per_s"]["change_over_parent_median"] is None


def test_summary_skips_missing_values_and_counts_failures():
    pairs = [
        pair((0.80, None), (0.70, 1500.0)),
        {
            "parent": bench_pairs.parse_output(canned_output(0.8, 1250.0, fingerprint="a")),
            "change": bench_pairs.parse_output(canned_output(0.7, 1400.0, fingerprint="b", failed=2)),
        },
    ]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    assert summary["steps_per_s"]["pairs"] == 1
    assert summary["run_s.p50"]["pairs"] == 2
    assert summary["fingerprints_equal_in_every_pair"] is False
    assert summary["failed"] == 2
    only_missing = bench_pairs.summarize([pair((0.8, None), (0.7, None))], DIRECTIONS)
    assert "steps_per_s" not in only_missing


def test_timed_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run_pass(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        return bench_pairs.parse_output(canned_output(0.5, 2000.0))

    monkeypatch.setattr(bench_pairs, "run_pass", fake_run_pass)
    checkouts = {"parent": "P", "change": "C"}
    pairs = bench_pairs.timed_pairs(checkouts, "sweep_adaptive", [21, 22, 23], 30, lambda msg: None)
    assert calls == [("P", 21), ("C", 21), ("C", 22), ("P", 22), ("P", 23), ("C", 23)]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert [p["workload_seed"] for p in pairs] == [21, 22, 23]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("21-24") == [21, 22, 23, 24]
    assert bench_pairs.parse_seeds("7-7") == [7]
    assert bench_pairs.parse_seeds("3,5,8") == [3, 5, 8]
    assert bench_pairs.parse_seeds("30-21") == []


@pytest.mark.parametrize("value", ["21-30,40", "3-", "a", "-5", "1-2-3", "3,x"])
def test_parse_seeds_rejects_what_is_not_a_range_or_a_list(value):
    with pytest.raises(ValueError, match=f"--seeds '{value}' is neither"):
        bench_pairs.parse_seeds(value)


NOT_SEEDS = "is neither a range A-B nor a comma-separated list of integers"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--seeds", "30-21", "names no seed"), ("--seeds", ",", "names no seed"),
     ("--workloads", ",", "names no workload"), ("--workloads", "", "names no workload")]
    + [("--seeds", value, f"--seeds {value!r} {NOT_SEEDS}") for value in ("21-30,40", "3-", "a", "-5")],
)
def test_empty_seeds_or_workloads_exit_2_before_any_pass(monkeypatch, capsys, tmp_path, flag, value, message):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(bench_pairs, "run_pass", no_pass)
    argv = {"--parent": ".", "--change": ".", "--workloads": "sweep_adaptive", "--seeds": "21-22",
            "--out": str(tmp_path / "out.json")}
    argv[flag] = value
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([tok for item in argv.items() for tok in item])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "workloads, out, message",
    [
        ("sweep_adaptiv", "out.json", "--workloads names 'sweep_adaptiv', which is not one of sweep_adaptive,"),
        ("sweep_adaptive,typo", "out.json", "--workloads names 'typo', which is not one of sweep_adaptive,"),
        ("no_replay,no_replay", "out.json", "--workloads names 'no_replay' more than once"),
        ("no_replay", "missing/out.json", "--out '{out}' is not a file path in an existing directory"),
        ("no_replay", "", "--out '{out}' is not a file path in an existing directory"),
    ],
    ids=["unknown", "unknown_second", "repeated", "out_dir_missing", "out_is_a_directory"],
)
def test_unknown_workload_exits_2_before_any_pass(monkeypatch, capsys, tmp_path, workloads, out, message):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(bench_pairs, "run_pass", no_pass)
    root = str(ROOT)
    out = str(tmp_path / out)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", root, "--change", root, "--workloads", workloads,
                          "--seeds", "21-22", "--out", out])
    assert exc.value.code == 2
    assert message.format(out=out) in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_summary_of_no_pairs_raises():
    with pytest.raises(ValueError, match="no pairs"):
        bench_pairs.summarize([], DIRECTIONS)


@pytest.mark.parametrize("stdout", ["", "fingerprint abc\nnot json\n"])
def test_unparsable_pass_names_checkout_workload_and_seed(monkeypatch, stdout):
    def fake_run(cmd, cwd, env, capture_output, text, timeout):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    message = "^cannot parse the output of /ck/parent, workload no_replay, seed 21: "
    with pytest.raises(RuntimeError, match=message):
        bench_pairs.run_pass("/ck/parent", "no_replay", 21, 30, trace=0)


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
def test_file_keeps_what_was_measured_when_a_later_pass_fails(monkeypatch, tmp_path, traced):
    # no_replay's first timed pass raises; traced, every timed pass succeeds and its first traced pass raises
    fail_at = ("no_replay", int(traced))

    def fake_run_pass(checkout, workload, seed, seconds, trace):
        if (workload, trace) == fail_at:
            raise RuntimeError("pass failed")
        return bench_pairs.parse_output(canned_output(0.5, 2000.0))

    monkeypatch.setattr(bench_pairs, "run_pass", fake_run_pass)
    out = tmp_path / "out.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workloads", "sweep_adaptive,no_replay",
            "--seeds", "21-22", "--out", str(out)]
    if traced:
        argv += ["--traced-seed", "3"]
    with pytest.raises(RuntimeError, match="pass failed"):
        bench_pairs.main(argv)
    written = json.loads(out.read_text())
    assert list(written["summary"]) == (["sweep_adaptive", "no_replay"] if traced else ["sweep_adaptive"])
    assert written["summary"]["sweep_adaptive"]["run_s.p50"]["pairs"] == 2
    assert len(written["timed_pairs"]["sweep_adaptive"]) == 2
    assert written["parent_commit"] == "c0ffee"
    if traced:
        assert list(written["traced_seed_3"]["sweep_adaptive"]) == ["parent", "change", "count_changes"]


def canned_traced_output(sample_calls, rng_count, self_s, em_iters_bypassed):
    """What bench/run.py --trace 1 prints, cut down to the lines the tool reads."""
    metrics = {
        "replay.GeneratorModel.sample.calls": {"value": sample_calls, "unit": "count"},
        "replay.GeneratorModel.sample.self_s": {"value": self_s, "unit": "s"},
        "numerics.Rng.count": {"value": rng_count, "unit": "count"},
        "losses.rs_loss_with_grads.calls": {"value": 746.6666666666666, "unit": "count"},
        "replay.em_iters": {"value": 0.0 if em_iters_bypassed else 41.0, "unit": "count"},
        "streams.load_feature_dataset.rows": {"value": 0.0, "unit": "count"},
        "trace.overhead": {"value": 1.2 + self_s, "unit": "ratio"},
    }
    predictions = {"cli.main.calls": True, "replay.em_iters": em_iters_bypassed}
    result = {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}
    return "\n".join([
        "fingerprint c23a traced c23a",
        'stage_shares {"adam": 0.15}',
        "zero_call_predictions " + json.dumps(predictions, sort_keys=True),
        json.dumps(result),
    ]) + "\n"


def test_count_changes_lists_only_exact_counts_that_moved():
    parent = bench_pairs.parse_output(canned_traced_output(240.0, 676.0, 0.011, True))
    change = bench_pairs.parse_output(canned_traced_output(180.0, 616.0, 0.009, False))
    assert bench_pairs.count_changes(parent, change) == {
        "replay.GeneratorModel.sample.calls": [240.0, 180.0],
        "numerics.Rng.count": [676.0, 616.0],
        "replay.em_iters": [0.0, 41.0],
        "replay.em_iters == 0": [True, False],
    }
    assert bench_pairs.count_changes(parent, parent) == {}


def test_traced_workload_records_its_count_changes(monkeypatch, tmp_path):
    def fake_run_pass(checkout, workload, seed, seconds, trace):
        if trace:
            return bench_pairs.parse_output(
                canned_traced_output(180.0 if checkout.name == "change" else 240.0, 616.0, 0.01, True)
            )
        return bench_pairs.parse_output(canned_output(0.5, 2000.0))

    monkeypatch.setattr(bench_pairs, "run_pass", fake_run_pass)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "out.json"
    bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workloads", "sweep_adaptive", "--seeds", "21", "--traced-seed", "3", "--out", str(out),
    ])
    traced = json.loads(out.read_text())["traced_seed_3"]["sweep_adaptive"]
    assert traced["count_changes"] == {"replay.GeneratorModel.sample.calls": [240.0, 180.0]}


@pytest.mark.parametrize("trace, seconds", [(0, 30), (1, 2.5)], ids=["timed", "traced"])
def test_pass_timeout_follows_seconds(monkeypatch, trace, seconds):
    seen = {}

    def fake_run(cmd, cwd, env, capture_output, text, timeout):
        seen["timeout"] = timeout
        return subprocess.CompletedProcess(cmd, 0, stdout=canned_output(0.5, 2000.0), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run_pass("/ck/change", "no_replay", 21, seconds, trace=trace)
    assert seen["timeout"] == bench_pairs.pass_timeout(seconds) > 10 * seconds


def test_hung_pass_is_stopped_and_names_its_command(monkeypatch, tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(bench_pairs, "pass_timeout", lambda seconds: 0.5)
    message = (
        r"^\S+ bench/run\.py --workload no_replay --seed 21 --trace 0 --seconds 30 in "
        + re.escape(str(tmp_path)) + r" did not finish within 0\.5 s$"
    )
    with pytest.raises(RuntimeError, match=message):
        bench_pairs.run_pass(tmp_path, "no_replay", 21, 30, trace=0)


def test_imports_only_the_standard_library():
    # tools/traffic.py must not import genreplay before its tracer starts, so the helpers the
    # pair tools share stay importable without the package or numpy
    code = ("import sys; before = set(sys.modules) | {'bench_pairs'}; import bench_pairs; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.partition('.')[0] not in sys.stdlib_module_names))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools", capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
