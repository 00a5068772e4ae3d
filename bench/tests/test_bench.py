"""The benchmark's own code: span arithmetic, patch restoration, failure accounting."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import genreplay.trainer
import run
import workloads
from genreplay.metrics import table_to_dict
from genreplay.numerics import Rng
from genreplay.streams import make_scenario
from genreplay.trainer import Strategy, TrainConfig
from spans import COUNT_TARGETS, SPAN_TARGETS, Tracer, instrument, resolve_owner

TINY_STEPS = 2 * 1 * (64 // 16)  # tasks x epochs x full batches


def tiny_run(streams, seed):
    table, state = genreplay.trainer.run_incremental(
        streams[seed], Strategy("adaptive"),
        TrainConfig(seed=seed, epochs=1, batch_current=16, arch=(8, 8)),
        return_state=True,
    )
    table_dict = table_to_dict(table)
    fingerprint = workloads.digest([
        np.asarray(state.loss_trace).tobytes(), json.dumps(table_dict, sort_keys=True).encode()
    ])
    return workloads.RunResult(seed, list(state.loss_trace), table_dict, fingerprint)


def tiny_streams(seeds, work_dir=None):
    return {
        s: make_scenario("domain_safe", 2, 6, Rng(s).fork("scenario"),
                         n_train_per_class=32, n_test_per_class=24)
        for s in seeds
    }


TINY = workloads.Workload(
    name="tiny", quality_seeds=2, n_tasks=2, epochs=1, batch_current=16,
    train_rows_per_task=64, test_rows_per_task=48, build=tiny_streams, run=tiny_run,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def originals():
    specs = [(s, a) for s, a, _, _ in SPAN_TARGETS] + [(s, a) for s, a, _ in COUNT_TARGETS]
    return {(s, a): vars(resolve_owner(s))[a] for s, a in specs}


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 2.0

        def mid():
            clock.now += 1.0
            leaf_w()
            clock.now += 0.5

        def outer():
            clock.now += 3.0
            mid_w()
            leaf_w()

        leaf_w = tracer.span("leaf", leaf)
        mid_w = tracer.span("mid", mid)
        outer_w = tracer.span("outer", outer)
        outer_w()

        assert tracer.total_s("outer") == 8.5
        assert tracer.self_s("outer") == 3.0  # 8.5 - mid 3.5 - leaf 2.0
        assert tracer.self_s("mid") == 1.5  # 3.5 - leaf 2.0
        assert tracer.calls("leaf") == 2
        assert tracer.self_s("leaf") == 4.0
        assert tracer.total_s("leaf", parent="mid") == 2.0
        assert tracer.total_s("leaf", parent="outer") == 2.0

    def test_span_records_a_call_that_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def boom():
            clock.now += 1.0
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.span("boom", boom)()
        assert tracer.calls("boom") == 1 and tracer.self_s("boom") == 1.0

    def test_wrappers_restored_after_traced_pass(self):
        before = originals()
        seeds = workloads.run_seeds("tiny", 3)
        warmup, untraced, traced, tracer, overhead = run.traced_pass(TINY, tiny_streams(seeds[:2]), seeds)
        assert originals() == before
        assert not any(o.problems for o in [warmup] + untraced + traced)
        assert run.fingerprint_of(untraced) == run.fingerprint_of(traced)
        assert tracer.calls("trainer.run_incremental") == 2
        assert tracer.calls("numerics.adam_step") == 2 * TINY_STEPS
        assert tracer.counts["samples.Sample.count"] > 0
        assert overhead > 0

    def test_wrappers_restored_when_a_run_raises(self):
        before = originals()
        with pytest.raises(RuntimeError):
            with instrument(Tracer()):
                assert originals() != before
                raise RuntimeError("run failed")
        assert originals() == before

    def test_every_layer_metric_reported(self):
        tracer = Tracer()
        metrics = run.layer_metrics(tracer, 1, 1.0)
        assert list(metrics) == run.layer_metric_names()
        assert len(set(metrics)) == len(metrics)


class TestFailureAccounting:
    def test_injected_failures_counted_in_ok_share(self, capsys):
        seeds = workloads.run_seeds("tiny", 1)

        def flaky(streams, seed):
            if seed == seeds[1]:
                raise RuntimeError("injected")
            result = tiny_run(streams, seed)
            if seed == seeds[2]:
                result.loss_trace[0] = math.nan
            return result

        workload = dataclasses.replace(TINY, quality_seeds=4, run=flaky)
        outcomes, references = run.timed_pass(
            workload, tiny_streams(seeds[:4]), seeds, seconds=0, time_reference=lambda: 0.04
        )
        assert references == [0.04] * 5
        rerun = run.rerun_check(workload, tiny_streams(seeds[:1]), outcomes[0])
        all_outcomes = outcomes + [rerun]
        run_times = run.reference_speed(outcomes, references, 0.04)
        assert run_times == pytest.approx([o.wall_s for o in outcomes])
        metrics = run.end_to_end_metrics(workload, outcomes, all_outcomes, run_times, 0.1, 1.0)
        assert metrics["ok_share"] == 3 / 5
        run.emit(all_outcomes, metrics, run.END_TO_END_UNITS)
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (result["correct"], result["attempted"], result["failed"]) == (False, 5, 2)

    def test_rerun_that_differs_is_a_failure(self):
        calls = []

        def drifting(streams, seed):
            calls.append(seed)
            result = tiny_run(streams, seed)
            result.fingerprint += str(len(calls))
            return result

        workload = dataclasses.replace(TINY, run=drifting)
        streams = tiny_streams([5])
        first = run.run_checked(workload, streams, 5)
        again = run.rerun_check(workload, streams, first)
        assert not first.problems
        assert again.problems == ["re-run of seed 5 is not byte-identical"]

    def test_output_checks(self):
        good = tiny_run(tiny_streams([7]), 7)
        assert workloads.check_run(good, TINY_STEPS) == []
        assert "expected" in workloads.check_run(good, TINY_STEPS + 1)[0]
        bad = dataclasses.replace(good, loss_trace=[math.inf] * TINY_STEPS)
        assert workloads.check_run(bad, TINY_STEPS) == ["non-finite loss in loss_trace"]
        table = json.loads(json.dumps(good.table))
        table["rows"][-1]["avg_auc"] = math.nan
        assert workloads.check_run(dataclasses.replace(good, table=table), TINY_STEPS) == [
            "AUC outside [0,1] at step 2"
        ]


def test_run_seeds_follow_the_workload_seed():
    assert workloads.run_seeds("no_replay", 4) == workloads.run_seeds("no_replay", 4)
    assert workloads.run_seeds("no_replay", 4) != workloads.run_seeds("no_replay", 5)
    assert workloads.run_seeds("no_replay", 4) != workloads.run_seeds("sweep_adaptive", 4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "no_replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no genreplay package" in proc.stderr


def test_run_times_scale_with_the_adjacent_reference_loops():
    outcomes = [run.Outcome(1, 2.0, None), run.Outcome(2, 3.0, None)]
    # the host halves its speed after the first run
    assert run.reference_speed(outcomes, [0.04, 0.04, 0.08], 0.04) == [2.0, 2.0]
    result = tiny_run(tiny_streams([1]), 1)
    done = [run.Outcome(1, 2.0, result)]
    metrics = run.end_to_end_metrics(TINY, done, done, [4.0], 1.5, 100.0)
    assert metrics["run_s.p50"] == 4.0
    assert metrics["steps_per_s"] == TINY_STEPS / 4.0
    assert metrics["setup_s"] == 1.5


def test_reference_loop_is_fixed_work():
    import reference

    assert reference.reference_loop() == reference.reference_loop()
    assert reference.time_reference() > 0
