"""Alternating A/B passes of bench/run.py over two checkouts, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workloads sweep_adaptive,no_replay,csv_gmm_wide --seeds 21-30 \
        --seconds 30 --traced-seed 3 --out BENCH_7.json

For each workload and each workload seed, the two checkouts each run one timed
pass (`--trace 0`), one after the other; which side goes first flips from pair
to pair, so a drift in machine speed falls on both sides alike. With
--traced-seed, each side then runs one traced pass (`--trace 1`) per workload,
and the workload's count_changes lists the exact counts that differ between
the two (see count_changes).
The output has the shape of the BENCH_*.json files at the repository root:
per-pair results, and per metric the parent's and the change's quartiles, the
median over pairs of change/parent (a paired statistic, so a drift in machine
speed cancels) and the change's wins. Standard library only; each pass runs in
its own interpreter from the root of its checkout, and one that outlives
pass_timeout(--seconds) is stopped and fails naming its command.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    """'11-20' or '11,12,15' -> list of ints; a range A-B with A > B gives none.

    Anything else ('21-30,40', '3-', 'a', '-5') raises ValueError naming text.
    """
    lo, dash, hi = text.partition("-")
    try:
        if dash:
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"--seeds {text!r} is neither a range A-B nor a comma-separated list of integers"
        ) from None


def parse_output(text):
    """What one bench/run.py pass printed: its env, fingerprint, result and extras.

    The last line is the result object; `env`, `fingerprint`, `stage_shares`
    and `zero_call_predictions` lines are picked up when present. So are a
    timed pass's raw walls, as numbers: `run walls s` and `reference walls s`
    as lists under run_walls_s and reference_walls_s, and `raw wall run_s.p50
    <s> setup_s <s>` as a dict under raw_wall. They let an outlying pass be
    traced to its runs or to the reference loop; summarize does not read them.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("bench printed nothing")
    parsed = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "fingerprint":
            parsed["fingerprint"] = rest
        elif key in ("env", "stage_shares", "zero_call_predictions"):
            parsed[key] = json.loads(rest)
        elif line.startswith(("run walls s", "reference walls s")):
            kind, _, walls = line.partition(" walls s")
            parsed[f"{kind}_walls_s"] = [float(w) for w in walls.split()]
        elif line.startswith("raw wall "):
            tokens = line.split()[2:]
            parsed["raw_wall"] = {name: float(v) for name, v in zip(tokens[::2], tokens[1::2])}
    return parsed


def quartiles(values, digits=5):
    """[q1, median, q3], inclusive method (numpy's default percentile), rounded."""
    if len(values) == 1:
        return [round(values[0], digits)] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, digits), round(q2, digits), round(q3, digits)]


def summarize(pairs, directions):
    """Per metric: both sides' quartiles, the paired ratio, and the change's wins and ties.

    pairs is a non-empty list of {"parent": parsed, "change": parsed} (see
    parse_output); directions maps a metric name to "higher" or "lower", the
    better side. A pair where either side has no value for a metric does not
    count for it. change_over_parent_median is the median over pairs of
    change/parent, rounded; pairs whose parent value is 0 have no ratio, and
    with none left it is None.
    """
    if not pairs:
        raise ValueError("no pairs to summarize")
    summary = {}
    for name, better in directions.items():
        values = {side: [] for side in SIDES}
        ratios = []
        unit = None
        wins = ties = 0
        for pair in pairs:
            metric = {side: pair[side]["result"]["metrics"].get(name) for side in SIDES}
            if any(m is None or m["value"] is None for m in metric.values()):
                continue
            parent, change = metric["parent"]["value"], metric["change"]["value"]
            unit = metric["parent"]["unit"]
            values["parent"].append(parent)
            values["change"].append(change)
            if parent:
                ratios.append(change / parent)
            if change == parent:
                ties += 1
            elif (change < parent) == (better == "lower"):
                wins += 1
        if not values["parent"]:
            continue
        summary[name] = {
            "unit": unit,
            "parent_q1_median_q3": quartiles(values["parent"]),
            "change_q1_median_q3": quartiles(values["change"]),
            "change_over_parent_median": round(statistics.median(ratios), 5) if ratios else None,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(values["parent"]),
        }
    summary["fingerprints_equal_in_every_pair"] = all(
        pair["parent"].get("fingerprint") == pair["change"].get("fingerprint") for pair in pairs
    )
    summary["failed"] = sum(pair[side]["result"]["failed"] for pair in pairs for side in SIDES)
    return summary


# traced metrics that count events rather than time them; a count repeats exactly from run to run
EXACT_COUNTS = ("replay.em_iters", "streams.load_feature_dataset.rows")


def count_changes(parent, change):
    """The exact counts, and zero-call predictions, that differ between two traced passes.

    parent and change are parsed traced passes (see parse_output). Each
    per-layer `.calls` or `.count` metric, and each of EXACT_COUNTS, whose
    values differ maps to [parent value, change value]; a value one side lacks
    is None. A zero-call prediction that flipped maps, as "<name> == 0", to
    [parent verdict, change verdict].
    """
    metrics = [p["result"]["metrics"] for p in (parent, change)]
    changes = {}
    for name in dict.fromkeys([*metrics[0], *metrics[1]]):
        if not (name.endswith((".calls", ".count")) or name in EXACT_COUNTS):
            continue
        values = [(side.get(name) or {}).get("value") for side in metrics]
        if values[0] != values[1]:
            changes[name] = values
    predictions = [p.get("zero_call_predictions", {}) for p in (parent, change)]
    for name in dict.fromkeys([*predictions[0], *predictions[1]]):
        verdicts = [side.get(name) for side in predictions]
        if verdicts[0] != verdicts[1]:
            changes[f"{name} == 0"] = verdicts
    return changes


def pass_timeout(seconds):
    """How long one pass may run: ten times --seconds, plus five minutes for set-up and its seeds."""
    return 10 * seconds + 300


def run_pass(checkout, workload, seed, seconds, trace):
    """One bench/run.py pass in checkout, parsed; a timed pass (trace 0) runs for seconds.

    A pass that exits non-zero, prints what parse_output cannot read, or runs
    past pass_timeout(seconds) raises RuntimeError naming it.
    """
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace),
    ]
    if not trace:
        cmd += ["--seconds", str(seconds)]
    timeout = pass_timeout(seconds)
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout} did not finish within {timeout:g} s"
        ) from None
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return parse_output(proc.stdout)
    except ValueError as exc:
        raise RuntimeError(
            f"cannot parse the output of {checkout}, workload {workload}, seed {seed}: {exc}\n"
            f"{proc.stdout}"
        ) from exc


def timed_pairs(checkouts, workload, seeds, seconds, log):
    pairs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"workload_seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_pass(checkouts[side], workload, seed, seconds, trace=0)
            log(f"{workload} seed {seed} {side}: run_s.p50 "
                f"{pair[side]['result']['metrics']['run_s.p50']['value']:.4f}")
        pairs.append(pair)
    return pairs


def _strip(parsed):
    """A parsed pass without its env line, which the file's header summarises."""
    return {k: v for k, v in parsed.items() if k != "env"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="workload seeds, e.g. 21-30 or 1,2,5")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads:
        parser.error(f"--workloads {args.workloads!r} names no workload")
    for workload in workloads:
        if workloads.count(workload) > 1:
            parser.error(f"--workloads names {workload!r} more than once")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if not seeds:
        parser.error(f"--seeds {args.seeds!r} names no seed")
    # the file is written after each workload's pairs and after each traced pass, so a
    # path it cannot be written at must fail now
    out_path = Path(args.out)
    if out_path.is_dir() or not out_path.parent.is_dir():
        parser.error(f"--out {args.out!r} is not a file path in an existing directory")

    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        if workload not in known:
            parser.error(f"--workloads names {workload!r}, which is not one of {', '.join(known)}")
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    out = {
        "what": "bench/run.py passes of the parent commit and of this change, one checkout "
        "each; timed passes alternate which side runs first, pair by pair",
        "commands": {
            "timed": f"python3 bench/run.py --workload <w> --seed <{args.seeds}> "
            f"--seconds {args.seconds:g} --trace 0",
        },
        "summary": {},
        "timed_pairs": {},
    }

    def save():
        out_path.write_text(json.dumps(out, indent=1) + "\n")

    for workload in workloads:
        pairs = timed_pairs(checkouts, workload, seeds, args.seconds, log)
        out["summary"][workload] = summarize(pairs, directions)
        out["timed_pairs"][workload] = [
            {k: _strip(v) if k in SIDES else v for k, v in pair.items()} for pair in pairs
        ]
        if "host" not in out:
            env = {side: pairs[0][side].get("env", {}) for side in SIDES}
            out["parent_commit"] = env["parent"].get("commit")
            out["change_commit"] = env["change"].get("commit")
            out["host"] = {
                key: env["change"].get(src)
                for key, src in (("vcpus", "nproc"), ("python", "python"),
                                 ("numpy", "numpy"), ("blas_threads", "blas_threads"))
            }
        save()
    if args.traced_seed is not None:
        out["commands"]["traced"] = (
            f"python3 bench/run.py --workload <w> --seed {args.traced_seed} --trace 1"
        )
        traced = out[f"traced_seed_{args.traced_seed}"] = {}
        for workload in workloads:
            traced[workload] = {}
            for side in SIDES:
                traced[workload][side] = _strip(
                    run_pass(checkouts[side], workload, args.traced_seed, args.seconds, trace=1)
                )
                save()
            traced[workload]["count_changes"] = count_changes(
                traced[workload]["parent"], traced[workload]["change"]
            )
            save()
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
