"""Alternating A/B timings of one config's verb over two checkouts, summarised as one JSON file.

    python3 tools/sweep_pairs.py --parent ../parent --change . \
        --config configs/strategy_comparison.json --seeds 1-5 --pairs 6 --out sweep.json

Each pair runs the config's verb (`compare`, `ablate` or `run`, by the section
the config holds) once per checkout, one after the other, at `--seeds` and
`--jobs 1`, in a child interpreter from the root of that checkout with its own
src/ on PYTHONPATH and one BLAS thread; which side goes first flips from pair
to pair, so a drift in machine speed falls on both sides alike. Both sides read
the same config file. Per side the file gives the quartiles of the child's CPU
time (user plus system) and wall time, and per metric the median over pairs of
change/parent and the change's wins (see bench_pairs.paired_summary). It also
says whether, in each pair, the two sides wrote byte-identical `--out` trees
and stdout; that is reported, not required. A child past CHILD_TIMEOUT_S is
stopped and fails naming its command. Standard library, plus this checkout's
genreplay.cli, which owns the verb rule and the BLAS thread variables.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

# a script's own directory is on sys.path, so its sibling tool imports as a module
import bench_pairs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from genreplay import cli  # noqa: E402

# How long one child may run: the largest shipped config, configs/alpha_curve_safe.json, took
# 18 s of wall time at --seeds 1-10 --jobs 1 on a 2-vCPU host (Python 3.11.7, numpy 2.4.6), so an
# hour leaves a wide margin for slower or busier hosts and longer seed lists, and still ends a hang.
CHILD_TIMEOUT_S = 3600


def tree_files(root):
    """{path relative to root: sha256 hex of its bytes}, for every file under root."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def compare_trees(a, b):
    """{"identical": bool, "files": [count under a, count under b], "differ": sorted paths}.

    differ lists each relative path whose bytes differ, or that only one tree holds.
    """
    files_a, files_b = tree_files(a), tree_files(b)
    differ = sorted(p for p in files_a.keys() | files_b.keys() if files_a.get(p) != files_b.get(p))
    return {"identical": not differ, "files": [len(files_a), len(files_b)], "differ": differ}


def run_side(checkout, verb, config, seeds, workdir):
    """One child run of verb in checkout, writing workdir/out and workdir/stdout.txt.

    Returns {"cpu_s", "wall_s"}: the child's user plus system CPU time and its
    wall time. A child that exits non-zero or outlives CHILD_TIMEOUT_S raises
    RuntimeError naming it (see bench_pairs.run_child).
    """
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, "-m", "genreplay.cli", verb, "--config", str(config),
        "--seeds", ",".join(map(str, seeds)), "--jobs", "1", "--out", str(workdir / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    env.update(dict.fromkeys(cli._BLAS_THREAD_VARS, "1"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = bench_pairs.run_child(cmd, checkout, CHILD_TIMEOUT_S, env)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    (workdir / "stdout.txt").write_text(proc.stdout)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"cpu_s": cpu, "wall_s": wall}


def summarize(pairs):
    """Per metric its bench_pairs.paired_summary, and whether every pair's trees were byte-identical.

    pairs is a non-empty list of {"parent": timing, "change": timing, "trees": compare_trees(...)}.
    """
    summary = {
        name: bench_pairs.paired_summary(
            [(pair["parent"][name], pair["change"][name]) for pair in pairs], "lower", "s"
        )
        for name in ("cpu_s", "wall_s")
    }
    summary["trees_identical_in_every_pair"] = all(pair["trees"]["identical"] for pair in pairs)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--config", required=True, help="the config both sides run")
    parser.add_argument("--seeds", required=True, help="run seeds, e.g. 1-5 or 1,2,5")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts, seeds, out_path = bench_pairs.check_pair_args(parser, args)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    config = Path(args.config).resolve()
    try:
        verb = cli._config_verbs(json.loads(config.read_text()))[0]
    except (OSError, ValueError) as exc:
        parser.error(f"--config {args.config!r}: {exc}")

    pairs = []
    with tempfile.TemporaryDirectory(prefix="sweep-pairs-") as tmp:
        def run(side, k):
            timing = run_side(checkouts[side], verb, config, seeds, Path(tmp) / str(k) / side)
            print(f"pair {k} {side}: cpu {timing['cpu_s']:.2f} s, wall {timing['wall_s']:.2f} s",
                  file=sys.stderr, flush=True)
            return timing

        for k, pair in enumerate(bench_pairs.alternating_pairs(range(args.pairs), run)):
            pair["trees"] = compare_trees(Path(tmp) / str(k) / "parent", Path(tmp) / str(k) / "change")
            # one config's trees can run to megabytes; keep only the running pair's
            shutil.rmtree(Path(tmp) / str(k))
            pairs.append(pair)

    out = {
        "what": "one config's verb run by the parent commit's and this change's checkouts, one "
        "child process each at --jobs 1 and one BLAS thread; pairs alternate which side runs first",
        "command": f"python3 -m genreplay.cli {verb} --config {args.config} "
        f"--seeds {','.join(map(str, seeds))} --jobs 1 --out <tmp>",
        "summary": summarize(pairs),
        "pairs": pairs,
    }
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
