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
change/parent and the change's wins (see bench_pairs.summarize). It also says
whether, in each pair, the two sides wrote byte-identical `--out` trees and
stdout; that is reported, not required. Standard library only.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# a script's own directory is on sys.path, so its sibling tool imports as a module
import bench_pairs

SIDES = bench_pairs.SIDES
# the section that names each verb's strategies, in the order the CLI tries them (cli._VERB_KEYS)
VERB_KEYS = {"run": "strategy", "compare": "strategies", "ablate": "grid"}
DIRECTIONS = {"cpu_s": "lower", "wall_s": "lower"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def config_verb(config):
    """The verb whose section the config (a parsed JSON object) holds first; "run" when none."""
    return next((verb for verb, key in VERB_KEYS.items() if key in config), "run")


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
    wall time. A child that exits non-zero raises RuntimeError with its stderr.
    """
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, "-m", "genreplay.cli", verb, "--config", str(config),
        "--seeds", ",".join(map(str, seeds)), "--jobs", "1", "--out", str(workdir / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    (workdir / "stdout.txt").write_text(proc.stdout)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"cpu_s": cpu, "wall_s": wall}


def as_parsed(timing):
    """A side's timing in the shape bench_pairs.summarize reads."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in timing.items()}
    return {"result": {"metrics": metrics, "failed": 0}}


def summarize(pairs):
    """Per metric, both sides' quartiles, the paired change/parent median and the change's wins;
    and whether every pair's two trees were byte-identical.

    pairs is a non-empty list of {"parent": timing, "change": timing, "trees": compare_trees(...)}.
    """
    summary = bench_pairs.summarize(
        [{side: as_parsed(pair[side]) for side in SIDES} for pair in pairs], DIRECTIONS
    )
    del summary["fingerprints_equal_in_every_pair"], summary["failed"]
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
    try:
        seeds = bench_pairs.parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if not seeds:
        parser.error(f"--seeds {args.seeds!r} names no seed")
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    out_path = Path(args.out)
    if out_path.is_dir() or not out_path.parent.is_dir():
        parser.error(f"--out {args.out!r} is not a file path in an existing directory")
    config = Path(args.config).resolve()
    try:
        verb = config_verb(json.loads(config.read_text()))
    except (OSError, ValueError) as exc:
        parser.error(f"--config {args.config!r}: {exc}")
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}

    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        with tempfile.TemporaryDirectory(prefix="sweep-pairs-") as tmp:
            for side in order:
                pair[side] = run_side(checkouts[side], verb, config, seeds, Path(tmp) / side)
                print(f"pair {k} {side}: cpu {pair[side]['cpu_s']:.2f} s, wall {pair[side]['wall_s']:.2f} s",
                      file=sys.stderr, flush=True)
            pair["trees"] = compare_trees(Path(tmp) / "parent", Path(tmp) / "change")
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
