"""Lines of src/genreplay/ that the lab's own traffic never reaches.

    python3 tools/traffic.py

Under one sys.settrace line tracer confined to src/genreplay/, this runs the
traffic the repository itself sends through the package: one run of each
benchmark workload (bench/workloads.py, inputs in a temp dir), each
configs/*.json under the verb its config section names at `--seeds 1 --jobs 1`
with `--out` in a temp dir, and the acceptance gate, tests/test_acceptance.py.
It then prints, per module, the executable lines that none of them reached,
with their source. The package is imported only once the tracer runs, so its
import-time lines count. Nothing is written in the checkout. Standard library,
plus numpy and pytest, which the traffic itself needs.

After the report come `digest <kind>/<name> <sha256>` lines, one per bench
workload run (its float64 loss trace and its table, at full precision) and one
per config (every file of its --out tree and the verb's stdout). Two checkouts
compute the same bits on this traffic when these lines are the same.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "genreplay"


class LineTracer:
    """While active, records under reached {path: set of line numbers} the lines run in files
    under root; frames of any other file are not traced."""

    def __init__(self, root):
        self.root = os.path.join(os.path.realpath(root), "")
        self.reached = {}
        self._previous = None
        # per code filename: its reached set, or None when it lies outside root
        self._files = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._files:
            path = os.path.realpath(name)
            self._files[name] = (
                self.reached.setdefault(path, set()) if path.startswith(self.root) else None
            )
        lines = self._files[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def executable_lines(path):
    """The line numbers of the Python file at path that carry bytecode."""
    code = compile(Path(path).read_text(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # line 0 is the module's entry, which no source line holds
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def report(paths, reached, root):
    """Per file of paths, named relative to root: its executable lines not in reached."""
    out = []
    for path in paths:
        path = os.path.realpath(path)
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(path, set()))
        source = Path(path).read_text().splitlines()
        name = os.path.relpath(path, root)
        out.append(f"{name}: {len(missed)} of {len(lines)} executable lines unreached")
        out += [f"  {n:4d}  {source[n - 1].strip()}" for n in missed]
    return "\n".join(out)


def _digest(parts):
    """sha256 over the sha256 of each byte string of parts, so no two splits of one stream collide."""
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def run_digest(loss_trace, table):
    """Digest of a run: its loss trace as float64 bytes, then its table dict as sort_keys JSON."""
    return _digest([
        np.asarray(loss_trace, dtype=np.float64).tobytes(),
        json.dumps(table, sort_keys=True).encode(),
    ])


def tree_digest(root, stdout):
    """Digest of every file under root, each its relative path then its bytes in path order, then stdout."""
    parts = []
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        parts += [path.relative_to(root).as_posix().encode(), path.read_bytes()]
    return _digest(parts + [stdout.encode()])


def run_traffic(tmp):
    """Run the bench workloads, the configs and the gate.

    Returns their wall times by phase and the digest lines of the workload runs and the configs.
    """
    walls, digests = {}, []
    start = time.perf_counter()
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        seeds = workloads.run_seeds(name, 1, n=1)
        work_dir = os.path.join(tmp, name)
        os.mkdir(work_dir)
        result = workload.run(workload.build(seeds, work_dir), seeds[0])
        problems = workload.check(result)
        if problems:
            raise SystemExit(f"traffic: workload {name}: {problems}")
        digests.append(f"digest bench/{name} {run_digest(result.loss_trace, result.table)}")
    walls["bench"] = time.perf_counter() - start

    start = time.perf_counter()
    import genreplay.cli

    for config in sorted((ROOT / "configs").glob("*.json")):
        verb = genreplay.cli._config_verbs(json.loads(config.read_text()))[0]
        out = os.path.join(tmp, config.stem)
        argv = [verb, "--config", str(config), "--seeds", "1", "--jobs", "1", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = genreplay.cli.main(argv)
        if code:
            raise SystemExit(f"traffic: genreplay {' '.join(argv)} exited with status {code}")
        digests.append(f"digest config/{config.stem} {tree_digest(out, stdout.getvalue())}")
    walls["configs"] = time.perf_counter() - start

    start = time.perf_counter()
    import pytest

    gate = ROOT / "tests" / "test_acceptance.py"
    code = pytest.main([str(gate), "-q", "-p", "no:cacheprovider"])
    if code:
        raise SystemExit(f"traffic: the acceptance gate exited with status {code}")
    walls["gate"] = time.perf_counter() - start
    return walls, digests


def main():
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with tempfile.TemporaryDirectory() as tmp, LineTracer(PACKAGE) as tracer:
        walls, digests = run_traffic(tmp)
    print(report(sorted(PACKAGE.glob("*.py")), tracer.reached, ROOT / "src"))
    print("\n".join(digests))
    print("traffic wall s: " + ", ".join(f"{k} {v:.1f}" for k, v in walls.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
