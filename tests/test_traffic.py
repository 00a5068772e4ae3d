"""tools/traffic.py: the line tracer and its report, on a small synthetic module."""

import importlib.util
import sys
from pathlib import Path

import traffic

MODULE = '''"""A module with one branch its caller never takes."""


def pick(flag):
    """Docstring lines carry no bytecode."""
    if flag:
        return "yes"
    return [c for c in "no"]


class Box:
    size = 2

    def area(self):
        return self.size * self.size
'''


def test_report_names_the_one_unreached_line(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    before = sys.gettrace()
    with traffic.LineTracer(tmp_path) as tracer:
        spec.loader.exec_module(module)
        assert module.pick(False) == ["n", "o"]
        assert module.Box().area() == 4
    assert sys.gettrace() is before
    assert traffic.executable_lines(path) == {1, 4, 6, 7, 8, 11, 12, 14, 15}
    assert traffic.report([path], tracer.reached, tmp_path) == (
        "synthetic.py: 1 of 9 executable lines unreached\n"
        '     7  return "yes"'
    )


def test_run_digest_reads_key_order_out_and_every_bit_in():
    trace = [0.75, 0.5, 0.25]
    table = {"n_tasks": 2, "rows": [{"step": 1, "avg_auc": 0.5, "alpha": None}]}
    reordered = {"rows": [{"alpha": None, "avg_auc": 0.5, "step": 1}], "n_tasks": 2}
    want = traffic.run_digest(trace, table)
    assert traffic.run_digest(trace, reordered) == want
    assert traffic.run_digest(tuple(trace), table) == want
    # the last bit of one loss, and one byte of the table
    assert traffic.run_digest([0.75, 0.5, float.fromhex("0x1.0000000000001p-2")], table) != want
    assert traffic.run_digest(trace, {"n_tasks": 3, "rows": table["rows"]}) != want


def test_tree_digest_reads_listing_order_out_and_every_byte_in(tmp_path, monkeypatch):
    def tree(name, files):
        root = tmp_path / name
        for rel, data in files:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        return root

    files = [("seed_1/table.csv", b"step,avg_auc\n1,0.5\n"), ("median_summary.json", b"{}\n")]
    want = traffic.tree_digest(tree("a", files), "stdout\n")
    assert traffic.tree_digest(tree("b", files[::-1]), "stdout\n") == want
    listing = Path.rglob
    monkeypatch.setattr(Path, "rglob", lambda self, pattern: reversed(list(listing(self, pattern))))
    assert traffic.tree_digest(tmp_path / "a", "stdout\n") == want
    monkeypatch.undo()
    assert traffic.tree_digest(tree("c", [files[0], ("median_summary.json", b"{ \n")]), "stdout\n") != want
    assert traffic.tree_digest(tree("d", [files[0], ("median_summary.jsoN", b"{}\n")]), "stdout\n") != want
    assert traffic.tree_digest(tmp_path / "a", "stdouT\n") != want
