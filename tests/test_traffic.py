"""tools/traffic.py: the line tracer and its report, on a small synthetic module."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
_SPEC = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)

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
