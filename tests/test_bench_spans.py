"""Every name the benchmark's traced pass wraps still exists where it looks it up.

bench/spans.py installs its wrappers at `vars(owner)[attr]`; a refactor that
moves or drops one of those names would otherwise only fail the traced bench
pass. This reads bench/spans.py and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("bench_spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

TARGETS = [(spec, attr) for spec, attr, *_ in spans.SPAN_TARGETS + spans.COUNT_TARGETS]


@pytest.mark.parametrize("spec, attr", TARGETS, ids=[f"{s}.{a}" for s, a in TARGETS])
def test_target_resolves_as_instrument_looks_it_up(spec, attr):
    owner = spans.resolve_owner(spec)
    assert attr in vars(owner), f"{spec} no longer defines {attr}"
    assert callable(vars(owner)[attr])
