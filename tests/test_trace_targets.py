"""Every function the traced benchmark wraps still exists.

perfbench/tracing.py wraps upsetkit functions by name and raises on a
missing one, but only once a traced run starts; this catches a rename or a
deletion in the tier-1 suite. Importing tracing.py has no side effects.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
_WRAPPED = [(module, attr) for module, attr, _ in [*_TRACING.TARGETS, *_TRACING.COUNTED]]


@pytest.mark.parametrize("module,attr", _WRAPPED, ids=[f"{m}.{a}" for m, a in _WRAPPED])
def test_trace_target_resolves(module, attr):
    holder = importlib.import_module(f"upsetkit.{module}")
    cls_name, _, method = attr.partition(".")
    if method:
        assert method in vars(getattr(holder, cls_name))
    else:
        assert callable(getattr(holder, attr, None))
