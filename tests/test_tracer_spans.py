"""Every span the benchmark tracer wraps is defined where the tracer looks.

`benchmarks/tracer.py` resolves each span as `owner.__dict__[attr]`, so a
traced method that moves into a base class, or a traced function that is
renamed, breaks a traced benchmark run. This test loads the tracer by path
and fails on such a span in the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _tracer_spans() -> list[str]:
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.SPANS)


@pytest.mark.parametrize("span", _tracer_spans())
def test_traced_span_is_defined_on_its_own_owner(span):
    module_name, *owner_path, attr = span.split(".")
    owner = importlib.import_module(f"shadowtomo.{module_name}")
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{span} is not defined on {owner.__name__} itself"
    assert callable(owner.__dict__[attr])
