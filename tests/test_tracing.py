"""The benchmark's call tracer names fdelab functions by module and name; an
API change that drops one of them would leave traced runs without spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, fn", load_tracing().TRACED,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_traced_function_exists(module, fn):
    assert callable(getattr(importlib.import_module(f"fdelab.{module}"), fn, None))


def test_step_failure_is_reachable_from_flow():
    from fdelab.flow import StepFailure
    assert issubclass(StepFailure, Exception)
