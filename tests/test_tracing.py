"""The benchmark's call tracer names fdelab functions by module and name; an
API change that drops one of them would leave traced runs without spans."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


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


# A clock-matched rate case under the tracer; prints the rescaled steps and
# how many of them have no flow.evolve span among their ancestors
TRACED_RUN = """
import fdelab as F
from tracing import Tracer

tracer = Tracer()
tracer.install()
setup = F.prepare(F.DomainSpec(geometry="interval", nodes=33),
                  F.Exponents.make(p=2.0, c=1.0))
F.run_nonlinear_rate_case(setup, F.mode_perturbed_field(setup, [(2, 0.1)]),
                          horizon=1.0, dt=1e-2, cadence=0.1, want_fit=False)


def under_evolve(sid):
    while sid >= 0:
        if tracer.names[sid] == "flow.evolve":
            return True
        sid = tracer.parents[sid]
    return False


steps = [sid for sid, name in enumerate(tracer.names)
         if name == "flow.step_rescaled"]
print(len(steps), sum(not under_evolve(tracer.parents[sid]) for sid in steps))
"""


def test_every_rescaled_step_is_inside_an_evolve_span():
    # a run in a fresh interpreter, so that no wrapper outlives the test:
    # the clock-matched run is one flow.evolve call, so the benchmark's
    # flow.evolve.self_s holds its march
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]))
    out = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    steps, outside = map(int, out.split())
    assert steps == 100 and outside == 0
