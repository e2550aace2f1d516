"""One round of a benchmark workload, in a fresh interpreter.

    python3 benchmarks/workload.py --workload NAME --dir DIR --spawned-at T
                                [--trace] [--setup-only]

benchmarks/run.py starts it with the checkout's src/ on PYTHONPATH and
passes its time.monotonic() reading taken just before the start, so that
set-up time counts from the interpreter's launch (CLOCK_MONOTONIC is shared
by all processes on Linux).  The round imports numpy, scipy and fdelab,
writes the workload's configs (end of set-up), runs the workload's
operations, checks their outputs and writes DIR/result.json.  Exit code 2
means fdelab could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

try:
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import fdelab
    import fdelab.cli
except ImportError as exc:
    print(f"cannot import fdelab: {exc}", file=sys.stderr)
    sys.exit(2)

import checks
from hostspeed import Sampler, reference_time
from tracing import Tracer

P, C = 2.0, 1.0

# The paper's headline experiment and the reference rate run: calibration
# (17 trials, ~90% of the rescaled steps) dominates.
RATE_P2_CONFIG = """\
domain.geometry = interval
domain.nodes = 257
exponents.p = 2.0
exponents.c = 1.0
flow.dt = 1e-3
flow.horizon = 12.0
initial.kind = mode_perturbed
initial.modes = 2:1:0.1
initial.match_clock = true
sampler.cadence = 0.02
"""

# A large uncalibrated perturbation (h_inf ~ 0.22) sampled at every step:
# no calibration; rescaled steps, entropy_report and trace writing dominate,
# and memory grows with the retained samples.
TRACE_DENSE_CONFIG = """\
domain.geometry = interval
domain.nodes = 1024
exponents.p = 2.0
exponents.c = 1.0
flow.dt = {dt!r}
flow.horizon = {horizon!r}
initial.kind = mode_perturbed
initial.modes = 2:1:3.0
initial.match_clock = false
sampler.cadence = {dt!r}
"""
TRACE_DENSE_DTS = (5e-4, 2.5e-4)
TRACE_DENSE_HORIZON = 2.5

# The closed extinction loop, the only workload on the original flow.
EXTINCTION_NODES = 1024
EXTINCTION_DT_ORIGINAL = 5e-5
EXTINCTION_RERUN_DT = 2e-3


@dataclass
class Op:
    """One fdelab call (timed) and the checks of its outputs (untimed).
    check(value) -> (failures, self-test failures, digest of the outputs)."""

    name: str
    run: Callable
    check: Callable


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _cli_run(argv):
    """The CLI call of an Op.  Exit 4 (verdict FAIL) is a finished run with a
    wrong result, left to the checks; any other non-zero exit fails the Op."""
    def run():
        rc = fdelab.cli.main(argv)
        if rc not in (0, 4):
            raise RuntimeError(f"fdelab {argv[0]} exited {rc}")
        return rc
    return run


def _exit_check(rc) -> list:
    return [] if rc == 0 else [f"fdelab exited {rc} (verdict FAIL)"]


def rate_p2(root: Path) -> list:
    cfg, out = root / "rate-p2.cfg", root / "rate-p2"
    cfg.write_text(RATE_P2_CONFIG, encoding="utf-8")

    def check(rc):
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        gap = json.loads((out / "gap.json").read_text(encoding="utf-8"))
        return (_exit_check(rc) + checks.check_rate(verdict, gap, P, C),
                checks.self_test_rate(verdict, gap, P, C),
                _digest(out / "trace.csv", out / "verdict.json"))

    return [Op("rates", _cli_run(["rates", "--config", str(cfg), "--out", str(out)]),
               check)]


def trace_dense(root: Path) -> list:
    """The dt/2 call is also checked against the trace of the dt call."""
    ops, coarse = [], None
    for dt in TRACE_DENSE_DTS:
        cfg, out = root / f"trace-dense-{dt!r}.cfg", root / f"trace-dense-{dt!r}"
        cfg.write_text(TRACE_DENSE_CONFIG.format(dt=dt, horizon=TRACE_DENSE_HORIZON),
                       encoding="utf-8")

        def check(rc, out=out, dt=dt, coarse=coarse):
            rows = checks.read_trace(out / "trace.csv")
            fails = _exit_check(rc) + checks.check_trace(rows, dt, TRACE_DENSE_HORIZON, P, C)
            missed = checks.self_test_trace(rows, dt, TRACE_DENSE_HORIZON, P, C)
            if coarse is not None:
                coarse_rows = checks.read_trace(coarse / "trace.csv")
                fails += checks.check_dt_pair(coarse_rows, rows)
                missed += checks.self_test_dt_pair(coarse_rows, rows)
            return fails, missed, _digest(out / "trace.csv")

        ops.append(Op(f"evolve-dt{dt!r}",
                      _cli_run(["evolve", "--config", str(cfg), "--out", str(out)]),
                      check))
        coarse = out
    return ops


def extinction(root: Path) -> list:
    def run():
        setup = fdelab.prepare(
            fdelab.DomainSpec(geometry="interval", nodes=EXTINCTION_NODES),
            fdelab.Exponents.make(p=P, c=C))
        return fdelab.run_extinction_pipeline(
            setup, dt_original=EXTINCTION_DT_ORIGINAL, rerun_dt=EXTINCTION_RERUN_DT)

    def check(res):
        entropies = [r.E_nl for r in res.closed_loop_reports]
        return (checks.check_extinction(res.T_est, entropies, P, C),
                checks.self_test_extinction(res.T_est, entropies, P, C),
                float(res.T_est).hex())

    return [Op("extinction-pipeline", run, check)]


WORKLOADS = {"rate-p2": rate_p2, "trace-dense": trace_dense, "extinction": extinction}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--spawned-at", required=True, type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.dir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](args.dir)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "op_names": [op.name for op in ops]}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        values, wall = [], 0.0
        with Sampler() as host:
            for op in ops:
                t0 = time.perf_counter()
                try:
                    values.append((op.run(), None))
                except Exception:
                    values.append((None, traceback.format_exc()))
                wall += time.perf_counter() - t0
        result["wall_s"] = wall
        result["ref_s"] = host.kernel_time()
        result["ref_samples"] = len(host.samples)
        result["ref_back_to_back_s"] = reference_time()
        result["ref_in_round_over_back_to_back"] = result["ref_s"] / result["ref_back_to_back_s"]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["ops"] = [_checked(op, value, error) for op, (value, error) in zip(ops, values)]
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(args.dir / "spans.csv")
    (args.dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def _checked(op: Op, value, error) -> dict:
    rec = {"name": op.name, "error": error, "fails": [], "self_test": [], "digest": None}
    if error is None:
        try:
            rec["fails"], rec["self_test"], rec["digest"] = op.check(value)
        except Exception:
            rec["fails"] = [f"check raised: {traceback.format_exc()}"]
    return rec


if __name__ == "__main__":
    sys.exit(main())
