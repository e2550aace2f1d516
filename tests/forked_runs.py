"""Runs of flow.evolve on both of its sampling paths, in-process and in a
forked child, for tests/test_forked_sampler.py.

    python tests/forked_runs.py SCENARIO

Run it in a fresh interpreter whose BLAS keeps no thread pool
(OPENBLAS_NUM_THREADS=1), so that the process can fork without a thread
but its own.  Each scenario chooses the path by setting flow._forks, as a
test does with monkeypatch, and prints one JSON object of what it saw.
"""

import hashlib
import json
import os
import sys

import numpy as np

import fdelab as F
from fdelab import flow


def on_path(forked: bool, run):
    """run() with evolve's path choice held at forked, and whether this
    process has a child left after it returned or raised."""
    choice, flow._forks = flow._forks, lambda: forked
    try:
        try:
            out = run()
        except Exception as exc:
            out = {"error": [type(exc).__name__, str(exc)]}
    finally:
        flow._forks = choice
    try:
        os.waitpid(-1, os.WNOHANG)
        out["child_left"] = True
    except ChildProcessError:
        out["child_left"] = False
    return out


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def interval(p, n=129, modes=8):
    return F.prepare(F.DomainSpec(geometry="interval", nodes=n),
                     F.Exponents.make(p=p, c=1.0), modes)


def ball(p, n=129):
    return F.prepare(F.DomainSpec(geometry="ball", nodes=n, dimension=3),
                     F.Exponents.make(p=p, c=1.0))


def rescaled(setup, **kw):
    """run_rescaled from V + 0.1 phi_2 to t = 1, sampled every step of
    5e-3: 200 samples, 4 blocks at n = 129."""
    def run():
        traj, reports = F.run_rescaled(
            setup, F.mode_perturbed_field(setup, [(2, 0.1)]), horizon=1.0,
            dt=5e-3, cadence=5e-3, **kw)
        return {"rows": digest(reports.data, traj.sample_times, traj.sups),
                "samples": len(reports), "buffer": len(reports.data.base)}
    return run


def clock_matched(setup):
    def run():
        res = F.run_nonlinear_rate_case(
            setup, F.mode_perturbed_field(setup, [(2, 0.1)]), horizon=1.0,
            dt=5e-3, cadence=5e-3, want_fit=False)
        return {"rows": digest(res.reports.data, res.calibration.sigmas),
                "samples": len(res.reports)}
    return run


def linearized(setup):
    def run():
        tr = F.run_linearized(setup, setup.eigs.mode(2) + 0.5 * setup.eigs.mode(3),
                              horizon=1.0, dt=5e-3, cadence=5e-3)
        return {"rows": digest(tr.times, tr.E_lin, tr.I_lin, tr.coefficients),
                "samples": len(tr.times)}
    return run


def entropy_sampler(setup, positive_until=np.inf):
    """entropy_report's sampler, of -v for samples after positive_until."""
    weights = F.ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                   setup.eigs, setup.gap)

    def sampler(times, v):
        if times[-1] > positive_until:
            v = -v
        return F.entropy_report(weights, v, times).data
    return sampler


def flipped_after(samples):
    """A rescale rule that negates the state after the given samples."""
    signs = iter([1.0] * (samples + 1) + [-1.0])
    return lambda field: next(signs, 1.0)


def evolved(setup, horizon=1.0, step=5e-3, sampler=None, flip=None):
    def run():
        traj = F.evolve(setup.grid, setup.exps, F.FlowState(
            kind="rescaled", field=F.mode_perturbed_field(setup, [(2, 0.1)]),
            time=0.0), horizon=horizon, dt=step, sample_every=step,
            sampler=sampler or entropy_sampler(setup),
            rescale=flip and flipped_after(flip))
        return {"rows": digest(traj.diagnostics, traj.sample_times),
                "shape": traj.diagnostics.shape}
    return run


def both(run):
    return {"in_process": on_path(False, run), "forked": on_path(True, run)}


def pids(setup, **kw):
    """The processes that sampled a run whose path choice allows a fork."""
    def run():
        traj = F.evolve(setup.grid, setup.exps, F.FlowState(
            kind="rescaled", field=setup.profile.V.copy(), time=0.0),
            sample_every=5e-3, dt=5e-3,
            sampler=lambda times, v: np.full((len(times), 1), os.getpid()),
            **kw)
        return {"sampled_here": sorted(set(traj.diagnostics[:, 0].tolist()))
                == [os.getpid()]}
    return on_path(True, run)


def scenario(name):
    if name == "host":
        return {"forks": flow._forks(),
                "cpus": len(os.sched_getaffinity(0)),
                "threads": len(os.listdir("/proc/self/task"))}
    if name == "entropy":
        return {"interval_p1.5": both(rescaled(interval(1.5))),
                "ball_N3": both(rescaled(ball(2.0))),
                "clock_matched": both(clock_matched(interval(2.0)))}
    if name == "linearized":
        return both(linearized(interval(2.0)))
    if name == "paths":
        s = interval(2.0)
        return {"no_stop": pids(s, horizon=1.0),
                "stop": pids(s, horizon=1.0, stop=lambda traj: False),
                "one_block": pids(s, horizon=0.3)}
    if name == "errors":
        # at n = 129: the sampler fails on the second block of 63, and the
        # march after the 100th sample, in the second block
        s = interval(2.0)
        return {"sampler": both(evolved(
                    s, sampler=entropy_sampler(s, positive_until=0.6))),
                "march": both(evolved(s, flip=100))}
    if name == "n8":
        # one block is 1,024 rows of 11 floats (90 KB), more than a pipe holds
        s = interval(2.0, n=8, modes=2)
        return both(evolved(s, horizon=3.0, step=1e-3))
    raise SystemExit(f"unknown scenario {name!r}")


if __name__ == "__main__":
    print(json.dumps(scenario(sys.argv[1])))
