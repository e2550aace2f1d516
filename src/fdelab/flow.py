"""Time integration of the three flows.

original:    u_t = lap u^m                      (extinction in finite time)
rescaled:    d/dt v^p = lap v + c v^p           (stationary profile V)
linearized:  p V^(p-1) f_t = lap f + c p V^(p-1) f

All steppers are implicit Euler (its rate for a linear mode: discrete_rate
per step, sample_rate per sample of a run), in whole steps of dt on the
sample lattice: a cadence of k dt is k steps of dt, another ends in one
remainder step.  The two nonlinear flows share one stepper for
w_t = lap w^m + c w: the rescaled flow is advanced in the conserved variable
w = v^p, which has a maximum principle, and returns v = w^m; the original
flow is c = 0, w = u.  The stepper uses damped Newton with a
positivity-preserving line search (iterates are clipped at 1e-300 only
inside the search; an accepted step must be strictly positive), and solves
each tridiagonal Newton system directly with LAPACK dgtsv.  Near the
extinction profile both nonlinear flows are smooth in time, so march starts
each step's Newton iteration from the linear extrapolation of the last two
accepted fields (floored at half the current field), which lies O(dt^2)
from the root instead of O(dt); the step solves the same equation to the
same residual, and a step that fails from that start is retried from the
old state before dt is halved.  A step's fixed cost is mostly Python, not
its LAPACK solve, so the stepper makes no array pass that changes no bit,
reads each max and min as the element at argmax / argmin (grid.largest,
grid.smallest) and passes its constant operands as 0-d arrays (see
_implicit_euler and march).

A run keeps no field beyond one block of samples and no Python object per
sample or step: typed columns of each sample's time and sup|field| and each
step's dt and Newton count, and one float buffer for the sampler's rows.
evolve is the one loop that takes a run to its horizon, halting early after
a sample where a stop rule holds, and samples a run of many blocks with no
stop in a forked child process while it marches, where the host allows; a
caller that needs the fields iterates march instead.  A run may carry a
rescale rule, which march applies at t = 0 and after every sample (the
clock-matched rescaled run of fdelab.pipeline).

Original runs stop near extinction (default sup u < 1e-6 sup u0); the
extinction time itself is always extrapolated from the exact linearity of
sup(u)^(1-m) in time, never simulated to zero, over the samples with sup u
above EXTINCTION_FIT_FLOOR sup u0, so a run marched for that fit can stop
at the first sample below it.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, StepFailure
from .grid import Grid, apply_A, largest, smallest, solve_tridiagonal
from .stationary import Exponents

_FLOOR = 1e-300
# the step's constant array operands as 0-d float64 arrays: numpy converts
# a Python float operand on every call, and these on none, with the same bits
_FLOOR_0D = np.array(_FLOOR)
_HALF_0D = np.array(0.5)
_EPS = np.finfo(float).eps
_DT_MIN = 1e-8       # evolve halves dt on StepFailure down to this,
_DT_GROW = 1.2       # then regrows it by this factor, up to the given dt,
_EASY_ITERS = 3      # after each step of at most this many Newton iterations
_MAX_ITERS = 30      # Newton iterations before a step fails
# Field values evolve stacks for one sampler call: a (B, n) block is
# then at most 64 KB, under glibc's 128 KB mmap threshold, so the stacks it
# forms come from the heap; 8,192 was the fastest of 1,024 to 32,768 on two
# `fdelab evolve` runs at n = 1024, sampled every step
_BLOCK_VALUES = 8192
# Samples a run with a stop rule records at most at once: the rule reads the
# rows recorded so far, so the run stops within this many samples of the one
# that made it true (the block _BLOCK_VALUES gives at n = 1024); smaller
# blocks cost more per row, so a run without a stop keeps the larger ones
_STOP_BLOCK = 8
# sup u / sup u0 at and below which estimate_extinction_time fits no sample
EXTINCTION_FIT_FLOOR = 1e-3
# the sample lattice's relative tolerance: a horizon (time left to a sample)
# within it of whole cadences (steps of dt) is that many of them
LATTICE_TOL = 1e-9


@dataclass
class FlowState:
    kind: str            # "original" | "rescaled" | "linearized"
    field: np.ndarray
    time: float
    newton_iters: int = 0

    def __post_init__(self):
        if self.kind not in ("original", "rescaled", "linearized"):
            raise ValueError(f"unknown flow kind {self.kind!r}")


@dataclass
class Trajectory:
    """Per sample its time and sup|field| (8 B each), per step its dt
    (8 B) and Newton count (2 B), and the sampler's rows recorded so far, a
    view of evolve's buffer.  No field is kept: march yields the fields."""

    kind: str
    initial_sup: float                          # sup|field| at time 0
    sample_times: array = field(default_factory=lambda: array("d"))
    sups: array = field(default_factory=lambda: array("d"))     # sup|field|
    diagnostics: np.ndarray | None = None       # (samples, W), None before any
    dt_history: array = field(default_factory=lambda: array("d"))
    newton_history: array = field(default_factory=lambda: array("H"))

    def sup_norms(self) -> np.ndarray:
        return np.array(self.sups, dtype=float)

    def step_summary(self) -> dict:
        """Step statistics for the trajectory metadata JSON; newton_hist[i]
        counts the accepted steps that took i Newton iterations."""
        dts = np.asarray(self.dt_history, dtype=float)
        its = np.asarray(self.newton_history, dtype=float)
        return {
            "kind": self.kind,
            "steps": int(dts.size),
            "samples": len(self.sample_times),
            "dt_min": float(dts.min()) if dts.size else None,
            "dt_max": float(dts.max()) if dts.size else None,
            "newton_total": int(its.sum()) if its.size else 0,
            "newton_max": int(its.max()) if its.size else 0,
            "newton_hist": np.bincount(its.astype(int)).tolist(),
        }


_rows = (None, None, None)   # (grid, dt, dt * the three diagonals of -lap)


def _dt_rows(grid: Grid, dt: float):
    """dt times the sub, main and super diagonals of -lap, formed once per
    (grid, dt): march steps whole dt, so a run forms them once, and again
    after a remainder step or a dt halving.  The key holds the grid itself,
    so another grid with the same dt never reads these rows."""
    global _rows
    if _rows[0] is not grid or _rows[1] != dt:
        _rows = (grid, dt, (dt * grid.neglap_lower, dt * grid.neglap_diag,
                            dt * grid.neglap_upper))
    return _rows[2]


def _residual(grid: Grid, w: np.ndarray, w_old: np.ndarray, dt: float,
              m: float, c: float):
    """(F(w), w^m) for F(w) = w - dt (lap w^m + c w) - w_old, formed in place
    as ((A w^m / qw - c w) dt + w) - w_old (see _implicit_euler)."""
    wm = w ** m
    r = apply_A(grid, wm)
    r /= grid.quad_weights
    if c:
        r -= c * w
    r *= dt
    r += w
    r -= w_old
    return r, wm


def _accepted(x: np.ndarray, xm: np.ndarray, iters: int):
    if smallest(x) <= _FLOOR * 10:
        raise NumericalFailure("converged step is not strictly positive")
    return x, xm, iters


def _implicit_euler(grid: Grid, w_old: np.ndarray, dt: float, m: float, c: float,
                    w_max: float, start: np.ndarray | None = None):
    """One implicit Euler step of w_t = lap w^m + c w by damped Newton.

    Solves F(w) = w - dt (lap w^m + c w) - w_old = 0, starting from start (a
    positive guess, e.g. extrapolated from earlier steps) or else from w_old,
    floored at 1e-300 (where w^(m-1) is finite), and iterating to the rounding
    floor.  The start moves only the first iterate; everything below depends
    on w_old alone, so a step from any start solves the same equation to the
    same residual, or ends in StepFailure (march then retries it from w_old).
    scale = w_max + 4 dt w_max^m / h^2 + dt c w_max (w_max = sup w_old, a
    Python float) estimates the terms composing F, so that eps * scale is the
    evaluation noise: convergence is declared below a small multiple of it,
    and stagnation (no line-search progress) is accepted as converged while
    the residual sits within a larger multiple.  Stopping at a loose absolute
    tolerance instead would inject per-step noise into the entropy traces
    (visible for large-amplitude profiles at p near 1).  Returns
    (w, w^m, Newton iterations), w^m as the last residual formed it.

    F and the Jacobian are formed in place with commuted operands, F as
    ((A w^m / qw - c w) dt + w) - w_old (lap = -A / qw), and the Newton system
    is solved for s = -step; each has the bits of the written form, as
    round-to-nearest is odd-symmetric and dgtsv, which pivots on the matrix
    alone, is odd in its right-hand side (a zero's sign is lost in + w > 0).
    scale, its floor and guard and the residual norms are Python floats, the
    norms and w_max read by grid.largest (the element at argmax, which is
    ndarray.max's value; a NaN still propagates); Python's float ** and
    numpy's scalar ** both call C pow, so scale has numpy's bits.
    """
    if not math.isfinite(w_max):   # w_old - w_old would form inf - inf
        raise NumericalFailure("implicit step residual is not finite")
    scale = w_max + 4.0 * dt * w_max ** m / grid.h ** 2 + dt * c * w_max
    floor = 2.0 * _EPS * scale
    guard = 512.0 * _EPS * scale
    # Jacobian I - dt (-lap diag(m w^(m-1)) + c): dt rows formed once per dt
    dt_lower, dt_diag, dt_upper = _dt_rows(grid, dt)
    one_minus = 1.0 - dt * c
    m_minus = m - 1.0

    x = np.maximum(w_old if start is None else start, _FLOOR_0D)
    res, xm = _residual(grid, x, w_old, dt, m, c)
    rnorm = largest(np.abs(res))
    if not math.isfinite(rnorm):
        raise NumericalFailure("implicit step residual is not finite")
    for it in range(1, _MAX_ITERS + 1):
        if rnorm <= floor:
            return _accepted(x, xm, it - 1)
        dmu = x ** m_minus
        dmu *= m
        diag = dt_diag * dmu
        diag += one_minus
        s = solve_tridiagonal(dt_lower * dmu[:-1], diag, dt_upper * dmu[1:],
                              res)                      # s = -step
        lam = 1.0
        while lam >= 1e-12:
            xt = x - (s if lam == 1.0 else lam * s)
            np.maximum(xt, _FLOOR_0D, out=xt)
            rt, xtm = _residual(grid, xt, w_old, dt, m, c)
            rtn = largest(np.abs(rt))
            if rtn < rnorm:
                x, xm, res, rnorm = xt, xtm, rt, rtn
                break
            if lam == 1.0 and rnorm <= guard:
                return _accepted(x, xm, it)   # stagnation at the rounding floor
            lam *= 0.5
        else:
            if rnorm <= guard:
                return _accepted(x, xm, it)
            raise StepFailure(f"line search stalled (residual {rnorm:.3e})")
    if rnorm <= guard:
        return _accepted(x, xm, _MAX_ITERS)
    raise StepFailure(f"Newton did not converge (residual {rnorm:.3e})")


def step_rescaled(grid: Grid, exps: Exponents, state: FlowState, dt: float,
                  start: np.ndarray | None = None) -> FlowState:
    """One implicit Euler step of w_t = lap w^m + c w in w = v^p; start, if
    given, is a positive guess of the new v for Newton to begin from."""
    if state.kind != "rescaled":
        raise ValueError("step_rescaled needs a rescaled state")
    v = grid.check_field(state.field)
    if smallest(v) <= 0:
        raise NumericalFailure("rescaled state must be positive")
    w_old = v ** exps.p
    _, v_new, iters = _implicit_euler(grid, w_old, dt, exps.m, exps.c,
                                      largest(w_old),
                                      None if start is None else start ** exps.p)
    return FlowState(kind="rescaled", field=v_new, time=state.time + dt,
                     newton_iters=iters)


def step_original(grid: Grid, exps: Exponents, state: FlowState, dt: float,
                  start: np.ndarray | None = None) -> FlowState:
    """One implicit Euler step of u_t = lap u^m: the stepper above with c = 0;
    start, if given, is a positive guess of the new u."""
    if state.kind != "original":
        raise ValueError("step_original needs an original state")
    u_old = grid.check_field(state.field)
    if smallest(u_old) < 0:
        raise NumericalFailure("original state must be nonnegative")
    u_max = largest(u_old)
    if u_max == 0.0:
        return FlowState(kind="original", field=u_old.copy(), time=state.time + dt)
    u_new, _, iters = _implicit_euler(grid, u_old, dt, exps.m, 0.0, u_max,
                                      start)
    return FlowState(kind="original", field=u_new, time=state.time + dt,
                     newton_iters=iters)


def step_linearized(grid: Grid, W, exps: Exponents, state: FlowState,
                    dt: float) -> FlowState:
    """One implicit Euler step of p V^(p-1) f_t = lap f + c p V^(p-1) f.

    The step matrix p W + dt (A - c p W), W = quad_weights * V^(p-1) the
    setup's EigenSystem.W, is singular at dt = T (the lowest weighted mode);
    dt is rejected well before that pole.
    """
    if state.kind != "linearized":
        raise ValueError("step_linearized needs a linearized state")
    if dt >= 0.5 * exps.T:
        raise ValueError(f"dt = {dt} too close to the spectral pole at T = {exps.T}")
    f = grid.check_field(state.field)
    W = grid.check_field(W)
    p, c = exps.p, exps.c
    off = dt * grid.lap_offdiag
    f_new = solve_tridiagonal(off, p * W + dt * (grid.lap_diag - c * p * W),
                              off.copy(), p * W * f)
    return FlowState(kind="linearized", field=f_new, time=state.time + dt)


def march(grid: Grid, exps: Exponents, state: FlowState, dt: float, targets,
          W=None, traj: Trajectory | None = None, rescale=None):
    """Advance state to each of the increasing times in targets and yield it
    there.  Steps are dt long, except that a step ending in StepFailure is
    retried at half the dt (down to _DT_MIN), which then regrows after easy
    steps, never beyond dt.  A step within LATTICE_TOL of the time left to a
    target is whole and ends there; only a shorter time left is a remainder
    step.  A nonlinear step after an accepted one starts Newton from the
    extrapolation f + (dt_eff/dt_prev) (f - f_prev) floored at f/2; if that
    step fails, the same dt is retried without it before it is halved.
    Each accepted step's dt and Newton count are appended to traj's
    histories, if traj is given.

    rescale(field), if given, returns a factor sigma by which the state is
    multiplied before the march to each target (at the start, and after
    each yielded sample), and so is f_prev, so that the extrapolated start
    survives.  The products are new arrays, as the caller may still hold
    the yielded field."""
    dt_now = dt
    prev = None         # (field, dt) before the last accepted step
    for target in targets:
        if rescale is not None:
            sigma = rescale(state.field)
            state = FlowState(kind=state.kind, field=sigma * state.field,
                              time=state.time)
            if prev is not None:
                prev = (sigma * prev[0], prev[1])
        while (left := target - state.time) > max(LATTICE_TOL * dt_now,
                                                  1e-12 * max(1.0, target)):
            clipped = left < (1.0 - LATTICE_TOL) * dt_now
            dt_eff = left if clipped else dt_now
            start = None
            if prev is not None and state.kind != "linearized":
                f, (f_prev, dt_prev) = state.field, prev
                # in place with commuted operands, and no multiplication by
                # the ratio 1.0 of whole steps (x * 1.0 is x): the same bits
                start = f - f_prev
                ratio = dt_eff / dt_prev
                if ratio != 1.0:
                    start *= ratio
                start += f
                np.maximum(start, _HALF_0D * f, out=start)
            try:
                if state.kind == "linearized":
                    new_state = step_linearized(grid, W, exps, state, dt_eff)
                else:
                    step = (step_rescaled if state.kind == "rescaled"
                            else step_original)
                    new_state = step(grid, exps, state, dt_eff, start=start)
            except StepFailure:
                if start is not None:
                    prev = None
                    continue
                if dt_now <= _DT_MIN:
                    raise
                dt_now = max(_DT_MIN, dt_now / 2.0)
                continue
            prev = (state.field, dt_eff)
            state = new_state
            if traj is not None:
                traj.dt_history.append(dt_eff)
                traj.newton_history.append(state.newton_iters)
            if (dt_now != dt and not clipped
                    and state.newton_iters <= _EASY_ITERS):
                dt_now = min(dt, dt_now * _DT_GROW)
        state.time = target
        yield state


def sample_count(horizon: float, cadence: float) -> int:
    """How many of the sample times (i + 1) cadence, i = 0, 1, ..., lie
    within the horizon (up to LATTICE_TOL and an absolute 1e-12)."""
    n = int(np.floor(horizon / cadence + LATTICE_TOL))
    while n and n * cadence > horizon + 1e-12:
        # past 2**53, n - 1 is the same float as n: step to the float below
        n = min(n - 1, int(np.nextafter(float(n), 0.0)))
    return n


def lattice_step(dt: float, cadence: float) -> float:
    """The longest step of a run stepping dt and sampled every cadence:
    march steps whole dt, and a cadence shorter than dt in one step (a
    cadence within LATTICE_TOL below dt as dt, the same to that tolerance)."""
    return min(dt, cadence)


def discrete_rate(mu: float, dt: float) -> float:
    """Implicit Euler's decay rate at step dt of a linear mode f_t = -mu f:
    each step divides f by 1 + dt mu (singular at dt mu = -1); mu at dt = 0."""
    return np.log1p(dt * mu) / dt if dt > 0 else mu


def sample_rate(mu: float, dt: float, cadence: float) -> float:
    """Implicit Euler's decay rate of f_t = -mu f over one sample of a run
    stepping dt and sampled every cadence.  march steps a cadence of at most
    dt at once, and a longer one k = sample_count(cadence, dt) times dt and
    then the remainder r = cadence - k dt, if r is more than LATTICE_TOL dt:
    the rate is (k log1p(dt mu) + log1p(r mu)) / cadence, or discrete_rate's
    bits where every step has one length (mu at dt = 0)."""
    if cadence <= dt or dt <= 0:
        return discrete_rate(mu, lattice_step(dt, cadence))
    k = sample_count(cadence, dt)
    r = cadence - k * dt
    if r <= LATTICE_TOL * dt:     # whole steps of dt
        return discrete_rate(mu, dt)
    return (k * np.log1p(dt * mu) + np.log1p(r * mu)) / cadence


def _forks() -> bool:
    """Whether this process can sample a run in a forked child while it
    marches: Linux os.fork, at least two CPUs it may run on, and no thread
    but its own (/proc/self/task lists every thread, a BLAS pool's too; a
    child forked from threads can deadlock, and Python 3.12 warns of it);
    False where /proc/self/task cannot be read."""
    try:
        return (sys.platform == "linux" and hasattr(os, "fork")
                and len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except OSError:
        return False


def evolve(grid: Grid, exps: Exponents, initial: FlowState, horizon: float,
           dt: float, sample_every: float, sampler=None, W=None, rescale=None,
           stop=None) -> Trajectory:
    """The flow from initial marched to each sample time (i + 1)
    sample_every within the horizon (see march, which applies the rescale
    rule, if any): its Trajectory.  Each sample's time and sup|field| are
    appended to it, and stop(traj), if given, is called after each sample
    and halts the run after the first where it is true; an original run
    with no stop halts near extinction, once sup|u| < 1e-6 sup|u0|.

    The sampler takes a block, sampler(times, fields) with fields a (B, n)
    stack, and returns a (B, W) float block, one row per sample, that
    depends on (times, fields) alone, as every library sampler's does:
    evolve records up to _BLOCK_VALUES // n samples at once, and at most
    _STOP_BLOCK if given a stop, the last block before it returns or raises,
    into one float buffer whose filled rows traj.diagnostics views.  The
    buffer is sized once to the samples within the horizon if nothing can
    stop the run, and otherwise doubled as needed, up to that count.  A
    sampler that forms each row along the last axis, as
    diagnostics.entropy_report does, gives rows that do not depend on the
    block, so the buffer does not either.

    A run of more than one block with no stop of the caller's (whose rule
    would read rows while the run marches) samples in a forked child
    process (forked.ChildSampler) if this process can fork one (_forks),
    and in-process if the fork fails: the child computes a block's rows on
    the same bytes while the parent marches the next, and evolve writes
    them in order and reaps the child before it returns.  A block whose
    child ended before its rows is sampled here, so a sampler's error is
    raised as in-process."""
    if initial.kind == "linearized" and W is None:
        raise ValueError("a linearized run needs the weight W")
    per_block = max(1, _BLOCK_VALUES // grid.n)
    if stop is not None:     # the caller's: the default below reads no rows
        per_block = min(per_block, _STOP_BLOCK)
    cadence = float(sample_every)
    total = sample_count(horizon, cadence)
    traj = Trajectory(kind=initial.kind,
                      initial_sup=largest(np.abs(initial.field)))
    child = None
    if sampler is not None and stop is None and total > per_block and _forks():
        from .forked import ChildSampler   # only a run that forks loads it

        try:
            child = ChildSampler(sampler, grid.n, per_block)
        except OSError:     # no process to fork (EAGAIN, ENOMEM): sample here
            pass
    if stop is None and initial.kind == "original":
        # near-extinction stop: extrapolate, never simulate the degenerate limit
        level = 1e-6 * traj.initial_sup
        stop = lambda traj: traj.sups[-1] < level
    buf, times, fields = np.empty((0, 0)), [], []   # samples not yet recorded

    def write(rows):
        """Write rows after those recorded, growing the buffer when full."""
        nonlocal buf
        done = traj.diagnostics
        start = 0 if done is None else len(done)
        end = start + len(rows)
        if end > len(buf):
            size = (total if stop is None
                    else min(total, max(end, 2 * len(buf))))
            buf = np.empty((size, rows.shape[1]))
            if done is not None:
                buf[:start] = done
        buf[start:end] = rows
        traj.diagnostics = buf[:end]

    def record(last=False):
        """Record the samples not yet recorded: in-process, write their
        rows; forked, write the rows of the block sent before, send theirs,
        and, if last, write those too."""
        nonlocal times, fields
        # emptied before the call: a sampler that raises leaves nothing
        # for finally to record twice
        block_times, block_fields, times, fields = times, fields, [], []
        if child is None:
            if sampler is not None and block_times:
                write(sampler(block_times, np.array(block_fields)))
            return
        if child.pending:
            write(child.receive())
        if block_times:
            child.send(block_times, block_fields)
        if last and child.pending:
            write(child.receive())

    try:
        for state in march(grid, exps, initial, dt,
                           ((i + 1) * cadence for i in range(total)), W, traj,
                           rescale):
            traj.sample_times.append(state.time)
            traj.sups.append(largest(np.abs(state.field)))
            times.append(state.time)
            fields.append(state.field)
            if len(times) == per_block:
                record()
            if stop is not None and stop(traj):
                break
    finally:
        try:
            record(last=True)
        finally:
            if child is not None:
                child.close()
    return traj


@dataclass(frozen=True)
class ExtinctionEstimate:
    T_est: float
    window: tuple
    fit_residual: float


def estimate_extinction_time(traj: Trajectory, m: float) -> ExtinctionEstimate:
    """Extrapolate the extinction time from sup(u)^(1-m) versus t, which the
    separate-variables law makes exactly linear.  The fit window keeps samples
    with sup(u) in (EXTINCTION_FIT_FLOOR, 0.8) sup(u0)."""
    if traj.kind != "original":
        raise ValueError("extinction estimate needs an original-flow trajectory")
    times = np.asarray(traj.sample_times)
    sups = traj.sup_norms()
    lo, hi = EXTINCTION_FIT_FLOOR * traj.initial_sup, 0.8 * traj.initial_sup
    sel = (sups > lo) & (sups < hi)
    if sel.sum() < 10 or sups.min() > hi:
        raise NumericalFailure(
            f"only {int(sel.sum())} samples inside the fit window")
    y = sups[sel] ** (1.0 - m)
    t = times[sel]
    A = np.vstack([t, np.ones(t.size)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit_res = float(np.sqrt(res[0] / t.size)) if res.size else 0.0
    if slope >= 0:
        raise NumericalFailure("sup norm is not decaying over the fit window")
    return ExtinctionEstimate(T_est=float(-intercept / slope),
                              window=(float(t[0]), float(t[-1])),
                              fit_residual=fit_res)

