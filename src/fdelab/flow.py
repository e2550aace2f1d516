"""Time integration of the three flows.

original:    u_t = lap u^m                      (extinction in finite time)
rescaled:    d/dt v^p = lap v + c v^p           (stationary profile V)
linearized:  p V^(p-1) f_t = lap f + c p V^(p-1) f

All steppers are implicit Euler (its rate for a linear mode: discrete_rate
per step, sample_rate per sample of a run).
The two nonlinear flows share one stepper for w_t = lap w^m + c w: the
rescaled flow is advanced in the conserved variable w = v^p, which has a
maximum principle, and returns v = w^m; the original flow is c = 0, w = u.
The stepper uses damped Newton with a positivity-preserving line search
(iterates are clipped at 1e-300 only inside the search; an accepted step must
be strictly positive), and solves each tridiagonal Newton system directly with
LAPACK dgtsv.  Near the extinction profile both nonlinear flows are smooth in
time, so march starts each step's Newton iteration from the linear
extrapolation of the last two accepted fields (floored at half the current
field), which lies O(dt^2) from the root instead of O(dt); the step solves the
same equation to the same residual, and a step that fails from that start is
retried from the old state before dt is halved.

A Run keeps no field beyond one block of samples: per sample (i + 1) cadence
it records the time, sup|field| and the sampler's output, which the sampler
forms for a block of samples at once.  Run.to_horizon is its one march loop:
it marches the run on to a horizon, halting early at a sample where a stop
rule holds, so that the run can be stopped and resumed; evolve is a Run taken
there.  A caller that needs the fields iterates march instead.  A run may
carry a rescale rule, which march applies at t = 0 and after every sample
(the clock-matched rescaled run of fdelab.pipeline).

Original runs stop near extinction (default sup u < 1e-6 sup u0); the
extinction time itself is always extrapolated from the exact linearity of
sup(u)^(1-m) in time, never simulated to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from .errors import NumericalFailure, StepFailure
from .grid import Grid, apply_A, solve_tridiagonal
from .stationary import Exponents

_FLOOR = 1e-300
_EPS = np.finfo(float).eps
_DT_MIN = 1e-8       # evolve halves dt on StepFailure down to this,
_DT_GROW = 1.2       # then regrows it by this factor, up to the given dt,
_EASY_ITERS = 3      # after each step of at most this many Newton iterations
_MAX_ITERS = 30      # Newton iterations before a step fails
# Field values Run.to_horizon stacks for one sampler call: a (B, n) block is
# then at most 64 KB, under glibc's 128 KB mmap threshold, so the stacks it
# forms come from the heap; 8,192 was the fastest of 1,024 to 32,768 on two
# `fdelab evolve` runs at n = 1024, sampled every step
_BLOCK_VALUES = 8192


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
    """Per sample: time, sup|field| and sampler output; per step: dt and
    Newton count.  No field is kept: march yields the fields."""

    kind: str
    initial_sup: float                                  # sup|field| at time 0
    sample_times: list = field(default_factory=list)
    sups: list = field(default_factory=list)            # sup|field| at each sample
    diagnostics: list = field(default_factory=list)     # sampler outputs, if any
    dt_history: list = field(default_factory=list)
    newton_history: list = field(default_factory=list)

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


_rows = None     # (grid, dt, dt * the three diagonals of -lap) of the last step


def _dt_rows(grid: Grid, dt: float):
    """dt times the sub, main and super diagonals of -lap, formed once per
    (grid, dt): march keeps dt for many steps and changes it only on a
    clipped, halved or regrown step.  The key holds the grid itself, so a
    different grid with the same dt never reads another grid's rows."""
    global _rows
    rows = _rows
    if rows is None or rows[0] is not grid or rows[1] != dt:
        rows = (grid, dt, dt * grid.neglap_lower, dt * grid.neglap_diag,
                dt * grid.neglap_upper)
        _rows = rows
    return rows[2:]


def _implicit_euler(grid: Grid, w_old: np.ndarray, dt: float, m: float, c: float,
                    w_max: float, start: np.ndarray | None = None):
    """One implicit Euler step of w_t = lap w^m + c w by damped Newton.

    Solves F(w) = w - dt (lap w^m + c w) - w_old = 0, starting from start (a
    positive guess, e.g. extrapolated from earlier steps) or else from w_old,
    floored at 1e-300 (where w^(m-1) is finite), and iterating to the rounding
    floor.  The start moves only the first iterate; everything below depends
    on w_old alone, so a step from any start solves the same equation to the
    same residual, or ends in StepFailure (march then retries it from w_old).
    scale = w_max + 4 dt w_max^m / h^2 + dt c w_max (w_max = sup w_old)
    estimates the terms composing F, so that eps * scale is the evaluation
    noise: convergence is declared below a small multiple of it, and
    stagnation (no line-search progress) is accepted as converged while the
    residual sits within a larger multiple.  Stopping at a loose absolute
    tolerance instead would inject per-step noise into the entropy traces
    (visible for large-amplitude profiles at p near 1).  Returns
    (w, w^m, Newton iterations), w^m as the last residual formed it.

    F is formed in place as ((A w^m / qw - c w) dt + w) - w_old, with
    lap = -A / qw.  That is the written w - dt (-A w^m / qw + c w) - w_old
    bit for bit: round-to-nearest is odd-symmetric, so the bracket and its dt
    multiple are the exact negatives of the written ones, adding w is
    subtracting the written term, and where that term is a zero its sign is
    lost in + w, as w > 0; skipping - c w at c = 0 moves only such a sign.
    The Jacobian and the line search are likewise formed in place with
    commuted operands, and 1.0 * step is step.
    """
    scale = w_max + 4.0 * dt * w_max ** m / grid.h ** 2 + dt * c * w_max
    floor = 2.0 * _EPS * scale
    guard = 512.0 * _EPS * scale
    qw = grid.quad_weights
    # Jacobian I - dt (-lap diag(m w^(m-1)) + c): dt rows formed once per dt
    dt_lower, dt_diag, dt_upper = _dt_rows(grid, dt)
    one_minus = 1.0 - dt * c

    def residual(w):
        wm = w ** m
        r = apply_A(grid, wm)
        r /= qw
        if c:
            r -= c * w
        r *= dt
        r += w
        r -= w_old
        return r, wm

    def accept(iters):
        if x.min() <= _FLOOR * 10:
            raise NumericalFailure("converged step is not strictly positive")
        return x, xm, iters

    x = np.maximum(w_old if start is None else start, _FLOOR)
    res, xm = residual(x)
    rnorm = np.abs(res).max()
    if not np.isfinite(rnorm):
        raise NumericalFailure("implicit step residual is not finite")
    for it in range(1, _MAX_ITERS + 1):
        if rnorm <= floor:
            return accept(it - 1)
        dmu = x ** (m - 1.0)
        dmu *= m
        diag = dt_diag * dmu
        diag += one_minus
        step = solve_tridiagonal(dt_lower * dmu[:-1], diag, dt_upper * dmu[1:],
                                 np.negative(res, out=res))
        lam = 1.0
        while lam >= 1e-12:
            xt = x + (step if lam == 1.0 else lam * step)
            np.maximum(xt, _FLOOR, out=xt)
            rt, xtm = residual(xt)
            rtn = np.abs(rt).max()
            if rtn < rnorm:
                x, xm, res, rnorm = xt, xtm, rt, rtn
                break
            if lam == 1.0 and rnorm <= guard:
                return accept(it)      # stagnation at the rounding floor
            lam *= 0.5
        else:
            if rnorm <= guard:
                return accept(it)
            raise StepFailure(f"line search stalled (residual {rnorm:.3e})")
    if rnorm <= guard:
        return accept(_MAX_ITERS)
    raise StepFailure(f"Newton did not converge (residual {rnorm:.3e})")


def step_rescaled(grid: Grid, exps: Exponents, state: FlowState, dt: float,
                  start: np.ndarray | None = None) -> FlowState:
    """One implicit Euler step of w_t = lap w^m + c w in w = v^p; start, if
    given, is a positive guess of the new v for Newton to begin from."""
    if state.kind != "rescaled":
        raise ValueError("step_rescaled needs a rescaled state")
    v = grid.check_field(state.field)
    if v.min() <= 0:
        raise NumericalFailure("rescaled state must be positive")
    w_old = v ** exps.p
    _, v_new, iters = _implicit_euler(grid, w_old, dt, exps.m, exps.c,
                                      w_old.max(),
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
    if u_old.min() < 0:
        raise NumericalFailure("original state must be nonnegative")
    u_max = u_old.max()
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
    steps, never beyond dt.  Steps are clipped so that each target is hit
    exactly.  A nonlinear step after an accepted one starts Newton from
    f + (dt_eff/dt_prev) (f - f_prev), the linear extrapolation of the last
    two fields, floored at f/2; if that step fails, the same dt is retried
    without the start before it is halved.  Each accepted step's dt and
    Newton count are appended to traj's histories, if traj is given.

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
        while state.time < target - 1e-12 * max(1.0, target):
            dt_eff = min(dt_now, target - state.time)
            clipped = dt_eff < dt_now
            start = None
            if prev is not None and state.kind != "linearized":
                f, (f_prev, dt_prev) = state.field, prev
                # f + (dt_eff/dt_prev) (f - f_prev), in place with commuted
                # operands: the same bits
                start = f - f_prev
                start *= dt_eff / dt_prev
                start += f
                np.maximum(start, 0.5 * f, out=start)
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
            if not clipped and state.newton_iters <= _EASY_ITERS:
                dt_now = min(dt, dt_now * _DT_GROW)
        state.time = target
        yield state


def sample_count(horizon: float, cadence: float) -> int:
    """How many of the sample times (i + 1) cadence, i = 0, 1, ..., lie
    within the horizon (up to a relative 1e-9 and an absolute 1e-12)."""
    n = int(np.floor(horizon / cadence + 1e-9))
    while n and n * cadence > horizon + 1e-12:
        # past 2**53, n - 1 is the same float as n: step to the float below
        n = min(n - 1, int(np.nextafter(float(n), 0.0)))
    return n


def lattice_step(dt: float, cadence: float) -> float:
    """The longest step of a run sampled every cadence: march clips each step
    to the next sample, so it steps at most min(dt, cadence)."""
    return min(dt, cadence)


def discrete_rate(mu: float, dt: float) -> float:
    """Implicit Euler's decay rate at step dt of a linear mode f_t = -mu f:
    each step divides f by 1 + dt mu (singular at dt mu = -1); mu at dt = 0."""
    return np.log1p(dt * mu) / dt if dt > 0 else mu


def sample_rate(mu: float, dt: float, cadence: float) -> float:
    """Implicit Euler's decay rate of f_t = -mu f over one sample of a run
    stepping dt and sampled every cadence.  march steps a cadence of at most
    dt at once, and a longer one k = sample_count(cadence, dt) times dt and
    then the remainder r = cadence - k dt: the rate is (k log1p(dt mu) +
    log1p(r mu)) / cadence, or discrete_rate's bits where every step has one
    length (mu at dt = 0)."""
    if cadence <= dt or dt <= 0:
        return discrete_rate(mu, min(dt, cadence))
    k = sample_count(cadence, dt)
    r = cadence - k * dt
    if r <= 1e-9 * cadence:       # a whole multiple of dt
        return discrete_rate(mu, dt)
    return (k * np.log1p(dt * mu) + np.log1p(r * mu)) / cadence


class Run:
    """A flow from initial, sampled at (i + 1) cadence for ever and marched
    (see march, which applies the rescale rule, if any) only as far as
    to_horizon takes it: each sample's time, sup|field| and sampler output
    are appended to traj.  Stopping and resuming gives the same run, step
    for step, as marching straight through.

    The sampler takes a block, sampler(times, fields) with fields a (B, n)
    stack, and returns its B records; to_horizon records up to
    _BLOCK_VALUES // n samples at once.  A sampler that forms each record
    along the last axis, as diagnostics.entropy_report does, gives records
    that do not depend on the block."""

    def __init__(self, grid: Grid, exps: Exponents, initial: FlowState,
                 dt: float, cadence: float, sampler=None, W=None,
                 rescale=None):
        if initial.kind == "linearized" and W is None:
            raise ValueError("a linearized run needs the weight W")
        # the lattice reads a local cadence: one reading self would make a
        # reference cycle, and a finished run would wait for the collector
        self.cadence = cadence = float(cadence)
        self.sampler = sampler
        self.traj = Trajectory(kind=initial.kind,
                               initial_sup=float(np.max(np.abs(initial.field))))
        self._states = march(grid, exps, initial, dt,
                             ((i + 1) * cadence for i in count()), W, self.traj,
                             rescale)
        self._block = max(1, _BLOCK_VALUES // grid.n)

    def _record(self, times: list, fields: list) -> None:
        """Append the sampler's records of the samples at times."""
        if self.sampler is not None and times:
            self.traj.diagnostics.extend(self.sampler(times, np.array(fields)))

    def to_horizon(self, horizon: float, stop=None) -> Trajectory:
        """The trajectory, marched on to the horizon if the run stopped short
        of it.  stop(state), if given, is called at each sample marched
        here, and the march halts after the first sample where it is true.
        Samples marched here are recorded in blocks, the last one before it
        returns or raises."""
        traj, times, fields = self.traj, [], []     # the samples not yet recorded
        todo = sample_count(horizon, self.cadence) - len(traj.sample_times)
        try:
            for state in islice(self._states, max(todo, 0)):
                traj.sample_times.append(state.time)
                traj.sups.append(float(np.max(np.abs(state.field))))
                times.append(state.time)
                fields.append(state.field)
                if len(times) == self._block:
                    # emptied before the call: a sampler that raises
                    # leaves nothing for finally to record twice
                    block, times, fields = (times, fields), [], []
                    self._record(*block)
                if stop is not None and stop(state):
                    break
        finally:
            self._record(times, fields)
        return traj


def evolve(grid: Grid, exps: Exponents, initial: FlowState, horizon: float,
           dt: float, sample_every: float, sampler=None, W=None,
           stop_sup_below: float | None = None) -> Trajectory:
    """A Run sampled every sample_every, taken to the horizon (see
    Run.to_horizon): its Trajectory.  It halts after the first sample whose
    sup|field| is below stop_sup_below, if given; an original run halts near
    extinction, by default once sup|u| < 1e-6 sup|u0|."""
    run = Run(grid, exps, initial, dt, sample_every, sampler, W)
    if initial.kind == "original" and stop_sup_below is None:
        # near-extinction stop: extrapolate, never simulate the degenerate limit
        stop_sup_below = 1e-6 * run.traj.initial_sup
    sups = run.traj.sups
    return run.to_horizon(horizon, None if stop_sup_below is None
                          else lambda state: sups[-1] < stop_sup_below)


@dataclass(frozen=True)
class ExtinctionEstimate:
    T_est: float
    window: tuple
    fit_residual: float


def estimate_extinction_time(traj: Trajectory, m: float) -> ExtinctionEstimate:
    """Extrapolate the extinction time from sup(u)^(1-m) versus t, which the
    separate-variables law makes exactly linear.  The fit window keeps samples
    with sup(u) in (1e-3, 0.8) sup(u0)."""
    if traj.kind != "original":
        raise ValueError("extinction estimate needs an original-flow trajectory")
    times = np.asarray(traj.sample_times)
    sups = traj.sup_norms()
    lo, hi = 1e-3 * traj.initial_sup, 0.8 * traj.initial_sup
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

