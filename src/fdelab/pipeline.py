"""Experiment orchestration: stage composition and extinction-clock matching.

Stages compose in dependency order: domain -> stationary profile -> weighted
spectrum/gap -> flow -> diagnostics -> rate fit.

Clock matching.  The rescaled equation d/dt v^p = lap v + c v^p converges to
the profile V only when the initial datum's extinction time equals the clock
T = p/((p-1)c) built into c.  Perturbing V generically shifts the extinction
time at second order, and the mismatch feeds the one unstable mode of the
linearized flow (growth rate c(p-1)/p along V), which would eventually throw
any desk-scale run off the profile.  The FDE scaling symmetry makes the family
b -> b * v0 cross the matched-clock manifold transversally, so a one-parameter
shooting on the scale b realizes "T = T(u0)" exactly to solver resolution.
A trial is accepted once its entropy falls below a floor.  Its unstable-mode
coefficient a = <v(t) - V, phi_1>_V grows at c(p-1)/p, and at gamma_dt =
-flow.sample_rate(-c(p-1)/p, dt, cadence) on the run's sample lattice, so
g = a exp(-gamma_dt t) settles to about K (b - b*).  The trial has diverged
once that mode alone holds more than four floors of entropy, a part of E_nl
that only grows, so the trial can no longer reach the floor, and its g has
settled; as a backstop also once its entropy rises fourfold above its
running minimum (on the stable manifold the entropy only decays, so such a
rise can only come from the unstable mode).  K is close to <v0, phi_1>_V,
the b-derivative of a at t = 0 (positive, as phi_1 is), so the first trial,
at b = 1, already predicts b*; a secant on g, kept inside the sign bracket
once there is one, finishes the match.

Each trial is a flow.Run on the run's own sample lattice (i + 1) cadence,
taken to the horizon by Run.to_horizon with a stop rule, and records there,
in blocks, the entropy report the run would record (from report weights
formed once per trial).  The stop rule makes the collapse and divergence
checks at every sample on a and on diagnostics.nonlinear_entropy, which
gives the report's E_nl bit for bit.  The accepted trial is therefore the
first stretch of the run: the calibrated run is that Run, suspended where
it was accepted, taken on to the horizon (or cut back to it), which gives
the same trace as a fresh run from the accepted scale without marching
that stretch twice.  run_rescaled, which an uncalibrated rate case calls,
takes such a Run from its start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import ReportWeights, entropy_report, nonlinear_entropy
from .errors import NumericalFailure, StepFailure
from .flow import (FlowState, Run, estimate_extinction_time, evolve,
                   sample_rate)
from .grid import DomainSpec, Grid, build_domain
from .rates import EntropyBand, RateVerdict, fit_rate, sharp_rate_verdict
from .spectrum import (EigenSystem, GapReport, classify_gap, linear_entropy,
                       project_coefficients, weighted_eigensystem)
from .stationary import Exponents, StationaryProfile, solve_stationary

_MAX_TRIALS = 60     # calibration trials before "no trial reached the floor"
# A diverging trial's g has settled once the drift still to come is below
# this fraction of |g|.  The next scale moves by that drift over K (g ~
# K (b - b*)), far inside the window of scales whose trial is accepted: on
# the reference p = 2 run 9e-11 in b, where a trial 6.3e-10 from b* still
# bottoms under two floors.
_G_SETTLED = 1e-5


@dataclass(frozen=True)
class StageSetup:
    """Domain, profile and spectral data shared by every later stage."""

    grid: Grid
    exps: Exponents
    profile: StationaryProfile
    eigs: EigenSystem
    gap: GapReport


def prepare(spec: DomainSpec, exps: Exponents, n_modes: int = 8,
            gap_tol: float = 1e-3) -> StageSetup:
    grid = build_domain(spec)
    profile = solve_stationary(grid, exps)
    eigs = weighted_eigensystem(grid, profile.V, exps.p, n_modes)
    gap = classify_gap(eigs, exps.p, exps.c, gap_tol)
    return StageSetup(grid=grid, exps=exps, profile=profile, eigs=eigs, gap=gap)


def mode_perturbed_field(setup: StageSetup, modes) -> np.ndarray:
    """v0 = V + sum of amplitude * phi_k for the listed (k, amplitude)."""
    v0 = setup.profile.V.copy()
    for k, amp in modes:
        if not 1 <= k <= len(setup.eigs.eigenvalues):
            raise ValueError(f"mode {k} is outside the computed spectrum")
        v0 = v0 + amp * setup.eigs.mode(int(k))
    if v0.min() <= 0:
        raise ValueError("perturbed initial field is not positive")
    return v0


@dataclass(frozen=True)
class CalibrationTrial:
    """One shooting trial of match_extinction_clock."""

    scale: float
    verdict: int       # 0 accepted, -1 extinguishing side, +1 blow-up side
    t_stop: float      # time the trial stopped
    e_min: float       # smallest entropy the trial reached
    g: float           # growth-normalised unstable-mode coefficient, ~K (b - b*)


def _rescaled_run(setup: StageSetup, v0: np.ndarray, dt: float,
                  cadence: float) -> Run:
    """The rescaled flow from v0 as a Run recording the entropy report at
    every sample (i + 1) cadence, from report weights formed once per run."""
    weights = ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                 setup.eigs, setup.gap)
    return Run(setup.grid, setup.exps,
               FlowState(kind="rescaled", field=v0, time=0.0), dt, cadence,
               sampler=lambda times, v: entropy_report(weights, v, times))


@dataclass(frozen=True)
class ClockCalibration:
    scale: float
    trials: int
    bracket: tuple
    achieved_entropy: float    # smallest entropy of the accepted trial (the
                               # datum's own when no trial ran)
    log: tuple = ()            # every trial, in order (CalibrationTrial)
    # the accepted trial's Run from scale * base, suspended where it was
    # accepted (unstarted when no trial ran), for the run to continue; the
    # results of run_nonlinear_rate_case and run_extinction_pipeline, which
    # continue it, keep None here, so that they can be pickled
    run: Run | None = field(default=None, repr=False, compare=False)


def _mode1_coefficient(setup: StageSetup, dev: np.ndarray) -> float:
    """<dev, phi_1>_V, the unstable-mode coefficient of a deviation dev."""
    return float(project_coefficients(setup.grid, setup.eigs, dev, 1)[0])


def _unstable_sample_rate(exps: Exponents, dt: float, cadence: float) -> float:
    """gamma_dt, the unstable mode's growth rate c(p-1)/p on the run's
    sample lattice: implicit Euler's, per sample (flow.sample_rate)."""
    return -sample_rate(-exps.c * (exps.p - 1.0) / exps.p, dt, cadence)


def _run_trial(setup: StageSetup, v0: np.ndarray, dt: float, horizon: float,
               deep_floor: float, cadence: float):
    """Take the rescaled flow's Run to the horizon, stopping it once the
    entropy either collapses below deep_floor (verdict 0) or diverges
    (verdict +-1, the sign of the unstable-mode coefficient a); its stop rule
    checks E_nl (diagnostics.nonlinear_entropy) and a at every sample
    (i + 1) cadence.  It has diverged at the first sample where (i) the
    unstable mode alone holds more than 4 deep_floor of entropy,
    (p + 1)/2 a^2, a part of E_nl that only grows, so E_nl cannot come back
    below the floor, and (ii) g = a exp(-gamma_dt t) has settled: the drift
    still to come, |dg| r / (1 - r) with r the ratio of g's last two
    changes dg, is below _G_SETTLED |g|, at any cadence.  As backstops it
    has also diverged where E_nl exceeds 4 times its running minimum (only
    the growing mode can make the entropy rise), or where the flow cannot
    be continued even at the smallest dt (it collapses in finite time); a
    trial that does none of these by the horizon is accepted.  Returns
    (verdict, t, e_min, a, run), with t and a taken at the last check and
    run (a flow.Run) suspended there."""
    grid, V, p = setup.grid, setup.profile.V, setup.exps.p
    gamma_dt = _unstable_sample_rate(setup.exps, dt, cadence)
    run = _rescaled_run(setup, v0, dt, cadence)
    last = FlowState(kind="rescaled", field=v0, time=0.0)
    e_min = nonlinear_entropy(grid, V, p, v0)
    gs = []     # g = a exp(-gamma_dt t) at every sample so far
    diverged = False

    def settled(a, t):
        # the drift still to come, |dg| r / (1 - r) with r = dg / dg_prev
        gs.append(a * np.exp(-gamma_dt * t))
        if len(gs) < 3 or gs[-2] == gs[-3]:
            return False
        dg = gs[-1] - gs[-2]
        r = dg / (gs[-2] - gs[-3])
        return 0.0 <= r < 1.0 and abs(dg) * r < _G_SETTLED * abs(gs[-1]) * (1 - r)

    def stop(state):
        nonlocal last, e_min, diverged
        last, e = state, nonlinear_entropy(grid, V, p, state.field)
        e_min = min(e_min, e)
        if e_min < deep_floor:
            return True
        a = _mode1_coefficient(setup, state.field - V)
        unreachable = 0.5 * (p + 1.0) * a * a > 4.0 * deep_floor
        diverged = settled(a, state.time) and unreachable or e > 4.0 * e_min
        return diverged

    try:
        run.to_horizon(horizon, stop)
    except StepFailure:
        diverged = True
    a = _mode1_coefficient(setup, last.field - V)
    verdict = (1 if a > 0 else -1) if diverged else 0
    return verdict, last.time, e_min, a, run


def match_extinction_clock(setup: StageSetup, base_field, dt: float = 1e-3,
                           horizon: float = 20.0, deep_floor: float = 1e-12,
                           cadence: float | None = None) -> ClockCalibration:
    """Find the scale b so that b * base_field lies on the stable manifold of
    the rescaled flow (extinction time matched to T = p/((p-1)c)).

    The accepted scale is the first trial whose entropy collapses below
    deep_floor before it is seen to diverge, at the latest once it can no
    longer reach deep_floor and its g has settled (see _run_trial).  The
    first trial is b = 1.
    Until a sign bracket is found, each next scale is the root of g through
    the latest trial with the slope K = <base_field, phi_1>_V, or the secant
    root through the two latest trials once their g differ, floored at 0.05;
    a floored scale that would repeat, or ten trials, raise "could not
    bracket".  Then it is the secant root, or the bracket's midpoint when
    that root is not strictly inside, for at most _MAX_TRIALS trials in all.

    Trials check their entropy at the samples (i + 1) cadence of the run
    that is to follow (by default every 10 steps, cadence = 10 dt), and the
    result's run is the accepted trial's march, to be continued by that run.
    A step min(dt, cadence) of at least T, where the unstable mode's implicit
    step is singular, raises ValueError before any trial.  A NumericalFailure
    raised here carries the trials run so far as its clock_log attribute (a
    tuple of CalibrationTrial).
    """
    base = setup.grid.check_field(base_field)
    exps = setup.exps
    cadence = cadence or 10 * dt
    if min(dt, cadence) >= exps.T:
        raise ValueError(f"the calibration steps min(dt, cadence) = "
                         f"{min(dt, cadence)!r}, which must be below T = {exps.T!r}")
    gamma_dt = _unstable_sample_rate(exps, dt, cadence)
    slope = _mode1_coefficient(setup, base)   # da/db at t = 0, ~ g's slope
    log, latest = [], None     # latest: the last trial's Run

    e0 = nonlinear_entropy(setup.grid, setup.profile.V, exps.p, base)
    if e0 < deep_floor:
        return ClockCalibration(scale=1.0, trials=0, bracket=(1.0, 1.0),
                                achieved_entropy=e0,
                                run=_rescaled_run(setup, base, dt, cadence))

    def trial(b):
        nonlocal latest
        verdict, t, e_min, a, latest = _run_trial(setup, b * base, dt, horizon,
                                                  deep_floor, cadence)
        g = float(a * np.exp(-gamma_dt * t))
        log.append(CalibrationTrial(scale=b, verdict=verdict, t_stop=t,
                                    e_min=e_min, g=g))
        return verdict

    def secant_root():
        prev, last = log[-2], log[-1]
        return last.scale - last.g * (last.scale - prev.scale) / (last.g - prev.g)

    def accepted(bracket):
        return ClockCalibration(scale=log[-1].scale, trials=len(log),
                                bracket=bracket, achieved_entropy=log[-1].e_min,
                                log=tuple(log), run=latest)

    try:
        ends, b = {}, 1.0     # verdict -> latest scale with that verdict
        while len(ends) < 2:
            if len(log) == 10 or (log and b == log[-1].scale):
                raise NumericalFailure("could not bracket the matched-clock scale")
            ends[trial(b)] = b
            if 0 in ends:
                return accepted((b, b))
            last = log[-1]
            b = max(secant_root() if len(log) > 1 and log[-2].g != last.g
                    else last.scale - last.g / slope, 0.05)

        while len(log) < _MAX_TRIALS:
            bracket = (min(ends.values()), max(ends.values()))
            b = 0.5 * (bracket[0] + bracket[1])
            if log[-1].g != log[-2].g:
                root = secant_root()
                if bracket[0] < root < bracket[1]:
                    b = root
            ends[trial(b)] = b
            if 0 in ends:
                return accepted(bracket)
            if bracket[1] - bracket[0] < 64 * np.finfo(float).eps:
                break
        raise NumericalFailure(
            f"no trial reached the entropy floor {deep_floor:g} within "
            f"{_MAX_TRIALS} trials (bracket width {abs(ends[1] - ends[-1]):.3e})")
    except NumericalFailure as exc:
        exc.clock_log = tuple(log)
        raise


def run_rescaled(setup: StageSetup, v0, horizon: float, dt: float = 1e-3,
                 cadence: float = 0.05):
    """The rescaled flow from v0 taken to the horizon: its Trajectory and
    its entropy reports."""
    run = _rescaled_run(setup, np.asarray(v0, float), dt, cadence)
    traj = run.to_horizon(horizon)
    return traj, list(traj.diagnostics)


@dataclass(frozen=True)
class LinearModeTrace:
    """Linear-flow trace: weighted norm square and per-mode coefficients."""

    times: np.ndarray
    E_lin: np.ndarray
    I_lin: np.ndarray
    coefficients: np.ndarray     # shape (samples, modes), column k - 1 is mode k


def run_linearized(setup: StageSetup, f0, horizon: float, dt: float = 1e-3,
                   cadence: float = 0.05) -> LinearModeTrace:
    """The linearized flow from f0 taken to the horizon by a Run recording
    at every sample E_lin and I_lin (spectrum.linear_entropy) and the
    coefficients of every computed mode (spectrum.project_coefficients)."""
    grid, eigs, cp = setup.grid, setup.eigs, setup.gap.cp
    K = len(eigs.eigenvalues)

    def sampler(times, f):   # per field, the record (E_lin, I_lin, coefficients)
        return list(zip(*linear_entropy(grid, eigs, cp, f),
                        project_coefficients(grid, eigs, f, K)))

    traj = Run(grid, setup.exps, FlowState(kind="linearized",
                                           field=np.asarray(f0, float), time=0.0),
               dt, cadence, sampler, eigs.W).to_horizon(horizon)
    rows = traj.diagnostics
    return LinearModeTrace(times=np.array(traj.sample_times),
                           E_lin=np.array([r[0] for r in rows]),
                           I_lin=np.array([r[1] for r in rows]),
                           coefficients=np.reshape([r[2] for r in rows], (-1, K)))


@dataclass(frozen=True)
class ExtinctionPipelineResult:
    T_est: float
    T_true: float
    estimate: object                 # flow.ExtinctionEstimate
    closed_loop_setup: StageSetup
    closed_loop_reports: list        # entropy trace of the rerun
    closed_loop_calibration: ClockCalibration


def run_extinction_pipeline(setup: StageSetup, dt_original: float = 2e-4,
                            rerun_horizon: float = 8.0,
                            rerun_dt: float = 1e-3) -> ExtinctionPipelineResult:
    """Criterion-style closed loop: march the original flow from u0 = S, stop
    near extinction, extrapolate T from sup(u)^(1-m); then rebuild the whole
    rescaled stage (as many modes) with c = p/((p-1) T_est) and check that the
    rescaled flow from the original datum relaxes to the new stationary
    profile.  The rerun is the accepted calibration trial, continued to
    rerun_horizon and sampled every 0.1."""
    exps = setup.exps
    u0 = setup.profile.S.copy()
    T_true = exps.T
    dt = dt_original * T_true
    traj = evolve(setup.grid, exps,
                  FlowState(kind="original", field=u0, time=0.0),
                  horizon=1.5 * T_true, dt=dt,
                  sample_every=max(dt, T_true / 2000.0),
                  stop_sup_below=5e-4 * float(u0.max()))
    est = estimate_extinction_time(traj, exps.m)

    exps_est = Exponents.make(p=exps.p, T=est.T_est)
    setup_est = prepare(setup.grid.spec, exps_est, len(setup.eigs.eigenvalues))
    v0 = u0 ** exps.m
    cal = match_extinction_clock(setup_est, v0, dt=rerun_dt,
                                 horizon=max(rerun_horizon, 20.0),
                                 deep_floor=1e-14, cadence=0.1)
    reports = list(cal.run.to_horizon(rerun_horizon).diagnostics)
    cal = replace(cal, run=None)
    return ExtinctionPipelineResult(T_est=est.T_est, T_true=T_true, estimate=est,
                                    closed_loop_setup=setup_est,
                                    closed_loop_reports=reports,
                                    closed_loop_calibration=cal)


@dataclass(frozen=True)
class NonlinearRateResult:
    calibration: ClockCalibration
    reports: list
    verdict: RateVerdict | None
    trivial_fixed_point: bool
    step_summary: dict


def run_nonlinear_rate_case(setup: StageSetup, base_field, horizon: float,
                            dt: float = 1e-3, cadence: float = 0.05,
                            band: EntropyBand | None = None, tol: float = 0.05,
                            match_clock: bool = True,
                            want_fit: bool = True) -> NonlinearRateResult:
    """Calibrate the clock, run the flow, and (want_fit) fit the entropy decay
    against the spectral prediction 2 lambda_p / p (and its discrete form
    on the run's sample lattice, flow.sample_rate(lambda_p / p, dt, cadence)).

    The calibration's trials march on this run's sample lattice, and the run
    is the accepted trial continued to the horizon (or cut back to it): its
    reports and step summary equal those of run_rescaled from cal.scale *
    base_field, bit for bit.  Only an uncalibrated run (match_clock false)
    calls run_rescaled."""
    band = band or EntropyBand()
    if match_clock:
        cal = match_extinction_clock(
            setup, base_field, dt=dt, horizon=max(horizon, 20.0),
            deep_floor=band.lo / 100.0, cadence=cadence)
        traj = cal.run.to_horizon(horizon)
        reports = list(traj.diagnostics)
        cal = replace(cal, run=None)
    else:
        cal = ClockCalibration(scale=1.0, trials=0, bracket=(1.0, 1.0),
                               achieved_entropy=np.nan)
        traj, reports = run_rescaled(setup, setup.grid.check_field(base_field),
                                     horizon=horizon, dt=dt, cadence=cadence)
    E = np.array([r.E_nl for r in reports])
    trivial = bool(E.size and E.max() <= 1e-12)   # needs at least one report
    verdict = None
    if want_fit and not trivial:
        verdict = sharp_rate_verdict(fit_rate([r.t for r in reports], E, band),
                                     setup.gap, setup.exps.p, tol, dt, cadence)
    return NonlinearRateResult(calibration=cal, reports=reports,
                               verdict=verdict, trivial_fixed_point=trivial,
                               step_summary=traj.step_summary())
