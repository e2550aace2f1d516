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
Bisection is accelerated by a log-secant update: the divergence detection time
t_det of a trial measures log|b - b*| through the known growth rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import make_sampler, nonlinear_entropy
from .errors import NumericalFailure
from .flow import FlowState, evolve, step_rescaled
from .grid import DomainSpec, Grid, build_domain, inner_product_weighted
from .rates import EntropyBand, RateFit, RateVerdict, fit_rate, sharp_rate_verdict
from .spectrum import EigenSystem, GapReport, classify_gap, weighted_eigensystem
from .stationary import Exponents, StationaryProfile, solve_stationary


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
    """v0 = V + sum of amplitude * phi_{k,j} for the listed (k, j, amplitude)."""
    v0 = setup.profile.V.copy()
    for k, j, amp in modes:
        v0 = v0 + amp * setup.eigs.mode(int(k), int(j))
    if v0.min() <= 0:
        raise ValueError("perturbed initial field is not positive")
    return v0


@dataclass(frozen=True)
class ClockCalibration:
    scale: float
    trials: int
    bracket: tuple
    achieved_entropy: float    # smallest entropy reached by the accepted run


def _mode1_coefficient(setup: StageSetup, v: np.ndarray) -> float:
    phi1 = setup.eigs.mode(1, 1)
    return inner_product_weighted(setup.grid, v - setup.profile.V, phi1,
                                  setup.eigs.weight)


def _run_trial(setup: StageSetup, v0: np.ndarray, dt: float, horizon: float,
               deep_floor: float, stride: int):
    """March the rescaled flow until the entropy either collapses below
    deep_floor (verdict 0) or diverges from its running minimum (verdict +-1,
    sign of the unstable-mode coefficient).  Returns (verdict, t, e_min)."""
    grid, exps, V = setup.grid, setup.exps, setup.profile.V
    p = exps.p
    state = FlowState(kind="rescaled", field=v0, time=0.0)
    e0 = nonlinear_entropy(grid, V, p, v0)
    e_min = e0
    steps = int(round(horizon / dt))
    for s in range(steps):
        state = step_rescaled(grid, exps, state, dt)
        if (s + 1) % stride:
            continue
        e = nonlinear_entropy(grid, V, p, state.field)
        e_min = min(e_min, e)
        if e_min < deep_floor:
            return 0, state.time, e_min
        if (e > 4.0 * e_min and e > 100.0 * deep_floor) or e > 10.0 * max(e0, deep_floor):
            sign = 1 if _mode1_coefficient(setup, state.field) > 0 else -1
            return sign, state.time, e_min
    return 0, horizon, e_min


def match_extinction_clock(setup: StageSetup, base_field, dt: float = 1e-3,
                           horizon: float = 20.0, deep_floor: float = 1e-12,
                           bracket_width: float = 2e-3, stride: int = 10,
                           max_trials: int = 60) -> ClockCalibration:
    """Find the scale b so that b * base_field lies on the stable manifold of
    the rescaled flow (extinction time matched to T = p/((p-1)c)).

    The accepted scale is the first trial whose entropy collapses below
    deep_floor before any divergence is detected.
    """
    base = setup.grid.check_field(base_field)
    exps = setup.exps
    gamma = exps.c * (exps.p - 1.0) / exps.p   # unstable growth rate

    if nonlinear_entropy(setup.grid, setup.profile.V, exps.p, base) < deep_floor:
        return ClockCalibration(scale=1.0, trials=0, bracket=(1.0, 1.0),
                                achieved_entropy=0.0)

    def trial(b):
        return _run_trial(setup, b * base, dt, horizon, deep_floor, stride)

    lo, hi = 1.0 - bracket_width, 1.0 + bracket_width
    s_lo, t_lo, e_lo = trial(lo)
    trials = 1
    if s_lo == 0:
        return ClockCalibration(scale=lo, trials=trials, bracket=(lo, lo),
                                achieved_entropy=e_lo)
    s_hi, t_hi, e_hi = trial(hi)
    trials += 1
    if s_hi == 0:
        return ClockCalibration(scale=hi, trials=trials, bracket=(hi, hi),
                                achieved_entropy=e_hi)
    widen = 0
    while s_lo == s_hi and widen < 8:
        lo = max(lo - 2.0 * bracket_width * 2 ** widen, 0.05)
        hi += 2.0 * bracket_width * 2 ** widen
        s_lo, t_lo, _ = trial(lo)
        s_hi, t_hi, _ = trial(hi)
        trials += 2
        widen += 1
    if s_lo == s_hi:
        raise NumericalFailure("could not bracket the matched-clock scale")
    if s_lo > 0:  # orient: lo side extinction (-), hi side blow-up (+)
        lo, hi, t_lo, t_hi = hi, lo, t_hi, t_lo

    while trials < max_trials:
        # log-secant: |b - b*| ~ exp(-gamma t_det) on both sides
        r = np.exp(-gamma * (t_hi - t_lo))
        bm = (hi + r * lo) / (1.0 + r)
        span = abs(hi - lo)
        margin = 0.05 * span
        bm = min(max(bm, min(lo, hi) + margin), max(lo, hi) - margin)
        sm, tm, em = trial(bm)
        trials += 1
        if sm == 0:
            return ClockCalibration(scale=bm, trials=trials,
                                    bracket=(min(lo, hi), max(lo, hi)),
                                    achieved_entropy=em)
        if sm < 0:
            lo, t_lo = bm, tm
        else:
            hi, t_hi = bm, tm
        if span < 64 * np.finfo(float).eps:
            break
    raise NumericalFailure(
        f"no trial reached the entropy floor {deep_floor:g} within "
        f"{max_trials} trials (bracket width {abs(hi - lo):.3e})")


def run_rescaled(setup: StageSetup, v0, horizon: float, dt: float = 1e-3,
                 cadence: float = 0.05):
    """Evolve the rescaled flow and build the entropy trace."""
    sampler = make_sampler(setup.grid, setup.profile.V, setup.exps, setup.eigs,
                           setup.gap)
    traj = evolve(setup.grid, setup.exps,
                  FlowState(kind="rescaled", field=np.asarray(v0, float), time=0.0),
                  horizon=horizon, dt=dt, sample_every=cadence,
                  sampler=sampler)
    return traj, list(traj.diagnostics)


@dataclass(frozen=True)
class LinearModeTrace:
    """Linear-flow trace: weighted norm square and per-mode coefficients."""

    times: np.ndarray
    E_lin: np.ndarray
    I_lin: np.ndarray
    coefficients: np.ndarray     # shape (samples, modes), mode order = eigs.pairs()
    mode_index: tuple            # tuple of (k, j)


def run_linearized(setup: StageSetup, f0, horizon: float, dt: float = 1e-3,
                   cadence: float = 0.05) -> LinearModeTrace:
    """Evolve the linearized flow, tracking E_lin, I_lin and mode coefficients."""
    from .grid import dirichlet_energy

    grid, exps, V = setup.grid, setup.exps, setup.profile.V
    wq = grid.quad_weights * setup.eigs.weight
    modes = [(k, j, phi) for k, j, _, phi in setup.eigs.pairs()]

    rows = []

    def sampler(t, f):
        e = float(np.dot(wq, f * f))
        i_lin = dirichlet_energy(grid, f) - exps.p * exps.c * e
        coeffs = [float(np.dot(wq * phi, f)) for _, _, phi in modes]
        rows.append((t, e, i_lin, coeffs))
        return None

    evolve(grid, exps, FlowState(kind="linearized", field=np.asarray(f0, float),
                                 time=0.0),
           horizon=horizon, dt=dt,
           sample_every=cadence, sampler=sampler, V=V)
    times = np.array([r[0] for r in rows])
    return LinearModeTrace(times=times,
                           E_lin=np.array([r[1] for r in rows]),
                           I_lin=np.array([r[2] for r in rows]),
                           coefficients=np.array([r[3] for r in rows]),
                           mode_index=tuple((k, j) for k, j, _ in modes))


@dataclass(frozen=True)
class ExtinctionPipelineResult:
    T_est: float
    T_true: float
    estimate: object                 # flow.ExtinctionEstimate
    closed_loop_setup: StageSetup
    closed_loop_reports: list        # entropy trace of the rerun
    closed_loop_calibration: ClockCalibration


def run_extinction_pipeline(setup: StageSetup, dt_original: float = 2e-4,
                            rerun_horizon: float = 8.0, rerun_dt: float = 1e-3,
                            cadence: float = 0.1, n_modes: int = 8) -> ExtinctionPipelineResult:
    """Criterion-style closed loop: march the original flow from u0 = S, stop
    near extinction, extrapolate T from sup(u)^(1-m); then rebuild the whole
    rescaled stage with c = p/((p-1) T_est) and check that the rescaled flow
    started from the original datum relaxes to the new stationary profile."""
    from .flow import estimate_extinction_time

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
    setup_est = prepare(setup.grid.spec, exps_est, n_modes=n_modes)
    v0 = u0 ** exps.m
    cal = match_extinction_clock(setup_est, v0, dt=rerun_dt,
                                 horizon=max(rerun_horizon, 20.0),
                                 deep_floor=1e-14)
    _, reports = run_rescaled(setup_est, cal.scale * v0, horizon=rerun_horizon,
                              dt=rerun_dt, cadence=cadence)
    return ExtinctionPipelineResult(T_est=est.T_est, T_true=T_true, estimate=est,
                                    closed_loop_setup=setup_est,
                                    closed_loop_reports=reports,
                                    closed_loop_calibration=cal)


@dataclass(frozen=True)
class NonlinearRateResult:
    calibration: ClockCalibration
    reports: list
    fit: RateFit | None
    verdict: RateVerdict | None
    trivial_fixed_point: bool
    step_summary: dict | None = None


def run_nonlinear_rate_case(setup: StageSetup, base_field, horizon: float,
                            dt: float = 1e-3, cadence: float = 0.05,
                            band: EntropyBand | None = None, tol: float = 0.05,
                            match_clock: bool = True,
                            calibration_horizon: float | None = None,
                            want_fit: bool = True) -> NonlinearRateResult:
    """Calibrate the clock, run the flow, and (want_fit) fit the entropy decay
    against the spectral prediction 2 lambda_p / p."""
    band = band or EntropyBand()
    if match_clock:
        cal = match_extinction_clock(
            setup, base_field, dt=dt,
            horizon=calibration_horizon or max(horizon, 20.0),
            deep_floor=band.lo / 100.0)
    else:
        cal = ClockCalibration(scale=1.0, trials=0, bracket=(1.0, 1.0),
                               achieved_entropy=np.nan)
    v0 = cal.scale * setup.grid.check_field(base_field)
    traj, reports = run_rescaled(setup, v0, horizon=horizon, dt=dt,
                                 cadence=cadence)
    summary = traj.step_summary()
    E = np.array([r.E_nl for r in reports])
    if E.max(initial=0.0) <= 1e-12:
        return NonlinearRateResult(calibration=cal, reports=reports, fit=None,
                                   verdict=None, trivial_fixed_point=True,
                                   step_summary=summary)
    if not want_fit:
        return NonlinearRateResult(calibration=cal, reports=reports, fit=None,
                                   verdict=None, trivial_fixed_point=False,
                                   step_summary=summary)
    fit = fit_rate([r.t for r in reports], E, band)
    verdict = sharp_rate_verdict(fit, setup.gap, setup.exps.p, tol)
    return NonlinearRateResult(calibration=cal, reports=reports, fit=fit,
                               verdict=verdict, trivial_fixed_point=False,
                               step_summary=summary)
