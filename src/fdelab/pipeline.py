"""Experiment orchestration: stage composition and extinction-clock matching.

Stages compose in dependency order: domain -> stationary profile -> weighted
spectrum/gap -> flow -> diagnostics -> rate fit.

Clock matching.  The rescaled equation d/dt v^p = lap v + c v^p converges to
the profile V only when the initial datum's extinction time equals the clock
T = p/((p-1)c) built into c.  A perturbation shifts the extinction time at
second order, and the mismatch feeds the one unstable mode of the linearized
flow, phi_1 = alpha V (lambda_1 = c), which grows at gamma = c(p-1)/p and
would throw any desk-scale run off the profile.  The clock-matched run holds
its state on the stable manifold instead: at t = 0 and after every sample it
multiplies v by the sigma below.

Derivation.  Write f = v - V and A = int (v^p - V^p) phi_1 dx.  As
-lap phi_1 = c V^(p-1) phi_1, the flow gives dA/dt = c int (v^p - v V^(p-1))
phi_1 dx, and expanding v^p to second order in f,

    dA/dt = gamma A + (c alpha (p-1)/2) E_lin + O(f^3),

with E_lin = int f^2 V^(p-1) dx = sum_k a_k^2, a_k = <f, phi_k>_V.  Along
the stable manifold each a_k (k >= 2) decays at mu_k = (lambda_k - c p)/p,
so E_lin(t) = sum a_k^2 exp(-2 mu_k t), and the one solution of this linear
equation that stays bounded as t grows is

    A* = -(c alpha (p-1)/2) sum_{k=2..K} a_k^2 / (gamma + 2 mu_k),

the manifold's value of A, second order in f (the paper's almost
orthogonality).  Each gamma + 2 mu_k = (2 lambda_k - c (p+1))/p is positive,
as the profile has Morse index 1 (k_p = 1): lambda_k > c p for k >= 2.
The sum is truncated at the K computed modes: the modes
above decay fastest and carry the smallest share of a smooth f.  sigma is
then the scalar that puts A at A*,

    sigma^p = (int V^p phi_1 + A*) / int v^p phi_1,

with the integrals taken under the grid quadrature.  Multiplying v by sigma
moves only the phi_1 coefficient of f (sigma V - V is along phi_1), so the
a_k in A* are those of v and of sigma v alike.  Zeroing the linear
coefficient <f, phi_1>_V instead leaves the state O(E_lin) off the manifold.

Why a scaling is allowed.  The FDE is invariant under u -> lambda u(lambda^(m-1)
(tau - tau_1) + tau_1), which keeps u at tau_1 up to the factor lambda and
moves the time left before extinction.  Multiplying the rescaled state by
sigma at a time t is such a move: it multiplies the remaining time T - tau by
sigma^(p-1).  So each sigma only moves the datum along the scaling family,
the path that a shooting on the datum's scale searches, and the scaled run is
the rescaled trajectory of the datum whose extinction time is matched,
shifted in t by a constant, which leaves the decay rate alone.  Once the
state is on the manifold, each later sigma is 1 up to the O(f^3) error and
the step's (7e-11 on the reference p = 2 run).

match_extinction_clock builds that run, a flow.Run with the rescale rule
clock_rule, and run_rescaled takes it to the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import ReportWeights, entropy_report
from .flow import FlowState, Run, estimate_extinction_time, evolve
from .grid import DomainSpec, Grid, build_domain
from .rates import EntropyBand, RateVerdict, fit_rate, sharp_rate_verdict
from .spectrum import (EigenSystem, GapReport, classify_gap, linear_entropy,
                       project_coefficients, weighted_eigensystem)
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
    """v0 = V + sum of amplitude * phi_k for the listed (k, amplitude)."""
    v0 = setup.profile.V.copy()
    for k, amp in modes:
        if not 1 <= k <= len(setup.eigs.eigenvalues):
            raise ValueError(f"mode {k} is outside the computed spectrum")
        v0 = v0 + amp * setup.eigs.mode(int(k))
    if v0.min() <= 0:
        raise ValueError("perturbed initial field is not positive")
    return v0


def _rescaled_run(setup: StageSetup, v0: np.ndarray, dt: float,
                  cadence: float, rescale=None) -> Run:
    """The rescaled flow from v0 as a Run recording the entropy report at
    every sample (i + 1) cadence, from report weights formed once per run,
    with the rescale rule, if given."""
    weights = ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                 setup.eigs, setup.gap)
    return Run(setup.grid, setup.exps,
               FlowState(kind="rescaled", field=v0, time=0.0), dt, cadence,
               sampler=lambda times, v: entropy_report(weights, v, times),
               rescale=rescale)


def _mode1_coefficient(setup: StageSetup, dev: np.ndarray) -> float:
    """<dev, phi_1>_V, the unstable-mode coefficient of a deviation dev."""
    return float(project_coefficients(setup.grid, setup.eigs, dev, 1)[0])


def clock_rule(setup: StageSetup, sigmas: list):
    """The clock-matched run's rescale rule (see the module docstring): v ->
    sigma with sigma^p = (int V^p phi_1 + A*) / int v^p phi_1, A* from the
    a_k = <v - V, phi_k>_V of every computed mode k >= 2; each sigma is
    appended to sigmas."""
    grid, eigs, V = setup.grid, setup.eigs, setup.profile.V
    p, c = setup.exps.p, setup.exps.c
    K = len(eigs.eigenvalues)
    q_phi1 = grid.quad_weights * eigs.mode(1)     # int g phi_1 dx = q_phi1 @ g
    on_profile = float(q_phi1 @ V ** p)
    alpha = 1.0 / _mode1_coefficient(setup, V)    # <V, phi_1>_V = 1/alpha
    gamma, mu = c * (p - 1.0) / p, (eigs.eigenvalues[1:] - c * p) / p
    weight = 0.5 * c * alpha * (p - 1.0) / (gamma + 2.0 * mu)   # A* = -weight @ a^2

    def rule(v):
        a = project_coefficients(grid, eigs, v - V, K)[1:]
        sigma = ((on_profile - float(weight @ (a * a)))
                 / float(q_phi1 @ v ** p)) ** (1.0 / p)
        sigmas.append(sigma)
        return sigma

    return rule


@dataclass(frozen=True)
class ClockCalibration:
    """A clock-matched run and its scalings: sigmas[0] at t = 0, then one
    after every sample but the last, appended as the run marches."""

    sigmas: list
    # the run, unstarted; the results of run_nonlinear_rate_case and
    # run_extinction_pipeline keep None here, so that they can be pickled
    run: Run | None = field(default=None, repr=False, compare=False)
    trials: int = 0     # no trial runs; benchmarks/tracing.py sums this count

    @property
    def scale(self) -> float:
        """The product of every sigma (1.0 before the first)."""
        return float(np.prod(self.sigmas))

    @property
    def max_shift(self) -> float:
        """The largest |1 - sigma| after the first sigma (0.0 if none)."""
        return max((abs(1.0 - s) for s in self.sigmas[1:]), default=0.0)


def match_extinction_clock(setup: StageSetup, base_field, dt: float = 1e-3,
                           cadence: float = 0.05) -> ClockCalibration:
    """The clock-matched rescaled run from base_field, unstarted: a Run
    sampled every cadence whose rescale rule (clock_rule) holds it on the
    stable manifold of V at t = 0 and after each sample, so that its
    extinction time stays matched to T = p/((p-1)c).  A step
    min(dt, cadence) of at least T, where the unstable mode's implicit step
    is singular, raises ValueError."""
    base = setup.grid.check_field(base_field)
    T = setup.exps.T
    if min(dt, cadence) >= T:
        raise ValueError(f"the clock-matched run steps min(dt, cadence) = "
                         f"{min(dt, cadence)!r}, which must be below T = {T!r}")
    sigmas = []
    return ClockCalibration(sigmas=sigmas, run=_rescaled_run(
        setup, base, dt, cadence, clock_rule(setup, sigmas)))


def run_rescaled(setup: StageSetup, v0, horizon: float, dt: float = 1e-3,
                 cadence: float = 0.05, run: Run | None = None):
    """The rescaled flow from v0 taken to the horizon: its Trajectory and
    its entropy reports.  run, if given, is taken there instead of a fresh
    Run from v0: the clock-matched run of match_extinction_clock from v0 at
    this dt and cadence."""
    run = run or _rescaled_run(setup, np.asarray(v0, float), dt, cadence)
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
    profile.  The rerun is the clock-matched run from the original datum,
    sampled every 0.1 to rerun_horizon."""
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
    cal = match_extinction_clock(setup_est, v0, dt=rerun_dt, cadence=0.1)
    _, reports = run_rescaled(setup_est, v0, rerun_horizon, rerun_dt, 0.1,
                              cal.run)
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
    """Run the flow from base_field, clock-matched (match_extinction_clock)
    if match_clock, and (want_fit) fit the entropy decay against the
    spectral prediction 2 lambda_p / p (and its discrete form on the run's
    sample lattice, flow.sample_rate(lambda_p / p, dt, cadence)).  An
    unmatched run has a calibration with no sigma."""
    band = band or EntropyBand()
    base = setup.grid.check_field(base_field)
    cal = (match_extinction_clock(setup, base, dt, cadence) if match_clock
           else ClockCalibration(sigmas=[]))
    traj, reports = run_rescaled(setup, base, horizon, dt, cadence, cal.run)
    cal = replace(cal, run=None)
    E = np.array([r.E_nl for r in reports])
    trivial = bool(E.size and E.max() <= 1e-12)   # needs at least one report
    verdict = None
    if want_fit and not trivial:
        verdict = sharp_rate_verdict(fit_rate([r.t for r in reports], E, band),
                                     setup.gap, setup.exps.p, tol, dt, cadence)
    return NonlinearRateResult(calibration=cal, reports=reports,
                               verdict=verdict, trivial_fixed_point=trivial,
                               step_summary=traj.step_summary())
