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

The clock-matched run is run_rescaled with the ClockCalibration that
match_extinction_clock returns as its rescale rule; like every run here, it
is one flow.evolve call, taken to the horizon once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import EntropyTrace, ReportWeights, entropy_report
from .errors import NumericalFailure
from .flow import (EXTINCTION_FIT_FLOOR, FlowState, estimate_extinction_time,
                   evolve, lattice_step)
from .grid import DomainSpec, Grid, build_domain
from .rates import (EntropyBand, RateVerdict, band_passage_closed, fit_rate,
                    sharp_rate_verdict)
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


def _mode1_coefficient(setup: StageSetup, dev: np.ndarray) -> float:
    """<dev, phi_1>_V, the unstable-mode coefficient of a deviation dev."""
    return float(project_coefficients(setup.grid, setup.eigs, dev, 1)[0])


@dataclass(frozen=True)
class ClockCalibration:
    """The clock-matched run's rescale rule, v -> sigma (see the module
    docstring), and the sigmas it has applied: sigmas[0] at t = 0, then one
    after every sample but the last.  Its terms, which match_extinction_clock
    forms once, take no part in equality: an unused rule equals
    ClockCalibration(sigmas=[])."""

    sigmas: list
    trials: int = 0     # no trial runs; benchmarks/tracing.py sums this count
    setup: StageSetup | None = field(default=None, compare=False, repr=False)
    q_phi1: np.ndarray | None = field(default=None, compare=False, repr=False)
    on_profile: float = field(default=0.0, compare=False, repr=False)
    weight: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __call__(self, v) -> float:
        setup, p = self.setup, self.setup.exps.p
        a = project_coefficients(setup.grid, setup.eigs, v - setup.profile.V,
                                 len(setup.eigs.eigenvalues))[1:]
        sigma = ((self.on_profile - float(self.weight @ (a * a)))
                 / float(self.q_phi1 @ v ** p)) ** (1.0 / p)
        self.sigmas.append(sigma)
        return sigma

    @property
    def scale(self) -> float:
        """The product of every sigma (1.0 before the first)."""
        return float(np.prod(self.sigmas))

    @property
    def max_shift(self) -> float:
        """The largest |1 - sigma| after the first sigma (0.0 if none)."""
        return max((abs(1.0 - s) for s in self.sigmas[1:]), default=0.0)


def match_extinction_clock(setup: StageSetup, dt: float = 1e-3,
                           cadence: float = 0.05) -> ClockCalibration:
    """The rescale rule of a clock-matched run stepping dt and sampled every
    cadence, with no sigma yet, which holds the run on V's stable manifold
    so that its extinction time stays matched to T = p/((p-1)c).  A longest
    step flow.lattice_step(dt, cadence) of at least T, where the unstable
    mode's implicit step is singular, raises ValueError first."""
    T, step = setup.exps.T, lattice_step(dt, cadence)
    if step >= T:
        raise ValueError(f"the clock-matched run steps min(dt, cadence) = "
                         f"{step!r}, which must be below T = {T!r}")
    eigs, p, c = setup.eigs, setup.exps.p, setup.exps.c
    q_phi1 = setup.grid.quad_weights * eigs.mode(1)   # int g phi_1 = q_phi1 @ g
    alpha = 1.0 / _mode1_coefficient(setup, setup.profile.V)  # <V, phi_1>_V
    gamma, mu = c * (p - 1.0) / p, (eigs.eigenvalues[1:] - c * p) / p
    weight = 0.5 * c * alpha * (p - 1.0) / (gamma + 2.0 * mu)  # A* = -weight @ a^2
    return ClockCalibration(sigmas=[], setup=setup, q_phi1=q_phi1,
                            on_profile=float(q_phi1 @ setup.profile.V ** p),
                            weight=weight)


def run_rescaled(setup: StageSetup, v0, horizon: float, dt: float = 1e-3,
                 cadence: float = 0.05, rescale=None, stop=None):
    """The rescaled flow from v0 taken to the horizon by flow.evolve, with
    the rescale rule, if given (a ClockCalibration for the clock-matched
    run): its Trajectory and its entropy reports at every sample (i + 1)
    cadence, from report weights formed once per run, as an EntropyTrace
    over the run's recorded rows (a view of its buffer, not a copy).
    stop(reports), if given, is called at every sample with the EntropyTrace
    of the rows recorded so far (evolve records a block of at most
    flow._STOP_BLOCK = 8 samples at a time in a run with a stop), and the
    run halts after the first sample where it is true, at most 8 samples
    past the report that made it so."""
    weights = ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                 setup.eigs, setup.gap)
    k = setup.gap.k_p

    def reports(traj):
        rows = traj.diagnostics
        return EntropyTrace(np.empty((0, 8 + 3 * k)) if rows is None else rows,
                            k)

    traj = evolve(setup.grid, setup.exps,
                  FlowState(kind="rescaled", field=np.asarray(v0, float),
                            time=0.0), horizon, dt, cadence,
                  lambda times, v: entropy_report(weights, v, times).data,
                  rescale=rescale,
                  stop=stop and (lambda traj: stop(reports(traj))))
    return traj, reports(traj)


@dataclass(frozen=True)
class LinearModeTrace:
    """Linear-flow trace: weighted norm square and per-mode coefficients."""

    times: np.ndarray
    E_lin: np.ndarray
    I_lin: np.ndarray
    coefficients: np.ndarray     # shape (samples, modes), column k - 1 is mode k


def run_linearized(setup: StageSetup, f0, horizon: float, dt: float = 1e-3,
                   cadence: float = 0.05) -> LinearModeTrace:
    """The linearized flow from f0 taken to the horizon by flow.evolve,
    recording at every sample E_lin and I_lin (spectrum.linear_entropy) and
    the coefficients of every computed mode (spectrum.project_coefficients)."""
    grid, eigs, cp = setup.grid, setup.eigs, setup.gap.cp
    K = len(eigs.eigenvalues)

    def sampler(times, f):   # per field, the row E_lin, I_lin, coefficients
        return np.column_stack([*linear_entropy(grid, eigs, cp, f),
                                project_coefficients(grid, eigs, f, K)])

    traj = evolve(grid, setup.exps,
                  FlowState(kind="linearized", field=np.asarray(f0, float),
                            time=0.0), horizon, dt, cadence, sampler, eigs.W)
    rows = np.empty((0, 2 + K)) if traj.diagnostics is None else traj.diagnostics
    return LinearModeTrace(times=np.array(traj.sample_times), E_lin=rows[:, 0],
                           I_lin=rows[:, 1], coefficients=rows[:, 2:])


@dataclass(frozen=True)
class ExtinctionPipelineResult:
    T_est: float
    T_true: float
    estimate: object                 # flow.ExtinctionEstimate
    closed_loop_setup: StageSetup
    closed_loop_reports: EntropyTrace    # entropy trace of the rerun
    closed_loop_calibration: ClockCalibration


def run_extinction_pipeline(setup: StageSetup, dt_original: float = 2e-4,
                            rerun_horizon: float = 8.0,
                            rerun_dt: float = 1e-3) -> ExtinctionPipelineResult:
    """Criterion-style closed loop: march the original flow from u0 = S, stop
    at the first sample below the extrapolation's fit window
    (flow.EXTINCTION_FIT_FLOOR sup u0), extrapolate T from sup(u)^(1-m);
    then rebuild the whole rescaled stage (as many modes) with
    c = p/((p-1) T_est) and check that the rescaled flow from the original
    datum relaxes to the new stationary profile.  The rerun is
    run_nonlinear_rate_case's clock-matched run from the original datum,
    sampled every 0.1 to rerun_horizon and not fitted."""
    exps = setup.exps
    u0 = setup.profile.S.copy()
    T_true = exps.T
    dt = dt_original * T_true
    floor = EXTINCTION_FIT_FLOOR * float(u0.max())
    traj = evolve(setup.grid, exps,
                  FlowState(kind="original", field=u0, time=0.0),
                  horizon=1.5 * T_true, dt=dt,
                  sample_every=max(dt, T_true / 2000.0),
                  stop=lambda traj: traj.sups[-1] < floor)
    est = estimate_extinction_time(traj, exps.m)

    exps_est = Exponents.make(p=exps.p, T=est.T_est)
    setup_est = prepare(setup.grid.spec, exps_est, len(setup.eigs.eigenvalues))
    rerun = run_nonlinear_rate_case(setup_est, u0 ** exps.m, rerun_horizon,
                                    rerun_dt, 0.1, want_fit=False)
    return ExtinctionPipelineResult(T_est=est.T_est, T_true=T_true, estimate=est,
                                    closed_loop_setup=setup_est,
                                    closed_loop_reports=rerun.reports,
                                    closed_loop_calibration=rerun.calibration)


def _trivial(E: np.ndarray) -> bool:
    """Whether entropies E, at least one, are all at most 1e-12: a run on
    the fixed point V.  A prefix that is not trivial settles that its run
    is not either."""
    return bool(E.size and E.max() <= 1e-12)


def _fit_settled(band: EntropyBand):
    """run_rescaled's stop rule for a run that is fitted: true once the
    reports recorded so far settle the verdict of any longer run, that is,
    they are not trivial and their first passage through the band has
    closed (rates.band_passage_closed).  It reads the E_nl column of the
    reports once per recorded block: their rows are a new view only when
    evolve has recorded one."""
    last = None

    def stop(reports):
        nonlocal last
        if reports.data is last:
            return False
        last = reports.data
        E = reports.E_nl
        return not _trivial(E) and band_passage_closed(E, band)

    return stop


def _fit(setup: StageSetup, reports: EntropyTrace, band: EntropyBand):
    """fit_rate on the band.  A failure of a run that ended at its horizon
    with the passage still open above band.lo names the horizon at which
    the sharp rate 2 lambda_p / p would take the entropy down to band.lo."""
    E = reports.E_nl
    try:
        return fit_rate(reports.t, E, band)
    except NumericalFailure as exc:
        if not (E.size and 0 < band.lo < E[-1]
                and not band_passage_closed(E, band)):
            raise
        rate = 2.0 * setup.gap.lambda_p / setup.exps.p
        t_end = reports.t[-1]
        need = t_end + math.log(E[-1] / band.lo) / rate
        raise NumericalFailure(
            f"{exc}; E_nl is {E[-1]:.3g} at t = {t_end:g}, and the sharp rate "
            f"2 lambda_p / p = {rate:.6g} takes it to rates.band_lo = "
            f"{band.lo:g} by t = {need:.4g}: set flow.horizon to at least "
            f"{need:.4g}") from exc


@dataclass(frozen=True)
class NonlinearRateResult:
    calibration: ClockCalibration
    reports: EntropyTrace
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
    unmatched run has a calibration with no sigma.

    A run that is fitted treats the horizon as a cap: it stops within 8
    samples (flow.evolve's block in a run with a stop) after the one that
    closes the entropy's first passage through the band, once some entropy
    is above 1e-12.  Its reports and sigmas are then a prefix of those of
    the run taken to the horizon, and its verdict and trivial_fixed_point
    are that run's, bit for bit.  A fit that fails at the horizon with the
    entropy still above band.lo names the horizon the band needs."""
    band = band or EntropyBand()
    base = setup.grid.check_field(base_field)
    cal = (match_extinction_clock(setup, dt, cadence) if match_clock
           else ClockCalibration(sigmas=[]))
    traj, reports = run_rescaled(setup, base, horizon, dt, cadence,
                                 cal if match_clock else None,
                                 _fit_settled(band) if want_fit else None)
    trivial = _trivial(reports.E_nl)
    verdict = None
    if want_fit and not trivial:
        verdict = sharp_rate_verdict(_fit(setup, reports, band),
                                     setup.gap, setup.exps.p, tol, dt, cadence)
    return NonlinearRateResult(calibration=cal, reports=reports,
                               verdict=verdict, trivial_fixed_point=trivial,
                               step_summary=traj.step_summary())
