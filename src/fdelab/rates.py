"""Exponential-rate extraction, the delay-ODE barrier, and the rate verdict.

fit_rate performs least squares on log E versus t.  The EntropyBand policy
selects the first contiguous monotone passage of the trace through the band,
so that a trace which bottoms out (solver noise floor, residual instability)
and re-enters the band never pollutes the fit.  _band_first_passage is the one
definition of that passage: it runs from the first positive sample in the band
while each next sample stays in the band and not above its predecessor.  The
passage has closed once a sample after it breaks that rule (band_passage_closed);
no later sample can then change the fit, so a run may stop there.  It closes
either below band.lo or by a rise while still above it, where the trace
floors inside the band; fit_rate reads no rate off a passage that ends at a
floor.

The delay machinery realizes the barrier for Y' <= -lam Y + Y^sigma(t-1) Y:
the closed-form supersolution

    Ybar(t) = lam^(1/sigma) e^(-lam t) / [e^(-lam sigma (t-1)) + C]^(1/sigma),
    C = lam Y(t0)^(-sigma) - 1 > 0,

and an RK4 integrator (method of steps, cubic dense interpolation of the
delayed value) for the saturated equation Y' = -lam Y + Y^sigma(t-1) Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .flow import sample_rate
from .spectrum import GapReport

_CAP = 1e12     # integrate_delay_ode fails once Y exceeds this


@dataclass(frozen=True)
class ExplicitWindow:
    t_lo: float
    t_hi: float


@dataclass(frozen=True)
class EntropyBand:
    lo: float = 1e-10
    hi: float = 1e-4


@dataclass(frozen=True)
class RateFit:
    lambda_fit: float          # decay rate (positive for decaying traces)
    window: tuple
    r_squared: float
    stderr: float
    n_samples: int


def _band_first_passage(E: np.ndarray, lo: float,
                        hi: float) -> tuple[slice, bool] | None:
    """The samples of E's first monotone passage through [lo, hi] and
    whether a rise closed it (the sample after it is above its predecessor
    and not below lo), or None if no positive sample lies in the band."""
    inside = np.nonzero((E > 0) & (E <= hi) & (E >= lo))[0]
    if inside.size == 0:
        return None
    first = int(inside[0])
    last = first
    while last + 1 < E.size and lo <= E[last + 1] <= E[last]:
        last += 1
    return slice(first, last + 1), last + 1 < E.size and E[last + 1] >= lo


def band_passage_closed(entropies, band: EntropyBand) -> bool:
    """Whether the trace's first passage through the band has closed: a
    sample after it lies below band.lo or above its predecessor, so that
    fit_rate's window is that of every longer trace with this prefix."""
    E = np.asarray(entropies, dtype=float)
    passage = _band_first_passage(E, band.lo, band.hi)
    return passage is not None and passage[0].stop < E.size


def fit_rate(times, entropies, window_policy) -> RateFit:
    """Least-squares slope of log E versus t inside the window."""
    t = np.asarray(times, dtype=float)
    E = np.asarray(entropies, dtype=float)
    if isinstance(window_policy, ExplicitWindow):
        sel = (t >= window_policy.t_lo) & (t <= window_policy.t_hi) & (E > 0)
        if sel.sum() < 10:
            raise NumericalFailure(
                f"only {int(sel.sum())} positive samples in the window")
    elif isinstance(window_policy, EntropyBand):
        lo, hi = window_policy.lo, window_policy.hi
        passage = _band_first_passage(E, lo, hi)
        if passage is None:
            raise NumericalFailure(f"no samples with entropy in [{lo:g}, {hi:g}]")
        sl, rose = passage
        if rose:
            raise NumericalFailure(
                f"the first band passage ends in a rise at E_nl = "
                f"{E[sl.stop - 1]:.3g}, above rates.band_lo = {lo:g}: the "
                f"entropy floors inside the band, so no rate can be read off it")
        if sl.stop - sl.start < 10:
            raise NumericalFailure(
                f"only {sl.stop - sl.start} samples in the first band passage")
        sel = np.zeros(t.size, dtype=bool)
        sel[sl] = True
    else:
        raise TypeError("window_policy must be ExplicitWindow or EntropyBand")

    tw, yw = t[sel], np.log(E[sel])
    A = np.vstack([tw, np.ones(tw.size)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, yw, rcond=None)
    resid = yw - (slope * tw + intercept)
    dof = max(tw.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    tvar = float(np.sum((tw - tw.mean()) ** 2))
    stderr = np.sqrt(sigma2 / tvar) if tvar > 0 else np.inf
    ss_tot = float(np.sum((yw - yw.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(lambda_fit=float(-slope), window=(float(tw[0]), float(tw[-1])),
                   r_squared=r2, stderr=stderr, n_samples=int(tw.size))


def delay_supersolution(lam: float, sigma: float, Y_t0: float, t0: float,
                        t) -> np.ndarray | float:
    """Closed-form barrier Ybar(t) for t >= t0, with C = lam Y_t0^(-sigma) - 1."""
    C = lam * Y_t0 ** (-sigma) - 1.0
    if C <= 0:
        raise NumericalFailure(
            f"C = {C:.6g} <= 0; enlarge t0 (Y(t0) must be < lam^(1/sigma))")
    t = np.asarray(t, dtype=float)
    val = lam ** (1.0 / sigma) * np.exp(-lam * t) \
        / (np.exp(-lam * sigma * (t - 1.0)) + C) ** (1.0 / sigma)
    return float(val) if val.ndim == 0 else val


def supersolution_residual(lam: float, sigma: float, Y_t0: float, t0: float, t):
    """Ybar'(t) + lam Ybar(t) - Ybar^sigma(t-1) Ybar(t), by central differences
    of the closed form (step 1e-6); analytically nonnegative."""
    t = np.asarray(t, dtype=float)
    yb = delay_supersolution(lam, sigma, Y_t0, t0, t)
    der = (delay_supersolution(lam, sigma, Y_t0, t0, t + 1e-6)
           - delay_supersolution(lam, sigma, Y_t0, t0, t - 1e-6)) / 2e-6
    delayed = delay_supersolution(lam, sigma, Y_t0, t0, t - 1.0)
    return der + lam * yb - delayed ** sigma * yb


@dataclass(frozen=True)
class DelayOdeRun:
    times: np.ndarray
    values: np.ndarray


def integrate_delay_ode(lam: float, sigma: float, history, t0: float,
                        horizon: float, dt: float = 1e-3) -> DelayOdeRun:
    """RK4 (method of steps) for Y' = -lam Y + Y^sigma(t-1) Y on [t0, t0+horizon].

    history: callable on [t0-1, t0] (positive).  The delayed value inside each
    unit window comes from a cubic spline of the previous window's dense
    output, preserving the RK4 order.  Y above _CAP is a NumericalFailure.
    """
    from scipy.interpolate import CubicSpline

    if dt <= 0 or dt > 1.0:
        raise ValueError("dt must lie in (0, 1]")
    y0 = float(history(t0))
    if y0 <= 0:
        raise ValueError("history must be positive at t0")

    all_t = [t0]
    all_y = [y0]
    windows = int(np.ceil(horizon - 1e-12))
    t_end = t0 + horizon
    delayed_fn = history
    for w in range(windows):
        w_start = t0 + w
        w_stop = min(w_start + 1.0, t_end)
        ts = [all_t[-1]]
        ys = [all_y[-1]]
        t, y = ts[0], ys[0]
        while t < w_stop - 1e-12:
            step = min(dt, w_stop - t)

            def rhs(tt, yy):
                return -lam * yy + float(delayed_fn(tt - 1.0)) ** sigma * yy

            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * step, y + 0.5 * step * k1)
            k3 = rhs(t + 0.5 * step, y + 0.5 * step * k2)
            k4 = rhs(t + step, y + step * k3)
            y = y + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + step
            if not np.isfinite(y) or y > _CAP:
                raise NumericalFailure(f"Y exceeded the cap {_CAP:g} at t = {t:.6g}")
            ts.append(t)
            ys.append(y)
        all_t.extend(ts[1:])
        all_y.extend(ys[1:])
        delayed_fn = CubicSpline(np.array(ts), np.array(ys))
    return DelayOdeRun(times=np.array(all_t), values=np.array(all_y))


@dataclass(frozen=True)
class RateVerdict:
    passed: bool
    lambda_fit: float
    target: float               # 2 lambda_p / p
    rel_error: float
    tol: float
    lambda_p: float
    k_p: int
    p: float
    fit: RateFit
    target_dt: float            # 2 flow.sample_rate(lambda_p / p, dt, cadence)
    rel_error_dt: float


def sharp_rate_verdict(fit: RateFit, gap: GapReport, p: float,
                       tol: float = 0.05, dt: float = 0.0,
                       cadence: float | None = None) -> RateVerdict:
    """Compare the fitted entropy decay rate with the spectral prediction
    2 lambda_p / p at relative tolerance tol.

    Also reports target_dt = 2 flow.sample_rate(lambda_p / p, dt, cadence),
    the entropy rate of the slowest mode on the run's sample lattice (by
    default sampled every step dt; target at dt = 0).  The PASS rule uses
    the continuum target."""
    if not gap.h2_ok:
        raise NumericalFailure(
            f"c p = {gap.cp:.6g} collides with the spectrum "
            f"(margin {gap.gap_margin:.3e})")
    target = 2.0 * gap.lambda_p / p
    rel = abs(fit.lambda_fit - target) / target
    target_dt = 2.0 * sample_rate(gap.lambda_p / p, dt, cadence or dt)
    return RateVerdict(passed=bool(rel <= tol), lambda_fit=fit.lambda_fit,
                       target=target, rel_error=rel, tol=tol,
                       lambda_p=gap.lambda_p, k_p=gap.k_p, p=p, fit=fit,
                       target_dt=float(target_dt),
                       rel_error_dt=float(abs(fit.lambda_fit - target_dt) / target_dt))
