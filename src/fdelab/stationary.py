"""Stationary profiles of the semilinear problem -lap V = c V^p (Dirichlet).

V is computed by damped Newton iteration on the residual lap V + c V^p (one
tridiagonal solve per iteration), starting from a scaled first eigenfunction
of the plain Dirichlet Laplacian.  On the interval an independent oracle
reconstructs the profile from the first integral
V'^2 = (2c/(p+1)) (M^(p+1) - V^(p+1)) by scipy's quad and brentq, imported
only when it runs, without ever touching the finite-difference operator.

On the interval and on radial balls the positive solution is unique; on other
geometries (not supported here) the solution selected by Newton would depend
on the initial guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .grid import (Grid, apply_laplacian, dirichlet_energy, integrate,
                   solve_tridiagonal, weighted_eigenpairs)

_EPS = np.finfo(float).eps
_MAX_ITERS = 100     # Newton iterations before solve_stationary fails


@dataclass(frozen=True)
class Exponents:
    """Consistent exponent/parameter bundle: p = 1/m > 1 and c = p/((p-1) T).

    Exactly one of (p, m) and one of (c, T) must be supplied.
    """

    p: float
    m: float
    c: float
    T: float

    @staticmethod
    def make(p: float | None = None, m: float | None = None,
             c: float | None = None, T: float | None = None) -> "Exponents":
        if (p is None) == (m is None):
            raise ValueError("give exactly one of p, m")
        if (c is None) == (T is None):
            raise ValueError("give exactly one of c, T")
        if p is None:
            if not 0 < m < 1:
                raise ValueError(f"m must lie in (0, 1), got {m}")
            p = 1.0 / m
        else:
            if p <= 1:
                raise ValueError(f"p must exceed 1, got {p}")
            m = 1.0 / p
        if c is None:
            if T <= 0:
                raise ValueError(f"T must be positive, got {T}")
            c = p / ((p - 1.0) * T)
        else:
            if c <= 0:
                raise ValueError(f"c must be positive, got {c}")
            T = p / ((p - 1.0) * c)
        return Exponents(p=p, m=m, c=c, T=T)

    def __post_init__(self):
        if abs(self.p * self.m - 1.0) > 1e-14:
            raise ValueError("p*m must equal 1")
        if abs(self.c * (self.p - 1.0) * self.T - self.p) > 1e-12 * self.p:
            raise ValueError("c (p-1) T must equal p")

    def check_subcritical(self, ndim: int) -> None:
        """For N >= 3 require p < (N+2)/(N-2); no upper bound for N <= 2."""
        if ndim >= 3:
            p_s = (ndim + 2.0) / (ndim - 2.0)
            if self.p >= p_s:
                raise ValueError(
                    f"p = {self.p} is supercritical for N = {ndim} (p_s = {p_s})")


@dataclass(frozen=True)
class StationaryProfile:
    """Profile V > 0 with -lap V = c V^p, plus S = V^p and certificates."""

    V: np.ndarray
    S: np.ndarray
    c: float
    residual_norm: float
    newton_iters: int


def first_dirichlet_eigenpair(grid: Grid) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of -lap on the grid (unweighted), max-normalized."""
    vals, vecs = weighted_eigenpairs(grid, grid.quad_weights, 1)
    phi = np.abs(vecs[:, 0])
    return float(vals[0]), phi / phi.max()


def _residual(grid: Grid, V: np.ndarray, p: float, c: float) -> np.ndarray:
    return apply_laplacian(grid, V) + c * V ** p


def solve_stationary(grid: Grid, exps: Exponents, init=None) -> StationaryProfile:
    """Damped Newton for -lap V = c V^p, at most _MAX_ITERS iterations.

    init: None (scaled first Dirichlet eigenfunction) or a positive array.
    """
    p, c = exps.p, exps.c
    exps.check_subcritical(grid.spec.dimension if grid.spec.geometry == "ball" else 1)
    if init is None:
        lam1, phi = first_dirichlet_eigenpair(grid)
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            V = np.float64(lam1 / c) ** (1.0 / (p - 1.0)) * phi
    else:
        V = grid.check_field(init).copy()
        if V.min() <= 0:
            raise NumericalFailure("supplied initial guess is not positive")

    # float64 cancellation floor of evaluating lap V: ~ eps * |V| / h^2
    def tol(v):
        vmax = float(np.max(v))
        return 1e-13 * c * vmax ** p + 32.0 * _EPS * vmax / grid.h ** 2

    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual(grid, V, p, c)
    rnorm = float(np.abs(res).max())
    iters = 0
    for iters in range(1, _MAX_ITERS + 1):
        if not math.isfinite(rnorm) or rnorm <= tol(V):
            break
        # J = lap + c p V^(p-1), from the per-grid diagonals of -lap
        step = solve_tridiagonal(-grid.neglap_lower,
                                 -grid.neglap_diag + c * p * V ** (p - 1.0),
                                 -grid.neglap_upper, -res)
        lam = 1.0
        while lam >= 1e-10:
            Vt = V + lam * step
            if Vt.min() > 0:
                rt = _residual(grid, Vt, p, c)
                rtn = float(np.abs(rt).max())
                if rtn < rnorm:
                    V, res, rnorm = Vt, rt, rtn
                    break
            lam *= 0.5
        else:
            raise NumericalFailure(
                f"damping failed at iteration {iters} (residual {rnorm:.3e})")
    else:
        raise NumericalFailure(
            f"no convergence after {_MAX_ITERS} iterations (residual {rnorm:.3e})")

    if not (math.isfinite(rnorm) and V.min() > 0):   # the start left the range
        raise NumericalFailure(
            f"the profile's scale leaves the float range: V lies in "
            f"[{float(V.min())!r}, {float(V.max())!r}] with residual "
            f"lap V + c V^p of {rnorm!r}")
    return StationaryProfile(V=V, S=V ** p, c=c, residual_norm=rnorm,
                             newton_iters=iters)


def _inv_sqrt_gap(s: float, p: float) -> float:
    # (1 - s^(p+1))^(-1/2) with the (1-s)^(-1/2) endpoint factor removed
    if s >= 1.0:
        return (p + 1.0) ** -0.5
    g = -np.expm1((p + 1.0) * np.log(s)) / (1.0 - s) if s > 0 else 1.0
    return g ** -0.5


def _half_length(M: float, p: float, c: float, tol: float) -> float:
    """x-distance from the boundary to the maximum: integral of dV/V' over (0, M)."""
    # V'^2 = (2c/(p+1)) (M^(p+1) - V^(p+1));  substitute V = M s:
    # halflen = sqrt((p+1)/(2c)) M^((1-p)/2) * int_0^1 (1 - s^(p+1))^(-1/2) ds
    from scipy.integrate import quad
    val, _ = quad(lambda s: _inv_sqrt_gap(s, p), 0.0, 1.0,
                  weight="alg", wvar=(0.0, -0.5), epsabs=tol, epsrel=tol)
    return np.sqrt((p + 1.0) / (2.0 * c)) * M ** ((1.0 - p) / 2.0) * val


def _x_of_v(v: float, M: float, p: float, c: float, tol: float) -> float:
    """Arc length from the boundary: x(v) = int_0^v dW / V'(W)."""
    if v <= 0:
        return 0.0
    if v >= M:
        return _half_length(M, p, c, tol)
    from scipy.integrate import quad
    a = 2.0 * c / (p + 1.0)
    val, _ = quad(lambda w: (a * (M ** (p + 1.0) - w ** (p + 1.0))) ** -0.5,
                  0.0, v, epsabs=tol, epsrel=10 * tol, limit=200)
    return val


def oracle_profile_1d(exps: Exponents, n: int, length: float = 1.0,
                      tol: float = 1e-13) -> StationaryProfile:
    """Interval profile from the first integral of -V'' = c V^p (independent of
    the finite-difference machinery): root-find the maximum M from the
    half-length equation, then invert x(V) node by node.

    tol is the adaptive-quadrature tolerance; refining it changes the profile
    by less than ~10*tol (self-consistency check in the tests).
    """
    from scipy.optimize import brentq

    p, c = exps.p, exps.c
    h = length / (n + 1)
    half = length / 2.0

    # the half-length is that of M = 1 times M^((1-p)/2); the closed-form
    # root of the half-length equation brackets the brentq call
    M0 = (_half_length(1.0, p, c, tol) / half) ** (2.0 / (p - 1.0))
    lo, hi = 0.5 * M0, 2.0 * M0
    f = lambda M: _half_length(M, p, c, tol) - half
    if not (f(lo) > 0 > f(hi)):
        raise NumericalFailure(f"cannot bracket the profile maximum near {M0}")
    M = brentq(f, lo, hi, xtol=1e-15 * M0, rtol=8.9e-16)

    # profile is symmetric about length/2 and the uniform grid mirrors exactly
    V = np.empty(n)
    for i in range((n + 1) // 2):
        xi = h * (i + 1)
        if abs(xi - half) < 1e-14 * length:
            V[i] = M
        else:
            V[i] = brentq(lambda v: _x_of_v(v, M, p, c, tol) - xi, 0.0, M,
                          xtol=1e-14 * M, rtol=8.9e-16)
        V[n - 1 - i] = V[i]
    return StationaryProfile(V=V, S=V ** p, c=c, residual_norm=np.nan,
                             newton_iters=0)


def boundary_slope_bounds(grid: Grid, V) -> tuple[float, float]:
    """Extremal ratios of V to the boundary distance: c0 * dist <= V <= c1 * dist."""
    V = grid.check_field(V)
    if V.min() <= 0:
        raise ValueError("profile must be positive at interior nodes")
    ratios = V / grid.boundary_distance
    return float(ratios.min()), float(ratios.max())


def energy_identity_gap(grid: Grid, V, p: float, c: float) -> float:
    """Relative gap in the identity int |grad V|^2 = c int V^(p+1)."""
    V = grid.check_field(V)
    lhs = dirichlet_energy(grid, V)
    rhs = c * integrate(grid, V ** (p + 1.0))
    return abs(lhs - rhs) / abs(rhs)
