"""Uniform 1D grids for the interval and the radially reduced ball.

The discrete Dirichlet Laplacian is kept in a symmetric tridiagonal "weighted"
form: the matrix A with entries A[i,j] = quad_weights[i] * (-lap)[i,j] is
symmetric positive definite for both geometries.  For the interval this is the
standard 3-point stencil; for a radial ball the operator is the finite-volume
discretization of r^(1-N) (r^(N-1) u')' with a zero-flux face at r = 0, which
keeps exact symmetry under the shell-volume quadrature weights and is exact on
quadratics in r.

All integrals in the package are realized by `integrate` (node values times
quadrature weights) and all Dirichlet energies by `dirichlet_energy`, so the
energy identities and eigen-identities of the other modules hold at the
discrete level up to solver tolerances, not just up to O(h^2).  Only this
module calls LAPACK: every linear solve is `solve_tridiagonal` (dgtsv) on the
Grid's rows, every eigensolve `weighted_eigenpairs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma, pi
from sys import float_info

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .errors import ConfigError, NumericalFailure


@dataclass(frozen=True)
class DomainSpec:
    """Domain geometry: 'interval' of given length, or 'ball' of given radius
    and dimension (reduced to the radial coordinate).  `nodes` counts interior
    grid points.  An invalid field raises ConfigError, its message led by
    the field's name."""

    geometry: str            # "interval" | "ball"
    nodes: int
    length: float = 1.0      # interval length L
    dimension: int = 1       # ball dimension N (>= 1)
    radius: float = 1.0      # ball radius R

    def __post_init__(self):
        if self.geometry not in ("interval", "ball"):
            raise ConfigError(f"geometry must be interval or ball, "
                              f"got {self.geometry!r}")
        if self.nodes < 8:
            raise ConfigError(f"nodes must be at least 8, got {self.nodes}")
        if self.geometry == "interval" and self.length <= 0:
            raise ConfigError(f"length must be positive, got {self.length}")
        if self.geometry == "ball":
            if self.radius <= 0:
                raise ConfigError(f"radius must be positive, got {self.radius}")
            if self.dimension < 1 or int(self.dimension) != self.dimension:
                raise ConfigError(f"dimension must be a positive integer, "
                                  f"got {self.dimension}")
            try:   # Gamma(N/2) in |S^(N-1)| is a finite float up to N = 343
                _ball_surface(self.dimension)
            except OverflowError:
                raise ConfigError(
                    f"dimension = {self.dimension} is above 343, where "
                    f"Gamma(N/2) in the sphere's area |S^(N-1)| = "
                    f"2 pi^(N/2) / Gamma(N/2) overflows a float") from None
        h = self.extent / (self.nodes + 1)
        # 1/h^2 must be finite, and so must a ball's shell volumes, h^N to R^N
        powers = [(h, 2), (h, self.dimension), (self.radius, self.dimension)]
        for x, k in powers if self.geometry == "ball" else powers[:1]:
            with np.errstate(over="ignore", under="ignore"):
                x_k = np.float64(x) ** k
            if not float_info.min <= x_k <= float_info.max:
                name = "length" if self.geometry == "interval" else "radius"
                raise ConfigError(f"{name} = {self.extent!r} gives the grid "
                                  f"spacing h = {h!r}, and {x!r}^{k} is not a "
                                  f"finite normal float")
        if self.geometry == "ball":
            _check_shells(self, h)

    @property
    def extent(self) -> float:
        return self.length if self.geometry == "interval" else self.radius


@dataclass(frozen=True)
class Grid:
    """Discretized domain.

    coords:            interior node positions x_i = i*h, i = 1..n
    quad_weights:      positive weights realizing int_Omega . dx
    boundary_distance: dist(x_i, boundary), positive at interior nodes
    lap_offdiag/lap_diag: the symmetric tridiagonal A = W_quad * (-lap)
    neglap_lower/neglap_diag/neglap_upper: the three diagonals of
                       -lap = W_quad^-1 A (sub, main, super), built once here
                       for the tridiagonal Jacobians of the Newton solvers
    """

    spec: DomainSpec
    h: float
    coords: np.ndarray
    quad_weights: np.ndarray
    boundary_distance: np.ndarray
    lap_diag: np.ndarray       # diagonal of A
    lap_offdiag: np.ndarray    # sub/superdiagonal of A (length n-1)
    neglap_lower: np.ndarray = field(repr=False)   # lap_offdiag / quad_weights[1:]
    neglap_diag: np.ndarray = field(repr=False)    # lap_diag / quad_weights
    neglap_upper: np.ndarray = field(repr=False)   # lap_offdiag / quad_weights[:-1]

    @property
    def n(self) -> int:
        return self.spec.nodes

    def check_field(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"field has shape {f.shape}, expected ({self.n},)")
        return f

    def check_fields(self, f) -> np.ndarray:
        """A field (n,) or a stack of fields (..., n), as floats."""
        f = np.asarray(f, dtype=float)
        if f.shape[-1:] != (self.n,):
            raise ValueError(f"field has shape {f.shape}, expected (..., {self.n})")
        return f


def _ball_surface(ndim: int) -> float:
    # |S^(N-1)| = 2 pi^(N/2) / Gamma(N/2)
    return 2.0 * pi ** (ndim / 2.0) / gamma(ndim / 2.0)


def _check_shells(spec: DomainSpec, h: float) -> None:
    """Refuse a ball whose innermost or outermost shell, as build_domain
    forms it, has a quadrature weight or a diagonal entry of A (the largest
    of its row) that is not a finite normal float, as h^N must be (a
    subnormal one carries fewer than 53 bits).  Every other shell's
    entries lie between these two, and the ratios in -lap are finite, as
    1/h^2 is."""
    N, n, s = spec.dimension, spec.nodes, _ball_surface(spec.dimension)
    r_in, r_mid, r_out = (h * np.float64(k) for k in (1.5, n - 0.5, n + 0.5))
    with np.errstate(all="ignore"):
        shells = {"innermost": (s * r_in ** N / N, s * r_in ** (N - 1) / h),
                  "outermost": (s * (r_out ** N - r_mid ** N) / N,
                                s * (r_mid ** (N - 1) + r_out ** (N - 1)) / h)}
    for shell, (quad, diag) in shells.items():
        if not all(float_info.min <= x <= float_info.max for x in (quad, diag)):
            raise ConfigError(f"radius = {spec.radius!r} gives the {shell} "
                              f"shell the weight {float(quad)!r} and A entry "
                              f"{float(diag)!r}, not both finite normal floats")


def build_domain(spec: DomainSpec) -> Grid:
    """Build the grid, quadrature and the discrete Dirichlet Laplacian."""
    n = spec.nodes
    h = spec.extent / (n + 1)
    coords = h * np.arange(1, n + 1)

    if spec.geometry == "interval":
        quad = np.full(n, h)
        diag = np.full(n, 2.0 / h)
        off = np.full(n - 1, -1.0 / h)
        dist = np.minimum(coords, spec.length - coords)
    else:
        ndim = spec.dimension
        s = _ball_surface(ndim)
        faces = h * (np.arange(n + 1) + 0.5)            # r_{i+1/2}, i = 0..n
        area = faces ** (ndim - 1)
        inner = np.concatenate(([0.0], faces[1:-1]))    # node 1 owns the core [0, r_{3/2}]
        quad = s * (faces[1:] ** ndim - inner ** ndim) / ndim
        area_in = area.copy()
        area_in[0] = 0.0                                # zero flux through r = 0
        diag = s * (area_in[:-1] + area[1:]) / h
        off = -s * area[1:n] / h
        dist = spec.radius - coords

    return Grid(spec=spec, h=h, coords=coords, quad_weights=quad,
                boundary_distance=dist, lap_diag=diag, lap_offdiag=off,
                neglap_lower=off / quad[1:], neglap_diag=diag / quad,
                neglap_upper=off / quad[:-1])


def apply_A(grid: Grid, f: np.ndarray) -> np.ndarray:
    """A f for the weighted tridiagonal A = W_quad * (-lap), along the last
    axis of a field or a stack of fields (..., n); f is not checked."""
    af = grid.lap_diag * f
    below, above = af[..., 1:], af[..., :-1]   # += on views writes through
    below += grid.lap_offdiag * f[..., :-1]
    above += grid.lap_offdiag * f[..., 1:]
    return af


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system (sub, main, super diagonals) by LAPACK
    dgtsv, Gaussian elimination with partial pivoting.  The four arrays may
    be overwritten."""
    *_, x, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info > 0:
        raise NumericalFailure("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x


def apply_laplacian(grid: Grid, field) -> np.ndarray:
    """Discrete Laplacian (NOT negated) with homogeneous Dirichlet data."""
    return -apply_A(grid, grid.check_field(field)) / grid.quad_weights


def weighted_eigenpairs(grid: Grid, W, k: int):
    """Lowest k eigenpairs (ascending values, W-orthonormal (n, k) vectors)
    of A phi = lam W phi, W = quad_weights * a weight > 0, by eigh_tridiagonal
    on the congruence D^-1 A D^-1, D = W^(1/2).  A weight vanishing at the
    boundary, like V^(p-1), makes ||D^-1 A D^-1|| huge (1.4e10 at p = 3.9,
    n = 290), so tol = 2 tiny, not eps ||.||, keeps full relative accuracy.
    A congruence beyond the float range (a weight underflowing to 0) raises
    NumericalFailure."""
    d = np.sqrt(W)
    with np.errstate(over="ignore", divide="ignore"):
        diag = grid.lap_diag / d ** 2
        off = grid.lap_offdiag / (d[:-1] * d[1:])
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailure("the weighted operator W^(-1/2) A W^(-1/2) "
                               "leaves the float range")
    try:
        vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, k - 1),
                                      tol=2.0 * np.finfo(float).tiny)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return vals, vecs / d[:, None]


def integrate(grid: Grid, field) -> float:
    """Quadrature realization of int_Omega field dx."""
    return float(np.dot(grid.quad_weights, grid.check_field(field)))


def largest(a) -> float:
    """max(a) over every element of a field or a stack, as a Python float:
    the element at argmax, which is what ufunc.reduce returns for about a
    third of its per-call cost.  A NaN anywhere is returned, as argmax finds
    the first one.  Only a +0/-0 tie may return the other zero: every caller
    compares the value with <=, < or ==, or takes it of absolute values or of
    positive powers, where no zero's sign can show."""
    return a.item(a.argmax())


def smallest(a) -> float:
    """min(a) as the element at argmin: see largest."""
    return a.item(a.argmin())


def per_field(x):
    """A reduction over the last axis: a float for one field, the (...)
    array for a stack of fields."""
    return float(x) if x.ndim == 0 else x


def dirichlet_energy(grid: Grid, f):
    """int |grad f|^2 dx as the quadratic form <-lap f, f>_quad (f^T A f),
    for a field or, row by row, a stack of fields (..., n): np.vecdot calls
    ddot per row, so a row has np.dot's bits."""
    f = grid.check_fields(f)
    return per_field(np.vecdot(f, apply_A(grid, f)))
