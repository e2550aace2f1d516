"""Weighted Dirichlet spectrum -lap phi = lambda V^(p-1) phi and gap bookkeeping.

The generalized symmetric problem A phi = lambda W phi (A the quadrature-
weighted -lap, W the diagonal of V^(p-1) against quadrature) is solved by
grid.weighted_eigenpairs: the diagonal congruence T = W^(-1/2) A W^(-1/2)
reduces it to a symmetric tridiagonal standard problem, which the LAPACK
tridiagonal eigensolver solves to full relative accuracy.
Eigenfunctions come back normalized in the weighted space:
||phi||^2 = int phi^2 V^(p-1) dx = 1.

This module is the one place that knows the weighted geometry: an
EigenSystem holds W = quad_weights * V^(p-1), formed once per setup, and the
modes as one contiguous (K, n) row array.  Every <f, phi_k>_V is
project_coefficients, rows[:k] @ (W f), and every E[f] = int f^2 V^(p-1) dx
with I[f] = int |grad f|^2 dx - c p E[f] is linear_entropy.

The discrete spectrum is simple.  On a generic domain an eigenvalue lambda_k
can have multiplicity N_k > 1, which is why the paper states its inequalities
over eigenspaces.  The interval and the radial sector of a ball, the only
domains discretised here, give an unreduced symmetric tridiagonal T: every
off-diagonal A_{i,i+1} / (d_i d_{i+1}) is nonzero.  Such a (Jacobi) matrix
has n distinct eigenvalues, so every N_k = 1 and mode k is row k - 1 of
one (K, n) eigenvector array (measured: consecutive computed eigenvalues are
at least 0.23 apart, relative, over 150 random setups).

For radial balls only the radial sector of the spectrum is computed.  The
angular modes of the full ball are invisible here; for radially symmetric
data the radial sector is the invariant subspace that actually drives the
flow, which is why ball experiments in this package are restricted to radial
initial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .grid import (Grid, apply_A, dirichlet_energy, per_field,
                   weighted_eigenpairs)


@dataclass(frozen=True)
class EigenSystem:
    """Lowest part of the weighted spectrum.

    eigenvalues: (K,) strictly ascending, each simple
    rows:        contiguous (K, n) array, row k - 1 is phi_k, weighted-orthonormal
    weight:      the weight V^(p-1) used (against plain quadrature)
    W:           quad_weights * weight, the weight against quadrature
    residuals:   (K,) relative eigen-residual of each pair
    """

    eigenvalues: np.ndarray
    rows: np.ndarray
    weight: np.ndarray
    W: np.ndarray
    residuals: np.ndarray

    def mode(self, k: int) -> np.ndarray:
        """Eigenfunction phi_k; k is 1-based as in the reports."""
        return self.rows[k - 1]

    def pairs(self):
        """Iterate (k, lambda_k, phi_k) over all computed modes."""
        return zip(range(1, len(self.eigenvalues) + 1), self.eigenvalues, self.rows)


@dataclass(frozen=True)
class GapReport:
    """Position of c*p in the weighted spectrum and derived constants.

    When h2_ok is False (c*p collides with an eigenvalue within gap_tol),
    lambda_p and gamma_p are None.
    """

    k_p: int
    cp: float
    lambda_p: float | None
    gamma_p: float | None
    h2_ok: bool
    gap_margin: float
    lambda_kp1: float | None


def weighted_eigensystem(grid: Grid, V, p: float, K: int) -> EigenSystem:
    """Lowest K eigenpairs of -lap phi = lambda V^(p-1) phi, L^2_V-normalized."""
    V = grid.check_field(V)
    if V.min() <= 0:
        raise ValueError("weight profile must be positive")
    if not 1 <= K <= grid.n // 4:
        raise ValueError(f"K = {K} out of range for n = {grid.n} "
                         f"(need 1 <= K <= n/4)")
    weight = V ** (p - 1.0)
    W = grid.quad_weights * weight
    vals, phis = weighted_eigenpairs(grid, W, K)

    # deterministic sign: largest-magnitude component positive; first mode positive
    phis *= np.sign(phis[np.argmax(np.abs(phis), axis=0), np.arange(K)])
    if phis[:, 0].min() < 0:  # first eigenfunction is positive up to sign
        phis[:, 0] = np.abs(phis[:, 0])
    rows = np.ascontiguousarray(phis.T)

    # relative eigen-residuals ||A phi - lam W phi|| / (lam ||W phi||)
    res = np.array([np.linalg.norm(apply_A(grid, phi) - lam * (W * phi))
                    / (lam * np.linalg.norm(W * phi))
                    for lam, phi in zip(vals, rows)])

    return EigenSystem(eigenvalues=vals, rows=rows, weight=weight, W=W,
                       residuals=res)


def classify_gap(eigs: EigenSystem, p: float, c: float,
                 gap_tol: float = 1e-3) -> GapReport:
    """Locate c*p in the spectrum; derive k_p, lambda_p, gamma_p and the
    empirical no-eigenvalue-collision flag."""
    cp = c * p
    lam = eigs.eigenvalues
    if lam[-1] <= cp:
        raise NumericalFailure(
            f"largest computed eigenvalue {lam[-1]:.6g} does not exceed c*p = {cp:.6g}")
    gap_margin = float(np.min(np.abs(lam - cp)) / cp)
    h2_ok = gap_margin > gap_tol
    k_p = int(np.sum(lam < cp * (1.0 - gap_tol)))
    if not h2_ok:
        return GapReport(k_p=k_p, cp=cp, lambda_p=None, gamma_p=None,
                         h2_ok=False, gap_margin=gap_margin, lambda_kp1=None)
    lam_kp1 = float(lam[k_p])
    lambda_p = lam_kp1 - cp
    gamma_p = (lam_kp1 - float(lam[0])) * k_p
    return GapReport(k_p=k_p, cp=cp, lambda_p=lambda_p, gamma_p=gamma_p,
                     h2_ok=True, gap_margin=gap_margin, lambda_kp1=lam_kp1)


def project_coefficients(grid: Grid, eigs: EigenSystem, field, k_max: int):
    """Weighted Fourier coefficients <field, phi_k>_V for k <= k_max, along
    the last axis (index k - 1) of a field or a stack of fields (..., n):
    rows[:k_max] @ (W field), one gemv per field, as for a single field."""
    f = grid.check_fields(field)
    if k_max > len(eigs.eigenvalues):
        raise ValueError(f"k_max = {k_max} exceeds computed spectrum "
                         f"({len(eigs.eigenvalues)} eigenvalues)")
    return (eigs.rows[:k_max] @ (eigs.W * f)[..., None])[..., 0]


def linear_entropy(grid: Grid, eigs: EigenSystem, cp: float, field):
    """(E, I) of a field f, or of each field of a stack (..., n): the linear
    entropy E = int f^2 V^(p-1) dx and its production
    I = int |grad f|^2 dx - cp E."""
    f = grid.check_fields(field)
    e = np.vecdot(f * f * eigs.weight, grid.quad_weights)
    return per_field(e), per_field(dirichlet_energy(grid, f) - cp * e)


def deflate(grid: Grid, eigs: EigenSystem, field, k_p: int) -> np.ndarray:
    """Remove the projections onto the first k_p modes (two passes, so the
    residual coefficients sit at the orthogonality floor, ~1e-15)."""
    f = grid.check_field(field).copy()
    for _ in range(2):
        f -= project_coefficients(grid, eigs, f, k_p) @ eigs.rows[:k_p]
    return f


@dataclass(frozen=True)
class PoincareMargins:
    """Margin of the improved Poincare inequality for a deflated field.

    margin_top:  int |grad f|^2 - lambda_{k_p+1} E[f] (E, I of linear_entropy),
                 which is I[f] - lambda_p E[f] as lambda_p = lambda_{k_p+1} - c p
    """

    margin_top: float
    energy: float       # int f^2 V^(p-1)
    dirichlet: float    # int |grad f|^2


def check_improved_poincare(grid: Grid, eigs: EigenSystem, gap: GapReport,
                            field) -> PoincareMargins:
    """Evaluate the improved Poincare inequality on a field (expected
    deflated through k_p; a negative margin is reported, not raised)."""
    e, i = linear_entropy(grid, eigs, gap.cp, field)
    dirichlet = i + gap.cp * e
    return PoincareMargins(margin_top=dirichlet - gap.lambda_kp1 * e,
                           energy=e, dirichlet=dirichlet)
