"""Stationary solver, first-integral oracle and profile certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import fdelab as F
from fdelab.stationary import energy_identity_gap

EPS = np.finfo(float).eps


def interval(n):
    return F.build_domain(F.DomainSpec(geometry="interval", nodes=n))


def ball(n):
    return F.build_domain(F.DomainSpec(geometry="ball", nodes=n, dimension=3))


class TestExponents:
    def test_derivations(self):
        e = F.Exponents.make(p=2.0, c=1.0)
        assert e.m == 0.5 and e.T == 2.0
        e = F.Exponents.make(m=0.5, T=2.0)
        assert e.p == 2.0 and e.c == 1.0
        assert abs(e.p * e.m - 1.0) < 1e-15
        assert abs(e.c * (e.p - 1) * e.T - e.p) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1.0, 100.0, exclude_min=True), c=st.floats(1e-6, 1e6))
    def test_make_round_trips(self, p, c):
        # p -> m -> p and c -> T -> c, each at fixed partner, to a few ulps
        e = F.Exponents.make(p=p, c=c)
        assert F.Exponents.make(m=e.m, c=c).p == pytest.approx(p, rel=4 * EPS)
        back = F.Exponents.make(p=p, T=e.T)
        assert back.c == pytest.approx(c, rel=8 * EPS)
        assert F.Exponents.make(p=p, c=back.c).T == pytest.approx(e.T, rel=16 * EPS)

    def test_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            F.Exponents.make(p=2.0, m=0.5, c=1.0)
        with pytest.raises(ValueError):
            F.Exponents.make(p=2.0)
        with pytest.raises(ValueError):
            F.Exponents.make(p=0.9, c=1.0)
        with pytest.raises(ValueError):
            F.Exponents.make(m=1.5, c=1.0)
        with pytest.raises(ValueError):
            F.Exponents.make(p=2.0, c=-1.0)

    def test_subcritical_range(self):
        F.Exponents.make(p=4.9, c=1.0).check_subcritical(3)   # p_s = 5 for N = 3
        with pytest.raises(ValueError):
            F.Exponents.make(p=5.0, c=1.0).check_subcritical(3)
        F.Exponents.make(p=50.0, c=1.0).check_subcritical(2)  # no bound for N <= 2


def oracle_max(p, c, length=1.0):
    """Profile maximum from the half-length equation, recomputed from scratch."""
    val, _ = quad(lambda s: (1.0 - s ** (p + 1.0)) ** -0.5, 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, points=[1.0], limit=200)
    return ((2.0 / length) * np.sqrt((p + 1.0) / (2.0 * c)) * val) ** (2.0 / (p - 1.0))


class TestSolveStationary:
    def test_profile_maximum_vs_first_integral(self):
        # p = 2, c = 1: half-length 1/2 = sqrt(3/2) M^(-1/2) int_0^1 ds/sqrt(1-s^3)
        g = interval(257)
        prof = F.solve_stationary(g, F.Exponents.make(p=2.0, c=1.0))
        assert abs(prof.V.max() - oracle_max(2.0, 1.0)) < 2e-4

    def test_residual_and_energy_identity(self):
        for g in (interval(129), ball(129)):
            exps = F.Exponents.make(p=2.0, c=1.0)
            prof = F.solve_stationary(g, exps)
            res = np.max(np.abs(np.asarray(F.apply_laplacian(g, prof.V))
                                + exps.c * prof.V ** exps.p))
            assert res <= 1e-10 * prof.V.max()
            assert energy_identity_gap(g, prof.V, exps.p, exps.c) < 1e-8
            assert prof.newton_iters < 20

    def test_positivity_and_unimodality(self):
        for g in (interval(129), ball(129)):
            prof = F.solve_stationary(g, F.Exponents.make(p=1.5, c=2.0))
            assert prof.V.min() > 0
            sign_changes = np.sum(np.abs(np.diff(np.sign(np.diff(prof.V)))) > 0)
            assert sign_changes <= 1

    def test_scaling_equivariance(self):
        # if V solves for (p, c), a V solves for c a^(1-p)
        g = interval(129)
        p, a = 2.0, 1.7
        base = F.solve_stationary(g, F.Exponents.make(p=p, c=1.0))
        scaled = F.solve_stationary(g, F.Exponents.make(p=p, c=a ** (1.0 - p)),
                                    init=a * base.V)
        assert np.max(np.abs(scaled.V - a * base.V)) <= 1e-8 * a * base.V.max()

    def test_near_linear_limit_matches_eigenfunction_shape(self):
        g = interval(257)
        prof = F.solve_stationary(g, F.Exponents.make(p=1.01, c=np.pi ** 2))
        shape = np.sin(np.pi * g.coords)
        vn = prof.V / np.sqrt(F.integrate(g, prof.V ** 2))
        sn = shape / np.sqrt(F.integrate(g, shape ** 2))
        assert np.max(np.abs(vn - sn)) / sn.max() < 0.02

    def test_supplied_s_shape_also_converges(self):
        g = interval(129)
        exps = F.Exponents.make(p=2.0, c=1.0)
        ref = F.solve_stationary(g, exps)
        prof = F.solve_stationary(g, exps, init=1.3 * ref.V)
        assert np.max(np.abs(prof.V - ref.V)) < 1e-8 * ref.V.max()

    def test_error_paths(self, monkeypatch):
        g = interval(129)
        exps = F.Exponents.make(p=2.0, c=1.0)
        with pytest.raises(F.NumericalFailure,
                           match="supplied initial guess is not positive"):
            F.solve_stationary(g, exps, init=-np.ones(129))
        monkeypatch.setattr("fdelab.stationary._MAX_ITERS", 0)
        with pytest.raises(F.NumericalFailure, match="no convergence after 0 iterations"):
            F.solve_stationary(g, exps)
        with pytest.raises(ValueError):
            gb = F.build_domain(F.DomainSpec(geometry="ball", nodes=64, dimension=3))
            F.solve_stationary(gb, F.Exponents.make(p=6.0, c=1.0))


class TestOracle:
    def test_maximum_p2_and_p3(self):
        for p in (2.0, 3.0):
            prof = F.oracle_profile_1d(F.Exponents.make(p=p, c=1.0), n=65)
            assert abs(prof.V.max() - oracle_max(p, 1.0)) < 1e-9 * prof.V.max()

    def test_self_consistency_under_quadrature_refinement(self):
        exps = F.Exponents.make(p=2.0, c=1.0)
        coarse = F.oracle_profile_1d(exps, n=65, tol=1e-10)
        fine = F.oracle_profile_1d(exps, n=65, tol=1e-13)
        assert np.max(np.abs(coarse.V - fine.V)) <= 1e-10 * fine.V.max()

    def test_symmetric_positive_unimodal(self):
        prof = F.oracle_profile_1d(F.Exponents.make(p=1.2, c=1.0), n=64)
        assert prof.V.min() > 0
        assert np.max(np.abs(prof.V - prof.V[::-1])) < 1e-12 * prof.V.max()

    def test_matches_newton_solver(self):
        # plain O(h^2) agreement at n = 129; acceptance criterion 1 checks the
        # 1e-6 budget on the Richardson limit of nested n = 1024/2049 solves
        g = interval(129)
        exps = F.Exponents.make(p=2.0, c=1.0)
        newt = F.solve_stationary(g, exps)
        orac = F.oracle_profile_1d(exps, n=129)
        assert np.max(np.abs(newt.V - orac.V)) / orac.V.max() < 5e-5


class TestBoundarySlopes:
    def test_sine_ratios(self):
        g = interval(513)
        c0, c1 = F.boundary_slope_bounds(g, np.sin(np.pi * g.coords))
        assert abs(c0 - 2.0) < 1e-3          # attained at x = 1/2
        assert abs(c1 - np.pi) < 1e-3        # limit at the boundary

    def test_parabola_ratios(self):
        g = interval(129)
        c0, c1 = F.boundary_slope_bounds(g, g.coords * (1.0 - g.coords))
        assert c0 >= 0.5 - 1e-12 and c1 <= 1.0 + 1e-12

    def test_computed_profile_nondegenerate(self):
        g = interval(257)
        prof = F.solve_stationary(g, F.Exponents.make(p=2.0, c=1.0))
        c0, c1 = F.boundary_slope_bounds(g, prof.V)
        assert 0 < c0 <= c1 < np.inf
        assert c1 / c0 <= 10.0

    def test_rejects_nonpositive(self):
        g = interval(129)
        with pytest.raises(ValueError):
            F.boundary_slope_bounds(g, np.zeros(129))
