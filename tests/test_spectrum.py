"""Weighted eigensystem, gap classification, projections, improved Poincare."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdelab as F
from fdelab.spectrum import EigenSystem


def interval(n):
    return F.build_domain(F.DomainSpec(geometry="interval", nodes=n))


def closed_form_interval_eigenvalues(p, c, K):
    """On the interval the weighted spectrum is exactly solvable:
    lambda_k = c k ((p+1) k - (p-1)) / 2.  Independent cross-check."""
    k = np.arange(1, K + 1)
    return c * k * ((p + 1.0) * k - (p - 1.0)) / 2.0


class TestWeightedEigensystem:
    def test_first_pair_is_c_and_normalized_profile(self, interval_p2):
        s = interval_p2
        c = s.exps.c
        assert abs(s.eigs.eigenvalues[0] - c) / c < 1e-8
        vnorm = s.profile.V / np.sqrt(
            F.inner_product_weighted(s.grid, s.profile.V, s.profile.V, s.eigs.weight))
        diff = vnorm - s.eigs.mode(1)
        err = np.sqrt(F.inner_product_weighted(s.grid, diff, diff, s.eigs.weight))
        assert err < 1e-8

    def test_unit_weight_recovers_classical_spectrum(self):
        g = interval(255)
        eigs = F.weighted_eigensystem(g, np.ones(255), p=3.7, K=4)
        k = np.arange(1, 5)
        # discrete 3-point eigenvalues are exactly (4/h^2) sin^2(k pi h / 2)
        disc = 4.0 / g.h ** 2 * np.sin(k * np.pi * g.h / 2.0) ** 2
        assert np.max(np.abs(eigs.eigenvalues - disc)) < 1e-9 * disc[-1]
        assert np.max(np.abs(eigs.eigenvalues / (k * np.pi) ** 2 - 1.0)) < 1e-3
        phi1 = np.sqrt(2.0) * np.sin(np.pi * g.coords)
        assert np.max(np.abs(eigs.mode(1) - phi1)) < 1e-10

    def test_near_linear_limit_ratio(self):
        g = interval(257)
        prof = F.solve_stationary(g, F.Exponents.make(p=1.05, c=np.pi ** 2))
        eigs = F.weighted_eigensystem(g, prof.V, 1.05, K=3)
        assert abs(eigs.eigenvalues[1] / eigs.eigenvalues[0] - 4.0) < 0.12  # 3%

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_interval_closed_form_spectrum(self, p):
        g = interval(257)
        prof = F.solve_stationary(g, F.Exponents.make(p=p, c=1.0))
        eigs = F.weighted_eigensystem(g, prof.V, p, K=4)
        exact = closed_form_interval_eigenvalues(p, 1.0, 4)
        assert np.max(np.abs(eigs.eigenvalues / exact - 1.0)) < 5e-4

    def test_orthonormality_and_residuals(self, interval_p2, ball_p2):
        for s in (interval_p2, ball_p2):
            modes = [phi for _, _, phi in s.eigs.pairs()]
            gram = np.array([[F.inner_product_weighted(s.grid, a, b, s.eigs.weight)
                              for b in modes] for a in modes])
            assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-8
            assert np.max(s.eigs.residuals) < 1e-8
            assert s.eigs.mode(1).min() > 0

    def test_rayleigh_identity(self, interval_p2):
        s = interval_p2
        for k, lam, phi in s.eigs.pairs():
            grad = F.dirichlet_energy(s.grid, phi)
            norm = F.inner_product_weighted(s.grid, phi, phi, s.eigs.weight)
            assert abs(grad - lam * norm) <= 1e-6 * abs(grad)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([None, 1, 2, 3]), p=st.floats(1.2, 4.0),
           c=st.floats(0.5, 5.0), n=st.integers(33, 300))
    def test_first_pair_is_c_and_profile_on_random_setups(self, dim, p, c, n):
        # lambda_1 = c with phi_1 = V/||V||_V holds exactly for the discrete
        # operator, up to the Newton and eigensolver tolerances; V^(p-1)
        # vanishes at the boundary, which is what makes it hard at large p
        if dim is None:
            spec = F.DomainSpec(geometry="interval", nodes=n)
        else:
            spec = F.DomainSpec(geometry="ball", nodes=n, dimension=dim)
        g = F.build_domain(spec)
        V = F.solve_stationary(g, F.Exponents.make(p=p, c=c)).V
        eigs = F.weighted_eigensystem(g, V, p, K=4)
        assert abs(eigs.eigenvalues[0] - c) / c <= 1e-9
        diff = V / np.sqrt(F.inner_product_weighted(g, V, V, eigs.weight)) \
            - eigs.mode(1)
        assert np.sqrt(F.inner_product_weighted(g, diff, diff, eigs.weight)) <= 1e-10
        assert np.max(eigs.residuals) <= 1e-8
        # the spectrum is simple (fdelab.spectrum): consecutive eigenvalues
        # stay far apart (worst measured 0.23 relative)
        lam = eigs.eigenvalues
        assert np.min(np.diff(lam) / lam[1:]) >= 0.1

    def test_weight_and_rows_formed_once(self, interval_p2, ball_p2):
        for s in (interval_p2, ball_p2):
            eigs = s.eigs
            assert np.array_equal(eigs.W, s.grid.quad_weights * eigs.weight)
            assert eigs.rows.flags.c_contiguous
            assert eigs.rows.shape == (len(eigs.eigenvalues), s.grid.n)
            for k, _, phi in eigs.pairs():
                assert np.array_equal(phi, eigs.mode(k))
                assert np.array_equal(phi, eigs.eigenfunctions[:, k - 1])

    def test_input_validation(self):
        g = interval(64)
        with pytest.raises(ValueError):
            F.weighted_eigensystem(g, np.zeros(64), 2.0, K=3)
        with pytest.raises(ValueError):
            F.weighted_eigensystem(g, np.ones(64), 2.0, K=33)


class TestClassifyGap:
    def test_near_linear_limit(self):
        # lambda_p -> lambda_2 - lambda_1 = 3 pi^2 as p -> 1
        g = interval(257)
        p, c = 1.05, np.pi ** 2
        prof = F.solve_stationary(g, F.Exponents.make(p=p, c=c))
        eigs = F.weighted_eigensystem(g, prof.V, p, K=4)
        gap = F.classify_gap(eigs, p, c)
        assert gap.h2_ok and gap.k_p == 1
        assert abs(gap.lambda_p - 3.0 * np.pi ** 2) / (3.0 * np.pi ** 2) < 0.05

    def test_forced_collision(self, interval_p2):
        s = interval_p2
        lam = s.eigs.eigenvalues.copy()
        lam[1] = s.gap.cp      # synthetic: lambda_2 = c p exactly
        fake = EigenSystem(eigenvalues=lam, rows=s.eigs.rows,
                           weight=s.eigs.weight, W=s.eigs.W,
                           residuals=s.eigs.residuals)
        rep = F.classify_gap(fake, s.exps.p, s.exps.c)
        assert not rep.h2_ok
        assert rep.lambda_p is None and rep.gamma_p is None

    def test_ball_gap_open(self, ball_p2):
        assert ball_p2.gap.h2_ok
        assert ball_p2.gap.lambda_p > 0
        assert ball_p2.gap.gamma_p > 0

    def test_spectrum_too_short(self, interval_p2):
        s = interval_p2
        short = EigenSystem(eigenvalues=s.eigs.eigenvalues[:1],
                            rows=s.eigs.rows[:1],
                            weight=s.eigs.weight, W=s.eigs.W,
                            residuals=s.eigs.residuals[:1])
        with pytest.raises(F.NumericalFailure, match=r"does not exceed c\*p"):
            F.classify_gap(short, s.exps.p, s.exps.c)


class TestProjections:
    def test_single_mode(self, interval_p2):
        s = interval_p2
        coeffs = F.project_coefficients(s.grid, s.eigs, s.eigs.mode(2), k_max=4)
        assert abs(coeffs[1] - 1.0) < 1e-8
        others = [c for k, c in enumerate(coeffs) if k != 1]
        assert max(abs(c) for c in others) < 1e-8

    def test_profile_projects_to_first_mode_only(self, interval_p2):
        s = interval_p2
        coeffs = F.project_coefficients(s.grid, s.eigs, s.profile.V, k_max=4)
        vnorm = np.sqrt(F.inner_product_weighted(s.grid, s.profile.V, s.profile.V,
                                                 s.eigs.weight))
        assert abs(coeffs[0] - vnorm) < 1e-8 * vnorm
        assert max(abs(float(coeffs[k])) for k in range(1, 4)) < 1e-8 * vnorm

    def test_plancherel(self, interval_p2):
        s = interval_p2
        f = 3.0 * s.eigs.mode(1) + 4.0 * s.eigs.mode(2)
        coeffs = F.project_coefficients(s.grid, s.eigs, f, k_max=4)
        total = float(np.sum(coeffs ** 2))
        norm2 = F.inner_product_weighted(s.grid, f, f, s.eigs.weight)
        assert abs(total - 25.0) < 1e-8
        assert abs(total - norm2) < 1e-8

    def test_k_max_bound(self, interval_p2):
        s = interval_p2
        with pytest.raises(ValueError):
            F.project_coefficients(s.grid, s.eigs, s.profile.V, k_max=99)


class TestDeflate:
    def test_exact_removal(self, interval_p2):
        s = interval_p2
        kp = s.gap.k_p
        f = s.eigs.mode(1) + s.eigs.mode(kp + 1)
        out = F.deflate(s.grid, s.eigs, f, kp)
        assert np.max(np.abs(out - s.eigs.mode(kp + 1))) < 1e-8

    def test_idempotent(self, interval_p2):
        s = interval_p2
        rng = np.random.RandomState(11)
        f = rng.standard_normal(s.grid.n)
        once = F.deflate(s.grid, s.eigs, f, s.gap.k_p)
        twice = F.deflate(s.grid, s.eigs, once, s.gap.k_p)
        assert np.max(np.abs(once - twice)) < 1e-12 * np.max(np.abs(once))

    def test_deflated_coefficients_at_floor(self, interval_p2):
        s = interval_p2
        rng = np.random.RandomState(12)
        f = rng.standard_normal(s.grid.n)
        out = F.deflate(s.grid, s.eigs, f, s.gap.k_p)
        coeffs = F.project_coefficients(s.grid, s.eigs, out, k_max=s.gap.k_p)
        scale = np.sqrt(F.inner_product_weighted(s.grid, f, f, s.eigs.weight))
        assert max(abs(float(b)) for b in coeffs) < 1e-10 * scale


class TestImprovedPoincare:
    def test_equality_at_bottom_of_deflated_spectrum(self, interval_p2):
        s = interval_p2
        phi = s.eigs.mode(s.gap.k_p + 1)
        m = F.check_improved_poincare(s.grid, s.eigs, s.gap, phi)
        assert abs(m.margin_top) <= 1e-6 * m.dirichlet
        assert abs(m.margin_gap) <= 1e-6 * m.dirichlet

    def test_next_mode_margin_is_spectral_gap(self, interval_p2):
        s = interval_p2
        kp = s.gap.k_p
        phi = s.eigs.mode(kp + 2)
        m = F.check_improved_poincare(s.grid, s.eigs, s.gap, phi)
        expect = (s.eigs.eigenvalues[kp + 1] - s.eigs.eigenvalues[kp]) * m.energy
        assert abs(m.margin_top - expect) <= 1e-6 * expect

    def test_hundred_random_deflated_fields(self, interval_p2):
        s = interval_p2
        rng = np.random.RandomState(2024)
        for _ in range(100):
            f = F.deflate(s.grid, s.eigs, rng.standard_normal(s.grid.n), s.gap.k_p)
            m = F.check_improved_poincare(s.grid, s.eigs, s.gap, f)
            norm2 = float(np.dot(f, f))
            assert m.margin_top >= -1e-8 * norm2
            assert m.margin_gap >= -1e-8 * norm2

    def test_almost_orthogonal_poincare(self, interval_p2):
        # low-mode mass eps allows int|grad|^2 >= (cp + lambda_p - gamma_p eps^2) E
        s = interval_p2
        rng = np.random.RandomState(77)
        for eps in (0.3, 0.1, 0.01):
            tail = F.deflate(s.grid, s.eigs, rng.standard_normal(s.grid.n), s.gap.k_p)
            tail /= np.sqrt(F.inner_product_weighted(s.grid, tail, tail, s.eigs.weight))
            f = tail.copy()
            for k in range(1, s.gap.k_p + 1):
                f = f + eps * 0.9 * s.eigs.mode(k)
            e_v = F.inner_product_weighted(s.grid, f, f, s.eigs.weight)
            # quotients of f against the low modes are eps*0.9/||f|| <= eps
            dir_energy = F.dirichlet_energy(s.grid, f)
            bound = (s.gap.cp + s.gap.lambda_p - s.gap.gamma_p * eps ** 2) * e_v
            assert dir_energy >= bound - 1e-8 * e_v
