"""Entropy functionals, comparison inequalities and trace checks."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fdelab as F
from fdelab.diagnostics import (EntropyReport, _gauss_legendre, _kernel_sums,
                                _node_count, ao_window, decaying_prefix,
                                entropy_density, power_difference, trace_rows)


def analytic_remainder_kappa(p, c):
    """Small-delta limit of the cubic-remainder constant:
    c (p+1)(p-1)/6 * [(p+1) + |p-2|]."""
    return c * (p ** 2 - 1.0) / 6.0 * ((p + 1.0) + abs(p - 2.0))


def report_for(setup, v, t=0.0):
    weights = F.ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                   setup.eigs, setup.gap)
    return F.entropy_report(weights, v, t)


class TestStablePowerDifferences:
    def test_matches_naive_at_moderate_amplitude(self, interval_p2_small):
        V = interval_p2_small.profile.V
        rng = np.random.RandomState(1)
        f = 1e-3 * V * rng.uniform(-1, 1, V.size)
        for q in (1.5, 2.0, 3.0, 3.5):
            naive = (V + f) ** q - V ** q
            stable = power_difference(V, f, q)
            assert np.max(np.abs(stable - naive)) <= 1e-10 * np.max(np.abs(naive))

    def test_entropy_density_nonnegative_and_quadratic(self, interval_p2_small):
        V = interval_p2_small.profile.V
        phi = interval_p2_small.eigs.mode(2)
        p = interval_p2_small.exps.p
        for eps in (1e-10, 1e-7, 1e-4):
            d1 = entropy_density(V, eps * phi, p)
            d2 = entropy_density(V, 2.0 * eps * phi, p)
            assert np.all(d1 >= 0)
            nz = np.abs(phi) > 1e-3
            assert np.allclose(d2[nz] / d1[nz], 4.0, rtol=1e-4)

    def test_no_cancellation_floor(self, interval_p2_small):
        # naive evaluation loses the signal at machine-small f; kernels do not
        s = interval_p2_small
        V, p = s.profile.V, s.exps.p
        eps = 1e-9
        f = eps * s.eigs.mode(2)
        e_stable = F.integrate(s.grid, entropy_density(V, f, p))
        expect = (p + 1.0) / 2.0 * eps ** 2
        assert abs(e_stable / expect - 1.0) < 1e-6


def exact_differences(V, f, p):
    """(V + f)^p - V^p and the entropy density (v^(p+1) - V^(p+1))
    - (p+1)/p (v^p - V^p) V at v = V + f, for doubles V, f with |f| >= 1e-21 V,
    to 50 digits: at 100 digits V + f is exact and the density's cancellation
    of up to 42 digits leaves more than 50."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        V, f, p = mpmath.mpf(V), mpmath.mpf(f), mpmath.mpf(p)
        v = V + f
        dp = v ** p - V ** p
        return float(dp), float((v ** (p + 1) - V ** (p + 1)) - (p + 1) / p * dp * V)


def rel_error(x, exact):
    return abs(float(x[0]) - exact) / abs(exact)


def check_kernels_against_mpmath(V, p, f):
    exact_dp, exact_e = exact_differences(V, f, p)
    Va, fa = np.array([V]), np.array([f])
    assert rel_error(power_difference(Va, fa, p), exact_dp) <= 1e-13
    assert rel_error(entropy_density(Va, fa, p), exact_e) <= 1e-13


class TestKernelsAgainstMpmath:
    # integer p takes its exact rule (2 or 3 nodes), float p up to 5 the
    # 8-node rule
    @pytest.mark.parametrize("bound", [0.5, 1e-6])
    @settings(max_examples=300, deadline=None)
    @given(V=st.floats(1e-3, 10.0),
           p=st.one_of(st.sampled_from([2.0, 3.0, 4.0, 5.0]), st.floats(1.05, 5.0)),
           u=st.floats(-1.0, 1.0))
    def test_power_difference_and_entropy_density(self, bound, V, p, u):
        assume(abs(u) >= 1e-9)          # |f| >= 1e-15 V: no underflow in f^2
        check_kernels_against_mpmath(V, p, u * bound * V)

    # large exponents: 9 and 11 exact nodes at p = 16 and 20, 10 and 12
    # nodes at p = 12.5 and 20.5 (8 nodes miss by up to 2.4e-9 at 20.5)
    @pytest.mark.parametrize("p", [12.5, 16.0, 20.0, 20.5])
    @settings(max_examples=100, deadline=None)
    @given(V=st.floats(1e-3, 10.0), u=st.floats(-1.0, 1.0))
    def test_large_exponents(self, p, V, u):
        assume(abs(u) >= 1e-9)
        check_kernels_against_mpmath(V, p, u * 0.5 * V)

    def test_naive_difference_fails_the_bound(self):
        V, p = 1.7, 2.5
        f = 1e-10 * V
        exact_dp, _ = exact_differences(V, f, p)
        naive = (V + f) ** p - V ** p
        assert rel_error([naive], exact_dp) > 1e-13
        assert rel_error(power_difference(np.array([V]), np.array([f]), p),
                         exact_dp) <= 1e-13


def closed_form_sums(V, f, q):
    """int_0^1 (V + s f)^(q-1) (1, s) ds for q = 2, 3, 4 as polynomials in
    V and f, evaluated in extended precision and rounded to doubles."""
    V, f = V.astype(np.longdouble), f.astype(np.longdouble)
    sums = {2.0: (V + f / 2, V / 2 + f / 3),
            3.0: (V * V + V * f + f * f / 3, V * V / 2 + 2 * V * f / 3 + f * f / 4),
            4.0: (V ** 3 + 1.5 * V * V * f + V * f * f + f ** 3 / 4,
                  V ** 3 / 2 + V * V * f + 0.75 * V * f * f + f ** 3 / 5)}[q]
    return [s.astype(float) for s in sums]


def loop_kernel_sums(V, f, q):
    """The Gauss-Legendre sums of the rule _kernel_sums chooses, as a loop
    over its nodes."""
    x, wx = _gauss_legendre(_node_count(q))
    acc = np.zeros((2,) + np.shape(V))
    for xi, wxi in zip(x[:, 0], wx.T):
        acc += wxi[:, None] * (V + xi * f) ** (q - 1.0)
    return acc


def max_ulps(got, want):
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))


def reference_report(grid, V, exps, eigs, gap, v, t):
    """entropy_report's formulas evaluated from (grid, V, exps, eigs, gap)
    at every call."""
    p, c = exps.p, exps.c
    f = v - V
    h = f / V
    wq = grid.quad_weights
    e_lin = float(np.dot(wq, f * f * V ** (p - 1.0)))
    h_l2v_sq = float(np.dot(wq, h * h * V ** (p + 1.0)))
    i_lin = F.dirichlet_energy(grid, f) - p * c * e_lin
    acc, acc_s = _kernel_sums(V, f, p)
    e_nl = float(np.dot(wq, (p + 1.0) * f * f * acc_s))
    cubic = float(np.dot(wq, np.abs(f) ** 3 * V ** (p - 2.0)))
    h_inf = float(np.max(np.abs(h)))
    vpdiff = p * f * acc
    sqrt_e_lin = np.sqrt(e_lin) if e_lin > 0 else 0.0
    modes_T = eigs.rows[:gap.k_p]
    coeffs = modes_T @ (wq * eigs.weight * f)
    q_lin = (np.abs(coeffs) / sqrt_e_lin if sqrt_e_lin > 0
             else np.zeros_like(coeffs))
    a_nl = np.abs(modes_T @ (wq * vpdiff))
    q_nl = None
    if e_nl > 1e-14:
        q_nl = a_nl / np.sqrt(e_nl)
    return EntropyReport(t=t, E_lin=e_lin, I_lin=i_lin, E_nl=e_nl, h_inf=h_inf,
                         h_L2V_sq=h_l2v_sq, cubic=cubic, Q_lin=q_lin, Q_nl=q_nl,
                         A_nl=a_nl)


def random_kernel_input(n, seed, shrink):
    rng = np.random.default_rng(seed)
    V = rng.uniform(1e-3, 10.0, n)
    f = V * rng.uniform(-0.5, 0.5, n) * 10.0 ** shrink
    return V, f


class TestOnePassKernels:
    def test_node_count(self):
        qs = (2.0, 3.0, 4.0, 5.0, 15.0, 16.0, 20.0, 1.05, 1.5, 2.5, 4.99,
              5.5, 12.5, 20.5)
        assert [_node_count(q) for q in qs] == [2, 2, 3, 3, 8, 9, 11, 8, 8, 8,
                                                8, 9, 10, 12]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
           q=st.sampled_from([2.0, 3.0, 4.0]), shrink=st.floats(-10.0, 0.0))
    def test_integer_exponent_equals_the_polynomial_integrals(self, n, seed, q,
                                                             shrink):
        V, f = random_kernel_input(n, seed, shrink)
        for got, want in zip(_kernel_sums(V, f, q), closed_form_sums(V, f, q)):
            assert max_ulps(got, want) <= 8.0

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
           q=st.floats(1.05, 6.0).filter(lambda q: not q.is_integer()),
           shrink=st.floats(-10.0, 0.0))
    def test_equal_to_the_looped_sums_over_the_same_nodes(self, n, seed, q, shrink):
        V, f = random_kernel_input(n, seed, shrink)
        for got, want in zip(_kernel_sums(V, f, q), loop_kernel_sums(V, f, q)):
            assert max_ulps(got, want) <= 8.0

    @pytest.mark.parametrize("name", ["interval_p2_small", "ball_p2",
                                      "interval_p1.5"])
    def test_reports_equal_the_reference_formulas(self, request, name):
        if name == "interval_p1.5":
            s = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                          F.Exponents.make(p=1.5, c=1.0))
        else:
            s = request.getfixturevalue(name)
        V = s.profile.V
        rng = np.random.default_rng(7)
        for i in range(60):
            amp = 10.0 ** rng.uniform(-9.0, -0.5)
            v = V * (1.0 + amp * rng.uniform(-1.0, 1.0, V.size))
            want = reference_report(s.grid, V, s.exps, s.eigs, s.gap, v, 0.1 * i)
            assert pickle.dumps(report_for(s, v, 0.1 * i)) == pickle.dumps(want)


class TestEntropyReport:
    def test_coincidence_case(self, interval_p2_small):
        s = interval_p2_small
        r = report_for(s, s.profile.V.copy())
        assert r.E_lin == 0.0 and r.E_nl == 0.0 and r.h_inf == 0.0
        assert abs(r.I_lin) < 1e-12
        assert r.Q_nl is None
        assert np.max(r.A_nl) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_mode_sandwich_limit(self, interval_p2, k):
        # E_nl / E_lin -> (p+1)/2 as the perturbation shrinks
        s = interval_p2
        eps = 1e-4
        r = report_for(s, s.profile.V + eps * s.eigs.mode(k))
        assert abs(r.E_nl / r.E_lin - (s.exps.p + 1.0) / 2.0) < 0.01 * (s.exps.p + 1) / 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_mode_production_identity(self, interval_p2, k):
        # I_lin = (lambda_k - p c) eps^2 for v = V + eps phi_k
        s = interval_p2
        eps = 1e-4
        r = report_for(s, s.profile.V + eps * s.eigs.mode(k))
        expect = (s.eigs.eigenvalues[k - 1] - s.exps.p * s.exps.c) * eps ** 2
        assert abs(r.I_lin - expect) <= 1e-6 * abs(expect)

    @pytest.mark.parametrize("name", ["interval_p2_small", "ball_p2"])
    def test_linear_columns_are_the_one_projection(self, request, name):
        # E_lin, I_lin and Q_lin are linear_entropy and project_coefficients
        # of f = v - V, bit for bit
        s = request.getfixturevalue(name)
        V = s.profile.V
        rng = np.random.default_rng(9)
        for amp in (1e-8, 1e-4, 0.1):
            v = V * (1.0 + amp * rng.uniform(-1.0, 1.0, V.size))
            r = report_for(s, v)
            f = v - V
            e, i_lin = F.linear_entropy(s.grid, s.eigs, s.gap.cp, f)
            assert (r.E_lin, r.I_lin) == (e, i_lin)
            coeffs = F.project_coefficients(s.grid, s.eigs, f, s.gap.k_p)
            assert np.array_equal(r.Q_lin, np.abs(coeffs) / np.sqrt(e))

    def test_weighted_norm_consistency(self, calibrated_trace_p2):
        _, result = calibrated_trace_p2
        for r in result.reports[::50]:
            if r.E_lin > 0:
                assert abs(r.h_L2V_sq - r.E_lin) <= 1e-12 * r.E_lin

    def test_rejects_nonpositive_field(self, interval_p2_small):
        s = interval_p2_small
        with pytest.raises(ValueError):
            report_for(s, 0.0 * s.profile.V)


class TestProductionResidual:
    def test_fixed_point_noise_only(self, interval_p2_small):
        s = interval_p2_small
        _, reports = F.run_rescaled(s, s.profile.V.copy(), horizon=1.0,
                                    dt=5e-3, cadence=0.05)
        ps = F.production_residual(reports, s.exps.p)
        assert np.max(np.abs(ps.residual)) < 1e-10

    def test_kappa_finite_and_below_analytic_envelope(self, amp3_uncalibrated_traces):
        setup, traces = amp3_uncalibrated_traces
        p = setup.exps.p
        envelope = 10.0 * analytic_remainder_kappa(p, setup.exps.c)
        meds = {}
        for dt, reports in traces.items():
            ps = F.production_residual(reports, p)
            h = np.array([r.h_inf for r in reports])[2:-2]
            win = ps.valid & (h >= 0.02) & (h <= 1.0 / (2.0 * p))
            assert win.sum() > 100
            kap = ps.kappa[win]
            assert np.max(kap) <= envelope
            meds[dt] = float(np.median(kap))
        drift = abs(meds[2.5e-4] - meds[5e-4]) / meds[5e-4]
        assert drift <= 0.10

    def test_remainder_vanishes_linearly_in_h(self, amp3_calibrated_traces):
        setup, _, traces = amp3_calibrated_traces
        reports = traces[2.5e-4]
        ps = F.production_residual(reports, setup.exps.p)
        h = np.array([r.h_inf for r in reports])[2:-2]
        I = np.array([r.I_lin for r in reports])[2:-2]
        win = ps.valid & (h >= 0.03) & (h <= 0.25) & (I > 0)
        ratio = np.abs(ps.residual[win]) / I[win]
        slope = np.polyfit(np.log(h[win]), np.log(ratio), 1)[0]
        assert 0.6 <= slope <= 1.6

    def test_window_too_coarse_detected(self, calibrated_trace_p2):
        _, result = calibrated_trace_p2
        sparse = result.reports[::20]       # cadence 0.4: curvature dominates
        with pytest.raises(F.NumericalFailure,
                           match="finite-difference error dominates R_p everywhere"):
            F.production_residual(sparse, 2.0)

    def test_requires_uniform_sampling(self, calibrated_trace_p2):
        _, result = calibrated_trace_p2
        ragged = result.reports[:10] + result.reports[11:20]
        with pytest.raises(ValueError):
            F.production_residual(ragged, 2.0)


class TestSandwich:
    def test_uniform_bump_ratio(self, interval_p2_small):
        # v = (1+d)V gives exactly ratio = 1 + 2 d / 3 + O(d^2) for p = 2
        s = interval_p2_small
        m = F.sandwich_check(report_for(s, 1.01 * s.profile.V), s.exps.p)
        assert 0.97 <= m.ratio <= 1.03
        assert abs(m.ratio - (1.0 + 0.02 / 3.0)) < 1e-4

    def test_ratio_approaches_one_linearly(self, interval_p2_small):
        s = interval_p2_small
        gaps = []
        for d in (1e-2, 1e-3, 1e-4):
            m = F.sandwich_check(report_for(s, (1.0 + d) * s.profile.V), s.exps.p)
            gaps.append(abs(m.ratio - 1.0) / d)
        assert max(gaps) < 1.0            # slope O(delta) with modest constant
        assert np.ptp(gaps) < 0.01        # and the slope is stable

    def test_alternating_sign_perturbation_stays_in_bracket(self, interval_p2_small):
        s = interval_p2_small
        d = 5e-3
        signs = np.where(np.arange(s.grid.n) % 2 == 0, 1.0, -1.0)
        m = F.sandwich_check(report_for(s, (1.0 + d * signs) * s.profile.V),
                             s.exps.p)
        C = 1.0
        assert (1.0 + C * m.delta) ** -2 <= m.ratio <= (1.0 + C * m.delta) ** 2

    def test_whole_trace_bracket(self, calibrated_trace_p2):
        setup, result = calibrated_trace_p2
        implied = [F.sandwich_check(r, setup.exps.p).implied_C
                   for r in result.reports if r.E_lin > 1e-22]
        assert max(implied) < 1.0


class TestRayleighCompare:
    def test_single_low_mode_limit(self, interval_p2):
        s = interval_p2
        r = report_for(s, s.profile.V + 1e-4 * s.eigs.mode(1))
        mc = F.rayleigh_compare(r, s.exps.p)[0]
        assert mc.q_nl is not None
        assert abs(mc.q_nl / mc.q_lin - mc.limit_factor) <= 0.02 * mc.limit_factor

    def test_orthogonal_mode_leaves_quotients_small(self, interval_p2):
        s = interval_p2
        eps = 1e-3
        r = report_for(s, s.profile.V + eps * s.eigs.mode(2))
        mc = F.rayleigh_compare(r, s.exps.p)[0]    # mode 1 quotients
        assert mc.q_lin <= 10.0 * eps
        assert mc.q_nl <= 10.0 * eps

    def test_equivalence_constant_finite_along_flow(self, amp3_calibrated_traces):
        setup, _, traces = amp3_calibrated_traces
        window = ao_window(traces[5e-4])
        excesses = []
        for r in window:
            for mc in F.rayleigh_compare(r, setup.exps.p):
                if mc.q_nl is not None and mc.scale > 0:
                    excesses.append(mc.excess / mc.scale)
        assert max(excesses) < 10.0


class TestSmoothing:
    def test_sup_finite_and_horizon_stable(self, calibrated_trace_p2):
        setup, result = calibrated_trace_p2
        clean = decaying_prefix(result.reports)
        sup, arg, series = F.smoothing_check(clean, ndim=1)
        t_half = clean[len(clean) // 2].t
        half_sup = max(v for t, v in series if t <= t_half)
        assert np.isfinite(sup)
        assert (sup - half_sup) / half_sup <= 0.10

    def test_wrong_exponent_diverges(self, calibrated_trace_p2):
        _, result = calibrated_trace_p2
        clean = decaying_prefix(result.reports)
        t0 = clean[0].t
        sup, _, series = F.delayed_ratio_sup(clean, lambda r: r.h_inf, 1.0, t0 + 1)
        t_half = clean[len(clean) // 2].t
        half_sup = max(v for t, v in series if t <= t_half)
        assert sup / half_sup > 2.0

    def test_fixed_point_excluded(self, interval_p2_small):
        s = interval_p2_small
        _, reports = F.run_rescaled(s, s.profile.V.copy(), horizon=3.0,
                                    dt=5e-3, cadence=0.25)
        with pytest.raises(F.NumericalFailure,
                           match=r"entropy vanishes along the whole trace \(0/0\)"):
            F.smoothing_check(reports, ndim=1)


def constant_h_samples(times, h, n):
    """(times, fields, V) with h = v/V - 1 equal to h at every node and time."""
    V = np.ones(n)
    return times, [(1.0 + h) * V for _ in times], V


class TestTimeMonotonicity:
    def test_constant_relative_error(self, interval_p2_small):
        exps = interval_p2_small.exps
        samples = constant_h_samples([2.0 + 0.1 * i for i in range(30)], 0.05, 16)
        assert F.time_monotonicity_check(*samples, exps) == 0.0

    def test_fixed_point_trivial(self, interval_p2_small):
        exps = interval_p2_small.exps
        samples = constant_h_samples([2.0 + 0.1 * i for i in range(30)], 0.0, 16)
        assert F.time_monotonicity_check(*samples, exps) == 0.0

    def test_generic_run_within_dt_slack(self, calibrated_trace_p2,
                                         calibrated_fields_p2):
        setup, _ = calibrated_trace_p2
        times, fields = calibrated_fields_p2
        worst = F.time_monotonicity_check(times, fields, setup.profile.V,
                                          setup.exps)
        dt = 1e-3
        cm = setup.exps.c * setup.exps.m
        assert worst <= 5.0 * dt * (1.0 + 2.0 * cm)

    def test_needs_late_samples(self, interval_p2_small):
        exps = interval_p2_small.exps
        samples = constant_h_samples([0.01 * i for i in range(5)], 0.0, 8)
        with pytest.raises(F.NumericalFailure,
                           match="not enough samples beyond T log 2"):
            F.time_monotonicity_check(*samples, exps)


class TestBenilanCrandall:
    def test_equals_the_pairwise_loop(self, interval_p2_small):
        exps = interval_p2_small.exps
        rng = np.random.default_rng(3)
        V = rng.uniform(0.5, 2.0, 40)
        times = list(2.0 + np.cumsum(rng.uniform(0.01, 0.1, 30)))
        fields = [V * (1.0 + rng.uniform(-0.3, 0.3, V.size)) for _ in times]
        hs = [(v - V) / V for v in fields]
        c, m = exps.c, exps.m
        worst = -np.inf
        for t0, t1, h0, h1 in zip(times, times[1:], hs, hs[1:]):
            rate = (h1 - h0) / (t1 - t0)
            worst = max(worst, float(np.max(rate - 2.0 * c * m * (h0 + 1.0))))
        assert F.benilan_crandall_margin(times, fields, V, exps) == worst > 0

    def test_trace_satisfies_rate_bound(self, calibrated_trace_p2,
                                        calibrated_fields_p2):
        setup, _ = calibrated_trace_p2
        times, fields = calibrated_fields_p2
        margin = F.benilan_crandall_margin(times, fields, setup.profile.V,
                                           setup.exps)
        assert margin <= 0.05


class TestAlmostOrthogonality:
    def test_quotient_ladder_nontrivial(self, amp3_calibrated_traces):
        setup, _, traces = amp3_calibrated_traces
        window = ao_window(traces[5e-4])
        qs = [r.max_q_nl() for r in window]
        assert qs[0] > 0.01                      # starts above the last rung
        assert min(qs) < 1e-4                    # improves by > two decades
        ladder = F.quotient_smallness_times(window)
        for eps, t_eps in ladder.items():
            assert t_eps is not None
            tail = [q for r, q in zip(window, qs) if r.t >= t_eps]
            assert max(tail) <= eps

    def test_quantitative_decay_against_delayed_entropy(self, calibrated_trace_p2):
        setup, result = calibrated_trace_p2
        window = ao_window(result.reports)
        sup, arg, series = F.delayed_ratio_sup(
            window, lambda r: r.max_q_nl(), 1.0 / 8.0, window[0].t + 1.0)
        t_half = window[len(window) // 2].t
        half = max(v for t, v in series if t <= t_half)
        assert np.isfinite(sup)
        assert (sup - half) / half <= 0.10

    def test_blowup_when_almost_orthogonality_fails(self, interval_p2_small):
        # uncalibrated low-mode content: the mode-1 moment grows exponentially
        s = interval_p2_small
        v0 = s.profile.V + 0.02 * s.eigs.mode(1)
        _, reports = F.run_rescaled(s, v0, horizon=1.0, dt=1e-3, cadence=0.02)
        A = np.array([float(r.A_nl[0]) for r in reports])
        q = np.array([r.max_q_nl() for r in reports])
        d = np.array([r.h_inf for r in reports])
        growth = np.diff(A) / np.diff([r.t for r in reports])
        mask = (q[:-1] >= 0.3) & (d[:-1] <= 0.01)
        assert mask.sum() > 10
        assert np.all(growth[mask] > 0)
        kappa_low = np.min(growth[mask] / (0.3 * A[:-1][mask]))
        assert kappa_low > 0


class TestEntropyMonotonicity:
    def test_strictly_decreasing_once_almost_orthogonal(self, calibrated_trace_p2):
        # once h is small and all quotients small, sampled E_nl decreases
        _, result = calibrated_trace_p2
        window = ao_window(result.reports)
        E = np.array([r.E_nl for r in window])
        assert np.all(np.diff(E) < 0)


class TestComparisonConstants:
    def test_measured_on_trace(self, amp3_uncalibrated_traces):
        setup, traces = amp3_uncalibrated_traces
        cc = F.ComparisonConstants  # re-exported type
        from fdelab.diagnostics import measure_comparison_constants
        consts = measure_comparison_constants(traces[5e-4], setup.exps.p, ndim=1)
        assert isinstance(consts, cc)
        assert 0 < consts.sandwich_lo <= consts.sandwich_hi < np.inf
        assert np.isfinite(consts.remainder_kappa)
        assert np.isfinite(consts.smoothing_kappa)


class TestTraceRows:
    def test_header_names_stable(self, calibrated_trace_p2):
        _, result = calibrated_trace_p2
        header, rows = trace_rows(result.reports[:3])
        ks = range(1, result.reports[0].Q_lin.size + 1)
        assert header == (["t", "E_lin", "I_lin", "E_nl", "h_inf"]
                          + [f"{name}_{k}" for name in ("Q", "Qn", "A") for k in ks]
                          + ["h_L2V_sq", "cubic"])
        assert "Q_1" in header and "Qn_1" in header and "A_1" in header
        assert len(rows) == 3 and len(rows[0]) == len(header)

    def test_undefined_quotients_are_none(self, interval_p2_small):
        s = interval_p2_small
        r = report_for(s, s.profile.V.copy())
        header, rows = trace_rows([r])
        qn_col = header.index("Qn_1")
        assert header[qn_col - 1] == f"Q_{r.Q_lin.size}"
        assert rows[0][qn_col] is None
