"""Flow steppers: fixed points, rates, ordering, rescaling consistency."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

import fdelab as F
import fdelab.flow
from fdelab.flow import StepFailure
from fdelab.grid import apply_A, solve_tridiagonal

from conftest import block_sizes, inner_product_weighted, sized, solve_poisson


def interval(n):
    return F.build_domain(F.DomainSpec(geometry="interval", nodes=n))


class TestStepRescaled:
    def test_stationary_fixed_point(self, interval_p2_small):
        s = interval_p2_small
        state = F.FlowState(kind="rescaled", field=s.profile.V.copy(), time=0.0)
        dt = 1e-2
        drift = 0.0
        for _ in range(int(1.0 / dt)):
            state = F.step_rescaled(s.grid, s.exps, state, dt)
            drift = max(drift, np.max(np.abs(state.field / s.profile.V - 1.0)))
        assert drift <= 1e-10   # per unit time

    def test_uniform_perturbation_bracket(self, interval_p2_small):
        # uniform relative bump is the slow (growing) direction: one step may
        # only change it by O(dt), and cannot decay faster than the gap rate
        s = interval_p2_small
        exps = s.exps
        eps, dt = 1e-6, 1e-3
        state = F.FlowState(kind="rescaled", field=(1.0 + eps) * s.profile.V, time=0.0)
        out = F.step_rescaled(s.grid, exps, state, dt)
        assert out.newton_iters <= 3
        hn = np.max(np.abs(out.field / s.profile.V - 1.0))
        rate = 2.0 * s.gap.lambda_p / exps.p + 0.1
        assert np.exp(-rate * dt) * eps <= hn <= eps * (1.0 + 2.0 * exps.c * dt)

    def test_self_convergence_first_order(self, interval_p2_small):
        s = interval_p2_small
        v0 = F.mode_perturbed_field(s, [(2, 0.05)])
        horizon = 0.5

        def run(dt):
            st = F.FlowState(kind="rescaled", field=v0.copy(), time=0.0)
            for _ in range(int(round(horizon / dt))):
                st = F.step_rescaled(s.grid, s.exps, st, dt)
            return st.field

        ref = run(1.25e-4)
        errs = [np.max(np.abs(run(dt) - ref)) for dt in (2e-3, 1e-3, 5e-4)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.8) and np.all(orders < 1.5)

    def test_positivity_required(self, interval_p2_small):
        s = interval_p2_small
        state = F.FlowState(kind="rescaled", field=-s.profile.V, time=0.0)
        with pytest.raises(F.NumericalFailure, match="rescaled state must be positive"):
            F.step_rescaled(s.grid, s.exps, state, 1e-3)


class TestStepOriginal:
    def test_tracks_separate_variables_solution(self, interval_p2_small):
        s = interval_p2_small
        exps = s.exps
        T = exps.T
        dt = T / 2000.0
        state = F.FlowState(kind="original", field=s.profile.S.copy(), time=0.0)
        while state.time < T / 2.0 - 1e-12:
            state = F.step_original(s.grid, exps, state, dt)
        exact = s.profile.S * (1.0 - state.time / T) ** (1.0 / (1.0 - exps.m))
        assert np.max(np.abs(state.field - exact)) / exact.max() <= 0.01

    def test_zero_stays_zero(self, interval_p2_small):
        s = interval_p2_small
        state = F.FlowState(kind="original", field=np.zeros(s.grid.n), time=0.0)
        out = F.step_original(s.grid, s.exps, state, 1e-2)
        assert np.all(out.field == 0.0)

    def test_mass_type_decay(self, interval_p2_small):
        s = interval_p2_small
        exps = s.exps
        state = F.FlowState(kind="original", field=s.profile.S.copy(), time=0.0)
        prev = F.integrate(s.grid, state.field ** (1.0 + exps.m))
        for _ in range(50):
            state = F.step_original(s.grid, exps, state, 1e-3)
            cur = F.integrate(s.grid, state.field ** (1.0 + exps.m))
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur

    @pytest.mark.parametrize("stepper_kind", ["original", "rescaled"])
    def test_comparison_preserved(self, interval_p2_small, stepper_kind):
        s = interval_p2_small
        rng = np.random.RandomState(42)
        step = F.step_original if stepper_kind == "original" else F.step_rescaled
        for _ in range(5):
            lo = s.profile.S * (0.5 + 0.3 * rng.random(s.grid.n))
            hi = lo * (1.0 + 0.5 * rng.random(s.grid.n))
            a = F.FlowState(kind=stepper_kind, field=lo, time=0.0)
            b = F.FlowState(kind=stepper_kind, field=hi, time=0.0)
            for _ in range(5):
                a = step(s.grid, s.exps, a, 2e-3)
                b = step(s.grid, s.exps, b, 2e-3)
                assert np.all(a.field <= b.field * (1.0 + 1e-12))


class TestStepLinearized:
    @pytest.mark.parametrize("k", [1, 2])
    def test_single_mode_rate(self, interval_p2, k):
        # coefficient of phi_k evolves like exp((cp - lambda_k) t / p)
        s = interval_p2
        exps = s.exps
        lam = s.eigs.eigenvalues[k - 1]
        dt, t_end = 1e-3, 1.0
        state = F.FlowState(kind="linearized", field=s.eigs.mode(k).copy(),
                            time=0.0)
        for _ in range(int(round(t_end / dt))):
            state = F.step_linearized(s.grid, s.eigs.W, exps, state, dt)
        coef = inner_product_weighted(s.grid, state.field, s.eigs.mode(k),
                                      s.eigs.weight)
        expect = np.exp((exps.c * exps.p - lam) / exps.p * t_end)
        assert abs(coef / expect - 1.0) < 5e-3
        if k == 1:
            assert coef > 1.0    # the profile direction grows under the linear flow

    def test_deflated_decay_rate(self, interval_p2):
        s = interval_p2
        exps = s.exps
        f = F.deflate(s.grid, s.eigs,
                      s.eigs.mode(2) + 0.5 * s.eigs.mode(3), s.gap.k_p)
        tr = F.run_linearized(s, f, horizon=1.5, dt=2e-4, cadence=0.05)
        sel = tr.times >= 0.5
        slope = np.polyfit(tr.times[sel], np.log(tr.E_lin[sel]), 1)[0]
        target = 2.0 * s.gap.lambda_p / exps.p
        assert -slope >= target * 0.99

    def test_deflation_preserved(self, interval_p2):
        s = interval_p2
        f0 = F.deflate(s.grid, s.eigs, s.eigs.mode(2).copy(), s.gap.k_p)
        state = F.FlowState(kind="linearized", field=f0, time=0.0)
        for _ in range(500):
            state = F.step_linearized(s.grid, s.eigs.W, s.exps, state, 1e-3)
        coeffs = F.project_coefficients(s.grid, s.eigs, state.field, s.gap.k_p)
        norm = np.sqrt(inner_product_weighted(s.grid, state.field, state.field,
                                              s.eigs.weight))
        assert max(abs(float(b)) for b in coeffs) <= 1e-8 * norm

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([None, 1, 2, 3]), p=st.floats(1.2, 4.0),
           n=st.integers(33, 300),
           dt_frac=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           data=st.data())
    def test_step_solves_its_equation(self, dim, p, n, dt_frac, data):
        # p W (f1 - f0) + dt (A f1 - c p W f1) = 0, W = quad_weights V^(p-1)
        if dim is None:
            spec = F.DomainSpec(geometry="interval", nodes=n)
        else:
            spec = F.DomainSpec(geometry="ball", nodes=n, dimension=dim)
        grid = F.build_domain(spec)
        exps = F.Exponents.make(p=p, c=1.0)
        V = F.solve_stationary(grid, exps).V
        f0 = data.draw(arrays(np.float64, grid.n,
                              elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        dt = dt_frac * exps.T
        W = grid.quad_weights * V ** (p - 1.0)
        f1 = F.step_linearized(grid, W, exps, F.FlowState(
            kind="linearized", field=f0, time=0.0), dt).field
        cpW = exps.c * p * W
        res = p * W * (f1 - f0) + dt * (apply_A(grid, f1) - cpW * f1)
        # rounding scale: the size of every summand, |A| |f1| for A f1, which
        # cancels to ~0 on smooth data (e.g. constant f0 at p near 1); A has a
        # positive diagonal and negative off-diagonals.  tiny: the underflow
        # floor of data near the smallest normal numbers
        af = np.abs(f1)
        abs_A_f1 = 2.0 * grid.lap_diag * af - apply_A(grid, af)
        scale = p * W * (af + np.abs(f0)) + dt * (abs_A_f1 + cpW * af)
        assert np.abs(res).max() <= 1e-14 * scale.max() + np.finfo(float).tiny

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 0.9])
    def test_setup_weight_gives_the_reference_step(self, interval_p2, ball_p2,
                                                   dt):
        # the step from the setup's W is the solve of
        # p W (f1 - f0) + dt (A f1 - c p W f1) = 0 with W formed from V
        rng = np.random.default_rng(5)
        for s in (interval_p2, ball_p2):
            grid, p, c = s.grid, s.exps.p, s.exps.c
            f0 = rng.uniform(-1.0, 1.0, grid.n)
            W = grid.quad_weights * s.profile.V ** (p - 1.0)
            off = dt * grid.lap_offdiag
            ref = solve_tridiagonal(off, p * W + dt * (grid.lap_diag - c * p * W),
                                    off.copy(), p * W * f0)
            got = F.step_linearized(grid, s.eigs.W, s.exps, F.FlowState(
                kind="linearized", field=f0, time=0.0), dt).field
            assert np.array_equal(got, ref)

    def test_rejects_dt_near_pole(self, interval_p2_small):
        s = interval_p2_small
        state = F.FlowState(kind="linearized", field=np.ones(s.grid.n), time=0.0)
        with pytest.raises(ValueError):
            F.step_linearized(s.grid, s.eigs.W, s.exps, state, s.exps.T)


class TestDiscreteRate:
    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.05, 20.0),
           dt_frac=st.floats(1e-9, 1.0, exclude_max=True),
           lam=st.floats(1e-2, 1e4))
    def test_bits_of_the_inline_rates_at_p2(self, c, dt_frac, lam):
        # the calibration's gamma_dt and the verdict's target_dt, as each was
        # written out before discrete_rate, for steps below T (where the
        # unstable mode's step is singular)
        p = 2.0
        dt = dt_frac * p / ((p - 1.0) * c)
        # below T after rounding too: dt_frac = 1 - 2**-53 at c = 1.5 rounds
        # dt to T itself, where log1p(-1) is singular
        assume(-dt * c * (p - 1.0) / p > -1.0)
        gamma_dt = -np.log1p(-dt * c * (p - 1.0) / p) / dt
        assert -F.discrete_rate(-c * (p - 1.0) / p, dt) == gamma_dt
        target_dt = 2.0 * np.log1p(dt * lam / p) / dt
        assert 2.0 * F.discrete_rate(lam / p, dt) == target_dt

    @given(mu=st.floats(-1e4, 1e4))
    def test_continuum_limit_is_mu(self, mu):
        assert F.discrete_rate(mu, 0.0) == mu

    @settings(max_examples=200, deadline=None)
    @given(dt=st.floats(1e-6, 1.0), frac=st.floats(1e-6, 1.0),
           k=st.integers(1, 50), mu_dt=st.floats(-0.99, 100.0))
    def test_sample_rate_is_discrete_rate_on_equal_steps(self, dt, frac, k, mu_dt):
        # one step of a cadence at most dt, or k steps of dt: the same bits
        mu = mu_dt / dt
        assert F.sample_rate(mu, dt, frac * dt) == F.discrete_rate(mu, frac * dt)
        assert F.sample_rate(mu, dt, k * dt) == F.discrete_rate(mu, dt)
        assert F.sample_rate(mu, 0.0, 0.0) == mu

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 20), frac=st.floats(0.01, 0.99),
           mu_dt=st.floats(-0.99, 100.0))
    def test_sample_rate_is_the_rate_of_one_sample(self, interval_p2_small, k,
                                                   frac, mu_dt):
        # a cadence of k + frac steps: march steps k times dt and then the
        # remainder, and the mode's decay over that sample is the rate
        s, dt = interval_p2_small, 0.01
        cadence, phi = (k + frac) * dt, s.eigs.mode(2)
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="linearized", field=phi, time=0.0),
                        cadence, dt, cadence, lambda times, fields: fields,
                        s.eigs.W)
        f1 = traj.diagnostics[0]     # the one sample's row
        steps = traj.dt_history
        assert len(steps) == k + 1 and steps[:k].tolist() == [dt] * k
        mu = mu_dt / dt
        read = sum(np.log1p(h * mu) for h in steps) / cadence
        assert F.sample_rate(mu, dt, cadence) == pytest.approx(read, rel=1e-12)
        # mode 2 itself decays at mu = lambda_2 / p - c
        mu2 = s.eigs.eigenvalues[1] / s.exps.p - s.exps.c
        decay = np.log(np.dot(phi, s.eigs.W * phi)
                       / np.dot(phi, s.eigs.W * f1)) / cadence
        assert F.sample_rate(mu2, dt, cadence) == pytest.approx(decay, rel=1e-11)


def lattice_run(setup, kind, dt, cadence):
    """A run of the given kind to horizon 1 stepping dt, sampled every
    cadence: rescaled from V + 0.1 phi_2, or original from S, which becomes
    extinct at T = 2."""
    field = (F.mode_perturbed_field(setup, [(2, 0.1)]) if kind == "rescaled"
             else setup.profile.S.copy())
    return F.evolve(setup.grid, setup.exps,
                    F.FlowState(kind=kind, field=field, time=0.0),
                    horizon=1.0, dt=dt, sample_every=cadence)


class TestEvolve:
    def test_fixed_point_entropy_stays_tiny(self, interval_p2_small):
        s = interval_p2_small
        traj, reports = F.run_rescaled(s, s.profile.V.copy(), horizon=2.0,
                                       dt=5e-3, cadence=0.25)
        assert max(r.E_nl for r in reports) <= 1e-12

    def test_sampler_times_exact(self, interval_p2_small):
        s = interval_p2_small
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="rescaled", field=s.profile.V.copy(),
                                    time=0.0),
                        horizon=1.0, dt=3e-3,
                        sample_every=0.1)
        assert traj.sample_times.tolist() == [(i + 1) * 0.1 for i in range(10)]

    @pytest.mark.parametrize("kind, cadence, dt", [
        pytest.param(kind, cadence, dt, id=f"{prefix}{cadence}-{dt}")
        for kind, prefix in (("rescaled", ""), ("original", "original-"))
        for cadence, dt in [(0.02, 1e-3), (0.1, 2e-3), (5e-4, 5e-4),
                            (2.5e-4, 2.5e-4)]])
    def test_a_cadence_of_k_dt_is_k_steps_of_dt(self, interval_p2_small, kind,
                                                cadence, dt):
        # no step is clipped to its sample by a rounding ulp
        traj = lattice_run(interval_p2_small, kind, dt, cadence)
        assert set(traj.dt_history) == {dt}

    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    def test_another_cadence_is_whole_steps_and_one_remainder(
            self, interval_p2_small, kind):
        cadence, dt = 0.01, 3e-3
        traj = lattice_run(interval_p2_small, kind, dt, cadence)
        k = fdelab.flow.sample_count(cadence, dt)
        steps = np.asarray(traj.dt_history).reshape(-1, k + 1)   # per sample
        assert len(steps) == len(traj.sample_times) == 100
        assert (steps[:, :k] == dt).all()
        assert steps[:, k] == pytest.approx(np.full(100, cadence - k * dt),
                                            rel=1e-12)

    @pytest.mark.parametrize("horizon, cadence", [
        (1.9661201932684186e+304, 0.1622317579724788),
        (1.374361482375778e+94, 2960.381341222756)])
    def test_sample_count_beyond_2_53_returns(self, horizon, cadence):
        # floor(horizon / cadence) overshoots, and one less is the same float
        n = fdelab.flow.sample_count(horizon, cadence)
        assert horizon * (1 - 1e-15) < n * cadence <= horizon

    def test_step_failure_halves_dt_then_regrows_to_it(self, interval_p2_small,
                                                       monkeypatch):
        s = interval_p2_small
        real, tried = F.step_rescaled, []

        def fails_once(grid, exps, state, dt, start=None):
            tried.append(dt)
            if len(tried) == 1:
                raise StepFailure("forced")
            return real(grid, exps, state, dt, start=start)

        monkeypatch.setattr(fdelab.flow, "step_rescaled", fails_once)
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="rescaled", field=s.profile.V.copy(),
                                    time=0.0),
                        horizon=0.1, dt=4e-3, sample_every=0.1)
        assert tried[:2] == [4e-3, 2e-3]
        # easy steps at the fixed point regrow dt by 1.2, capped at dt
        assert traj.dt_history[:5].tolist() == pytest.approx(
            [2e-3, 2.4e-3, 2.88e-3, 3.456e-3, 4e-3])
        assert max(traj.dt_history) == 4e-3

    def test_rescaling_consistency_between_flows(self, interval_p2_small):
        # evolve the original flow, map through the exact change of variables,
        # compare with the rescaled flow from the same datum
        s = interval_p2_small
        exps = s.exps
        v0 = F.mode_perturbed_field(s, [(2, 0.05)])
        u0 = v0 ** exps.p
        t_samples = [0.25, 0.5, 0.75, 1.0]
        tau_samples = [exps.T * (1.0 - np.exp(-t / exps.T)) for t in t_samples]
        states_o = F.march(s.grid, exps,
                           F.FlowState(kind="original", field=u0.copy(), time=0.0),
                           dt=2e-4, targets=tau_samples)
        states_r = F.march(s.grid, exps,
                           F.FlowState(kind="rescaled", field=v0.copy(), time=0.0),
                           dt=2e-4, targets=t_samples)
        fields_o = [state.field for state in states_o]
        fields_r = [state.field for state in states_r]
        for t, u_field, v_field in zip(t_samples, fields_o, fields_r):
            w_from_original = np.exp(exps.c * t) * u_field
            w_direct = v_field ** exps.p
            rel = np.max(np.abs(w_from_original - w_direct)) / w_direct.max()
            assert rel <= 0.01

    def test_benilan_crandall_along_rescaled_flow(self, calibrated_trace_p2,
                                                  calibrated_fields_p2):
        setup, _ = calibrated_trace_p2
        times, fields = calibrated_fields_p2
        margin = F.benilan_crandall_margin(times, fields, setup.profile.V,
                                           setup.exps)
        # worst violation is O(dt) noise around an inequality with slack
        assert margin <= 0.05

    def test_relative_error_converges_below_1e6(self, calibrated_trace_p2):
        # convergence in relative error: sup|v/V - 1| falls below 1e-6 and is
        # decreasing until the clock-matching resolution floor
        _, result = calibrated_trace_p2
        hs = np.array([r.h_inf for r in result.reports])
        assert hs.min() < 1e-6
        first = int(np.argmax(hs < 1e-6))
        assert np.all(np.diff(hs[:first]) < 0)

    def test_pointwise_green_identity_along_step(self, interval_p2_small):
        # one implicit step satisfies -lap(h V) = -dw/dt + c (w - S) exactly,
        # so the discrete Green operator reproduces h V from the right side
        s = interval_p2_small
        exps = s.exps
        v0 = F.mode_perturbed_field(s, [(2, 0.5)])
        state = F.FlowState(kind="rescaled", field=v0, time=0.0)
        dt = 1e-3
        new = F.step_rescaled(s.grid, exps, state, dt)
        w0, w1 = v0 ** exps.p, new.field ** exps.p
        rhs = -(w1 - w0) / dt + exps.c * (w1 - s.profile.S)
        hV = solve_poisson(s.grid, rhs)
        expect = (new.field / s.profile.V - 1.0) * s.profile.V
        assert np.max(np.abs(hV - expect)) <= 1e-9 * np.max(np.abs(expect))

    def test_step_summary_contents(self, interval_p2_small):
        s = interval_p2_small
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="rescaled", field=s.profile.V.copy(),
                                    time=0.0),
                        horizon=0.5, dt=5e-3,
                        sample_every=0.25)
        meta = traj.step_summary()
        assert meta["kind"] == "rescaled" and meta["steps"] == 100
        assert meta["samples"] == 2 and meta["dt_max"] <= 5e-3 + 1e-15

    def test_step_summary_newton_histogram(self, interval_p2_small):
        s = interval_p2_small
        v0 = F.mode_perturbed_field(s, [(2, 3.0)])
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="rescaled", field=v0, time=0.0),
                        horizon=0.5, dt=5e-3, sample_every=0.25)
        meta = traj.step_summary()
        hist = meta["newton_hist"]
        assert len(hist) == meta["newton_max"] + 1 and len(hist) > 2
        assert sum(hist) == meta["steps"]
        assert sum(i * k for i, k in enumerate(hist)) == meta["newton_total"]
        assert all(isinstance(k, int) for k in hist)    # JSON-ready

    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    def test_sup_norms_are_those_of_the_marched_fields(self, interval_p2_small,
                                                       kind):
        s = interval_p2_small
        v0 = F.mode_perturbed_field(s, [(2, 0.3)])
        field0 = v0 if kind == "rescaled" else v0 ** s.exps.p
        times = [0.05 * (i + 1) for i in range(30)]
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind=kind, field=field0.copy(), time=0.0),
                        horizon=1.5, dt=3e-3, sample_every=0.05)
        states = F.march(s.grid, s.exps,
                         F.FlowState(kind=kind, field=field0.copy(), time=0.0),
                         dt=3e-3, targets=times)
        sups = [np.max(np.abs(state.field)) for state in states]
        assert traj.initial_sup == np.max(np.abs(field0))
        assert traj.sample_times.tolist() == times
        assert traj.sup_norms().tolist() == sups

    def test_keeps_no_field(self):
        # 2,000 samples of an n=1024 field would hold 16 MB
        grid = F.build_domain(F.DomainSpec(geometry="interval", nodes=1024))
        exps = F.Exponents.make(p=2.0, c=1.0)
        v0 = 1.1 * F.solve_stationary(grid, exps).V
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = F.evolve(grid, exps, F.FlowState(kind="rescaled", field=v0,
                                                    time=0.0),
                            horizon=2.0, dt=1e-3, sample_every=1e-3)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(traj.sample_times) == 2000
        assert kept < 2e6

    def test_keeps_the_entropy_trace_as_columns(self):
        # a sample keeps its report row, 8 + 3 k_p floats (k_p = 1 here),
        # and its time and sup, 8 B each; a step its dt (8 B) and Newton
        # count (2 B).  The trace is a view of the run's buffer, sized once
        # to the 2,000 samples: no blocks, no joined copy.  Python floats
        # per sample and step, blocks and a join kept about 300 B a sample
        # and peaked at 520 B a sample
        setup = F.prepare(F.DomainSpec(geometry="interval", nodes=1024),
                          F.Exponents.make(p=2.0, c=1.0))
        v0 = F.mode_perturbed_field(setup, [(2, 0.1)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj, trace = F.run_rescaled(setup, v0, horizon=2.0, dt=1e-3,
                                         cadence=1e-3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == len(traj.sample_times) == len(traj.dt_history) \
            == 2000
        assert np.shares_memory(trace.data, traj.diagnostics)
        assert trace.data.base.shape == trace.data.shape == (2000, 11)
        assert kept - before <= 200 * 2000
        assert peak - before <= 500 * 2000


    def test_buffer_is_sized_once_without_a_stop_and_doubles_with_one(
            self, interval_p2_small, monkeypatch):
        # at n = 129 a block holds 63 samples, or 8 (_STOP_BLOCK) in a run
        # with a stop, and the run to t = 0.3 holds 300.  The sampler sees
        # the buffer of the blocks before its own: without a stop it is
        # sized once, to the 300 samples at the horizon; with one it doubles
        # from the first block, up to 300; the rows survive each growth.
        # Only an in-process sampler sees the buffer as the run goes, so
        # the run without a stop, which may sample in a forked child, is
        # held in-process
        s = interval_p2_small
        march, trajs = fdelab.flow.march, []
        monkeypatch.setattr(fdelab.flow, "_forks", lambda: False)

        def held_march(*args):      # evolve passes its trajectory 7th
            trajs.append(args[6])
            return march(*args)

        monkeypatch.setattr(fdelab.flow, "march", held_march)

        def sizes(stop=None):
            seen = []

            def sampler(times, fields):
                rows = trajs[-1].diagnostics
                if rows is not None:
                    seen.append(len(rows.base))
                return np.array(times)[:, None]

            traj = F.evolve(s.grid, s.exps, F.FlowState(
                kind="rescaled", field=s.profile.V.copy(), time=0.0),
                horizon=0.3, dt=1e-3, sample_every=1e-3, sampler=sampler,
                stop=stop)
            assert traj.diagnostics[:, 0].tolist() == traj.sample_times.tolist()
            return seen + [len(traj.diagnostics.base)]

        assert sizes() == [300] * 5
        assert sizes(lambda traj: False) == ([8, 16] + [32] * 2 + [64] * 4
                                             + [128] * 8 + [256] * 16
                                             + [300] * 6)

    @staticmethod
    def one_sample_blocks(monkeypatch, grid, run):
        """run() with _BLOCK_VALUES at n, so that evolve records every
        sample in a sampler call of its own."""
        with monkeypatch.context() as patch:
            patch.setattr(fdelab.flow, "_BLOCK_VALUES", grid.n)
            return run()

    @staticmethod
    def assert_same_records(traj, stepped, blocks):
        """traj recorded by a sized sampler in blocks of the given sizes,
        stepped one sample per block, and their rows but the sizes are the
        same array, bit for bit."""
        assert block_sizes(traj.diagnostics) == blocks
        assert block_sizes(stepped.diagnostics) == [1] * sum(blocks)
        assert len(stepped.diagnostics) == len(stepped.sample_times) == sum(blocks)
        assert traj.sample_times == stepped.sample_times
        assert traj.sups == stepped.sups
        assert traj.dt_history == stepped.dt_history
        assert len(traj.diagnostics) == sum(blocks)
        assert traj.diagnostics.dtype == float
        assert (traj.diagnostics[:, :-1].tobytes()
                == stepped.diagnostics[:, :-1].tobytes())

    def test_horizon_ending_mid_block_records_as_next_does(self,
                                                           interval_p2_small,
                                                           monkeypatch):
        # at n = 129 evolve records 63 samples at once: 140 samples are
        # two full blocks and 14 in a last one, flushed before it returns
        # (the sizes are read from the rows: a run of more than one block
        # with no stop may sample in a forked child)
        s = interval_p2_small
        weights = F.ReportWeights.make(s.grid, s.profile.V, s.exps, s.eigs,
                                       s.gap)

        def run():
            return F.evolve(s.grid, s.exps, F.FlowState(
                kind="rescaled", field=F.mode_perturbed_field(s, [(2, 0.3)]),
                time=0.0), horizon=0.7, dt=5e-3, sample_every=5e-3,
                sampler=sized(
                    lambda times, v: F.entropy_report(weights, v, times).data))

        assert fdelab.flow._BLOCK_VALUES // s.grid.n == 63
        traj = run()
        assert len(traj.sample_times) == 140
        stepped = self.one_sample_blocks(monkeypatch, s.grid, run)
        self.assert_same_records(traj, stepped, [63, 63, 14])

    def test_stop_firing_mid_block_records_as_next_does(self,
                                                        interval_p2_small,
                                                        monkeypatch):
        # a stop between the 99th and 100th samples' sup fires at the
        # 100th sample, 4 samples into evolve's thirteenth block of 8
        s = interval_p2_small

        def run(horizon, stop=None):
            return F.evolve(s.grid, s.exps, F.FlowState(
                kind="original", field=s.profile.S.copy(), time=0.0),
                horizon=horizon, dt=1e-2, sample_every=1e-2,
                sampler=sized(lambda times, fields: np.column_stack(
                    [times, np.vecdot(fields, fields)])), stop=stop)

        stepped = self.one_sample_blocks(monkeypatch, s.grid,
                                         lambda: run(1.0))
        level = 0.5 * (stepped.sups[98] + stepped.sups[99])
        assert stepped.sups[98] > level > stepped.sups[99]
        traj = run(10.0, stop=lambda traj: traj.sups[-1] < level)
        assert len(traj.sample_times) == 100
        self.assert_same_records(traj, stepped, [8] * 12 + [4])

    def test_rescale_scales_the_state_and_the_start(self, interval_p2_small):
        # a rule that scales by 2 at t = 0 and by 1.0 after every sample
        # gives the run from 2 v0, bit for bit: the extrapolated start is
        # formed from fields scaled alike, and each yielded field is left
        # as it was yielded
        s = interval_p2_small
        v0 = F.mode_perturbed_field(s, [(2, 0.3)])
        sigmas = iter([2.0])

        def rule(field):
            return next(sigmas, 1.0)

        def run(field, rescale=None):
            states = F.march(s.grid, s.exps,
                             F.FlowState(kind="rescaled", field=field, time=0.0),
                             5e-3, [0.05 * (i + 1) for i in range(10)],
                             rescale=rescale)
            return [(state.field, state.field.copy()) for state in states]

        scaled, straight = run(v0, rule), run(2.0 * v0)
        assert all(np.array_equal(a, b) and np.array_equal(a, kept)
                   for (a, kept), (b, _) in zip(scaled, straight))

        def newton_total(rescale):
            traj = F.Trajectory(kind="rescaled", initial_sup=0.0)
            for _ in F.march(s.grid, s.exps,
                             F.FlowState(kind="rescaled", field=v0, time=0.0),
                             5e-3, [0.05 * (i + 1) for i in range(40)],
                             traj=traj, rescale=rescale):
                pass
            return sum(traj.newton_history)

        # scaling by 1 + 1e-4 after every sample costs no Newton iteration
        # (measured 407 either way; 448 with f_prev left unscaled)
        assert newton_total(lambda field: 1.0 + 1e-4) <= newton_total(None)

    def test_a_dropped_run_is_freed_at_once(self, interval_p2_small):
        # no reference cycle: the trajectory evolve returns and the buffer
        # its rows view go when the last reference does, not at a later
        # cyclic collection
        s = interval_p2_small
        traj = F.evolve(s.grid, s.exps, F.FlowState(
            kind="rescaled", field=s.profile.V.copy(), time=0.0),
            horizon=0.05, dt=5e-3, sample_every=0.05,
            sampler=lambda times, fields: np.array(times)[:, None])
        gone = [weakref.ref(traj), weakref.ref(traj.diagnostics.base)]
        del traj
        assert [ref() for ref in gone] == [None, None]


class TestExtinction:
    def test_manufactured_trajectory(self, interval_p2_small):
        s = interval_p2_small
        m = 0.5
        g = np.sin(np.pi * s.grid.coords)
        traj = F.Trajectory(kind="original", initial_sup=float(np.max(np.abs(g))))
        for tau in np.linspace(0.05, 1.9, 60):
            traj.sample_times.append(float(tau))
            field = (1.0 - tau / 2.0) ** (1.0 / (1.0 - m)) * g
            traj.sups.append(float(np.max(np.abs(field))))
        est = F.estimate_extinction_time(traj, m)
        assert abs(est.T_est - 2.0) < 1e-10
        assert est.fit_residual < 1e-12

    def test_recovers_T_from_profile_datum(self, interval_p2_small):
        s = interval_p2_small
        exps = s.exps
        dt = exps.T / 4000.0
        level = 5e-4 * s.profile.S.max()
        traj = F.evolve(s.grid, exps,
                        F.FlowState(kind="original", field=s.profile.S.copy(),
                                    time=0.0),
                        horizon=1.2 * exps.T,
                        dt=dt,
                        sample_every=exps.T / 200.0,
                        stop=lambda traj: traj.sups[-1] < level)
        est = F.estimate_extinction_time(traj, exps.m)
        assert abs(est.T_est - exps.T) / exps.T < 0.01

    def test_scaled_datum_shifts_extinction_time(self, interval_p2_small):
        # T(a u0) = a^(1-m) T(u0): doubling the datum stretches the clock
        s = interval_p2_small
        exps = s.exps
        T2 = 2.0 ** (1.0 - exps.m) * exps.T
        dt = T2 / 4000.0
        level = 1e-3 * s.profile.S.max()
        traj = F.evolve(s.grid, exps,
                        F.FlowState(kind="original",
                                    field=2.0 * s.profile.S, time=0.0),
                        horizon=1.2 * T2,
                        dt=dt,
                        sample_every=T2 / 200.0,
                        stop=lambda traj: traj.sups[-1] < level)
        est = F.estimate_extinction_time(traj, exps.m)
        assert abs(est.T_est - T2) / T2 < 0.01

    def test_insufficient_decay(self, interval_p2_small):
        s = interval_p2_small
        sup_S = float(np.max(np.abs(s.profile.S)))
        traj = F.Trajectory(kind="original", initial_sup=sup_S)
        for tau in np.linspace(0.01, 0.02, 12):
            traj.sample_times.append(float(tau))
            traj.sups.append(sup_S)
        with pytest.raises(F.NumericalFailure,
                           match="only 0 samples inside the fit window"):
            F.estimate_extinction_time(traj, s.exps.m)


# Reference copy of the original solve_banded steppers, one closure set per
# kind; the shared dgtsv stepper must reproduce it bit for bit.
def _reference_newton(scale_hint, guess, residual, jac_banded, max_iters=30):
    eps = np.finfo(float).eps
    floor = 2.0 * eps * scale_hint
    guard = 512.0 * eps * scale_hint
    x = guess.copy()
    res = residual(x)
    rnorm = float(np.max(np.abs(res)))

    def accept(iters):
        if x.min() <= 1e-300 * 10:
            raise F.NumericalFailure("converged step is not strictly positive")
        return x, iters

    for it in range(1, max_iters + 1):
        if rnorm <= floor:
            return accept(it - 1)
        step = solve_banded((1, 1), jac_banded(x), -res)
        lam = 1.0
        improved = False
        while lam >= 1e-12:
            xt = np.maximum(x + lam * step, 1e-300)
            rt = residual(xt)
            if np.max(np.abs(rt)) < rnorm:
                x, res = xt, rt
                rnorm = float(np.max(np.abs(res)))
                improved = True
                break
            if lam == 1.0 and rnorm <= guard:
                return accept(it)
            lam *= 0.5
        if not improved:
            if rnorm <= guard:
                return accept(it)
            raise StepFailure(f"line search stalled (residual {rnorm:.3e})")
    if rnorm <= guard:
        return accept(max_iters)
    raise StepFailure(f"Newton did not converge (residual {rnorm:.3e})")


def _reference_step(grid, exps, field, dt, kind, start=None):
    """(new field, Newton iterations) of the original per-kind steppers;
    start, if given, is the guess of the new field Newton begins from."""
    qw, lo, di = grid.quad_weights, grid.lap_offdiag, grid.lap_diag
    m = exps.m
    c = exps.c if kind == "rescaled" else None

    def lap(f):
        af = di * f
        af[1:] += lo * f[:-1]
        af[:-1] += lo * f[1:]
        return -af / qw

    if kind == "rescaled":
        w_old = field ** exps.p

        def residual(w):
            return w - dt * (lap(w ** m) + c * w) - w_old

        def jac(w):
            dmu = m * w ** (m - 1.0)
            ab = np.zeros((3, grid.n))
            ab[0, 1:] = dt * (lo / qw[:-1]) * dmu[1:]
            ab[1, :] = 1.0 - dt * c + dt * (di / qw) * dmu
            ab[2, :-1] = dt * (lo / qw[1:]) * dmu[:-1]
            return ab

        scale = float(np.max(w_old) + 4.0 * dt * np.max(field) / grid.h ** 2
                      + dt * c * np.max(w_old))
        guess = w_old if start is None else np.maximum(start ** exps.p, 1e-300)
        w_new, iters = _reference_newton(scale, guess, residual, jac)
        return w_new ** m, iters

    def residual(u):
        return u - dt * lap(u ** m) - field

    def jac(u):
        dmu = m * u ** (m - 1.0)
        ab = np.zeros((3, grid.n))
        ab[0, 1:] = dt * (lo / qw[:-1]) * dmu[1:]
        ab[1, :] = 1.0 + dt * (di / qw) * dmu
        ab[2, :-1] = dt * (lo / qw[1:]) * dmu[:-1]
        return ab

    scale = float(np.max(field) + 4.0 * dt * np.max(field ** m) / grid.h ** 2)
    guess = field if start is None else start
    return _reference_newton(scale, np.maximum(guess, 1e-300), residual, jac)


class TestSharedStepper:
    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bit_identical_to_reference(self, kind, p):
        s = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                      F.Exponents.make(p=p, c=1.0))
        v0 = F.mode_perturbed_field(s, [(2, 0.3)])
        if kind == "rescaled":
            field, dt, step = v0, 1e-3, F.step_rescaled
        else:
            field, dt, step = v0 ** p, s.exps.T / 400.0, F.step_original
        state = F.FlowState(kind=kind, field=field.copy(), time=0.0)
        for _ in range(200):
            field, iters = _reference_step(s.grid, s.exps, field, dt, kind)
            state = step(s.grid, s.exps, state, dt)
            assert np.array_equal(state.field, field)
            assert state.newton_iters == iters

    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_march_is_the_reference_from_the_extrapolated_start(self, kind, p,
                                                                 monkeypatch):
        # the path the runs take: march starts each step from the extrapolation
        # of the last two accepted fields, and targets 3.7 dt apart clip every
        # fourth step, so dt changes; each step must be the reference step from
        # that start, bit for bit
        s = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                      F.Exponents.make(p=p, c=1.0))
        v0 = F.mode_perturbed_field(s, [(2, 0.3)])
        if kind == "rescaled":
            field, dt, name = v0, 1e-3, "step_rescaled"
        else:
            field, dt, name = v0 ** p, s.exps.T / 400.0, "step_original"
        real, calls = getattr(fdelab.flow, name), []

        def recorded(grid, exps, state, dt, start=None):
            out = real(grid, exps, state, dt, start=start)
            calls.append((state.field, dt, start, out))
            return out

        monkeypatch.setattr(fdelab.flow, name, recorded)
        state = F.FlowState(kind=kind, field=field.copy(), time=0.0)
        targets = [3.7 * dt * (i + 1) for i in range(50)]
        for _ in F.march(s.grid, s.exps, state, dt, targets):
            pass
        assert len(calls) == 200
        assert len({h for _, h, _, _ in calls}) > 1
        prev = None
        for f, h, start, out in calls:
            if prev is None:
                assert start is None
            else:
                f_prev, h_prev, out_prev = prev
                assert f is out_prev.field
                expected = np.maximum(f + (h / h_prev) * (f - f_prev), 0.5 * f)
                assert np.array_equal(start, expected)
            ref, iters = _reference_step(s.grid, s.exps, f, h, kind, start)
            assert np.array_equal(out.field, ref)
            assert out.newton_iters == iters
            prev = (f, h, out)

    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_damped_steps_are_the_reference(self, kind, p, monkeypatch):
        # starts far from the root, where the line search halves lam: uniform
        # multiples of the old state take full Newton steps at n = 129, so most
        # starts oscillate; a step from each must be the reference step from
        # that start, in its bits and Newton count, or fail as the reference
        # does (a stalled line search halves lam down to 1e-12)
        s = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                      F.Exponents.make(p=p, c=1.0))
        v0 = F.mode_perturbed_field(s, [(2, 0.3)])
        if kind == "rescaled":
            field, dt, step = v0, 1e-3, F.step_rescaled
        else:
            field, dt, step = v0 ** p, s.exps.T / 400.0, F.step_original
        real, evaluations = fdelab.flow._residual, []

        def counted(*args):
            evaluations.append(None)
            return real(*args)

        def outcome(stepper):
            try:
                return stepper()
            except StepFailure as exc:
                return str(exc)

        monkeypatch.setattr(fdelab.flow, "_residual", counted)
        x = s.grid.coords
        starts = [4.0 * field, 0.25 * field] + [
            field * np.exp(a * np.sin(k * np.pi * x))
            for a in (1.0, 2.0, 3.0) for k in (2, 10, 20, 40)]
        state = F.FlowState(kind=kind, field=field, time=0.0)
        damped = 0
        for h in (dt, 4.0 * dt, 10.0 * dt):
            for start in starts:
                evaluations.clear()
                out = outcome(lambda: step(s.grid, s.exps, state, h, start=start))
                ref = outcome(lambda: _reference_step(s.grid, s.exps, field, h,
                                                      kind, start))
                if isinstance(ref, str):
                    assert out == ref
                    continue
                assert np.array_equal(out.field, ref[0])
                assert out.newton_iters == ref[1]
                damped += len(evaluations) > 1 + out.newton_iters
        assert damped >= 1

    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("with_start", [False, True])
    def test_nonfinite_state_is_a_numerical_failure(self, interval_p2_small,
                                                    kind, bad, with_start):
        s = interval_p2_small
        V = s.profile.V
        field = (V if kind == "rescaled" else V ** s.exps.p).copy()
        start = field.copy() if with_start else None
        field[5] = bad
        step = F.step_rescaled if kind == "rescaled" else F.step_original
        state = F.FlowState(kind=kind, field=field, time=0.0)
        # refused before any residual: from an infinite old state the first
        # residual would form inf - inf, which numpy warns of
        with pytest.raises(F.NumericalFailure,
                           match="implicit step residual is not finite"):
            step(s.grid, s.exps, state, 1e-3, start=start)

    @pytest.mark.parametrize("kind", ["rescaled", "original"])
    def test_nan_in_the_start_is_a_numerical_failure(self, interval_p2_small,
                                                     kind):
        # a finite state, but a start with a NaN: the first residual holds
        # the NaN, and its norm, the element at argmax, is that NaN
        s = interval_p2_small
        V = s.profile.V
        field = V if kind == "rescaled" else V ** s.exps.p
        start = field.copy()
        start[5] = np.nan
        step = F.step_rescaled if kind == "rescaled" else F.step_original
        state = F.FlowState(kind=kind, field=field.copy(), time=0.0)
        with pytest.raises(F.NumericalFailure,
                           match="implicit step residual is not finite"):
            step(s.grid, s.exps, state, 1e-3, start=start)

    def test_negative_original_state_is_a_numerical_failure(self,
                                                            interval_p2_small):
        s = interval_p2_small
        field = s.profile.S.copy()
        field[5] = -1e-3
        state = F.FlowState(kind="original", field=field, time=0.0)
        with pytest.raises(F.NumericalFailure,
                           match="original state must be nonnegative"):
            F.step_original(s.grid, s.exps, state, 1e-3)

    def test_steps_on_two_grids_and_two_dts_are_fresh(self):
        # the stepper reuses its dt-scaled Jacobian rows from step to step: a
        # step on another grid at the same dt, or on the same grid at another
        # dt, must not read the rows of the step before
        exps = F.Exponents.make(p=2.0, c=1.0)
        setups = [F.prepare(F.DomainSpec(geometry="interval", nodes=129), exps),
                  F.prepare(F.DomainSpec(geometry="ball", nodes=129, dimension=3,
                                         radius=1.0), exps)]
        states = [F.FlowState(kind="rescaled", time=0.0,
                              field=F.mode_perturbed_field(s, [(2, 0.1)]))
                  for s in setups]
        schedule = [(0, 1e-3), (1, 1e-3), (0, 1e-3), (0, 4e-3), (1, 4e-3),
                    (1, 1e-3), (0, 4e-3), (1, 1e-3)] * 5
        for i, dt in schedule:
            grid = setups[i].grid
            ref, iters = _reference_step(grid, exps, states[i].field, dt,
                                         "rescaled")
            states[i] = F.step_rescaled(grid, exps, states[i], dt)
            assert np.array_equal(states[i].field, ref)
            assert states[i].newton_iters == iters

    def test_rows_are_formed_once_per_dt_of_a_run_sampled_every_step(
            self, interval_p2_small, monkeypatch):
        # a run sampled every step steps whole dt, one step length, and
        # forms that length's rows once
        s, real = interval_p2_small, fdelab.flow._dt_rows
        formed = []

        def spy(grid, dt):
            before = fdelab.flow._rows
            out = real(grid, dt)
            if fdelab.flow._rows is not before:
                formed.append(dt)
            return out

        monkeypatch.setattr(fdelab.flow, "_dt_rows", spy)
        monkeypatch.setattr(fdelab.flow, "_rows", (None, None, None))
        traj = F.evolve(s.grid, s.exps, F.FlowState(
            kind="rescaled", field=F.mode_perturbed_field(s, [(2, 0.3)]),
            time=0.0), horizon=1.0, dt=5e-3, sample_every=5e-3)
        assert set(traj.dt_history) == {5e-3}
        assert formed == [5e-3]

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1.2, 4.0),
           dt=st.floats(1e-5, 1e-2),
           field=arrays(np.float64, 33, elements=st.floats(1e-3, 10.0)))
    def test_positivity_fixed_point_and_residual(self, p, dt, field):
        grid = F.build_domain(F.DomainSpec(geometry="interval", nodes=33))
        exps = F.Exponents.make(p=p, c=1.0)
        eps = np.finfo(float).eps

        def guard(v):
            w = v ** p
            return 512.0 * eps * (w.max() + 4.0 * dt * v.max() / grid.h ** 2
                                  + dt * exps.c * w.max())

        def residual(v0, v1):
            w0, w1 = v0 ** p, v1 ** p
            return w1 - dt * (F.apply_laplacian(grid, v1) + exps.c * w1) - w0

        V = F.solve_stationary(grid, exps).V
        fixed = F.step_rescaled(grid, exps,
                                F.FlowState(kind="rescaled", field=V, time=0.0), dt)
        assert np.abs(fixed.field ** p - V ** p).max() <= guard(V)

        # a datum far from the profile may stall Newton (StepFailure); the
        # step is then retried at half the dt, as evolve does
        state = F.FlowState(kind="rescaled", field=field, time=0.0)
        for _ in range(40):
            try:
                out = F.step_rescaled(grid, exps, state, dt)
                break
            except StepFailure:
                dt /= 2.0
        else:
            pytest.fail("no dt down to 2^-40 of the drawn one converged")
        assert out.field.min() > 0
        assert np.abs(residual(field, out.field)).max() <= guard(field)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(1.2, 4.0),
           dt=st.floats(1e-5, 1e-2),
           field=arrays(np.float64, 33, elements=st.floats(1e-3, 10.0)),
           start=arrays(np.float64, 33, elements=st.floats(1e-3, 10.0)))
    def test_any_start_solves_the_same_step(self, p, dt, field, start):
        # a start moves only Newton's first iterate: from any positive guess,
        # however far from the root, the step either fails (march then retries
        # it without the start) or meets the residual contract of the step
        # from the old state
        grid = F.build_domain(F.DomainSpec(geometry="interval", nodes=33))
        exps = F.Exponents.make(p=p, c=1.0)
        eps = np.finfo(float).eps
        w = field ** p
        cases = (
            ("rescaled", F.step_rescaled, w, exps.c, field.max(),
             lambda v1: v1 ** p),
            ("original", F.step_original, field, 0.0, (field ** exps.m).max(),
             lambda u1: u1),
        )
        for kind, step, w0, c, v_max, to_w in cases:
            state = F.FlowState(kind=kind, field=field, time=0.0)
            try:
                out = step(grid, exps, state, dt, start=start)
            except StepFailure:
                continue
            assert out.field.min() > 0
            w1 = to_w(out.field)
            res = w1 - dt * (F.apply_laplacian(grid, w1 ** exps.m) + c * w1) - w0
            guard = 512.0 * eps * (w0.max() + 4.0 * dt * v_max / grid.h ** 2
                                   + dt * c * w0.max())
            assert np.abs(res).max() <= guard, kind


class TestMarchStart:
    def test_failed_start_is_retried_at_the_same_dt(self, interval_p2_small,
                                                    monkeypatch):
        s = interval_p2_small
        real, calls = F.step_rescaled, []

        def refuses_starts(grid, exps, state, dt, start=None):
            calls.append((dt, start is not None))
            if start is not None:
                raise StepFailure("forced")
            return real(grid, exps, state, dt)

        monkeypatch.setattr(fdelab.flow, "step_rescaled", refuses_starts)
        v0 = F.mode_perturbed_field(s, [(2, 0.1)])
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="rescaled", field=v0, time=0.0),
                        horizon=0.05, dt=5e-3, sample_every=0.05)
        # first step has no start; every later one is tried with it, then
        # retried at the same dt without it
        assert calls[0] == (5e-3, False)
        assert calls[1:] == [(5e-3, True), (5e-3, False)] * 9
        assert traj.dt_history.tolist() == [5e-3] * 10

    def test_original_flow_needs_about_one_iteration_per_step(self,
                                                              interval_p2_small):
        # from S the original flow is u = (1 - t/T)^p S: smooth in time, so the
        # extrapolated start lies O(dt^2) from each step's root
        s = interval_p2_small
        T = s.exps.T
        traj = F.evolve(s.grid, s.exps,
                        F.FlowState(kind="original", field=s.profile.S.copy(),
                                    time=0.0),
                        horizon=0.9 * T, dt=2e-4 * T, sample_every=0.1 * T)
        meta = traj.step_summary()
        assert meta["steps"] == 4500
        assert meta["newton_total"] <= 1.25 * meta["steps"]
