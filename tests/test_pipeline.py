"""Extinction-clock matching: the clock-matched run and its rescale rule."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdelab as F
import fdelab.flow
from fdelab import pipeline

from conftest import inner_product_weighted


def interval_setup(p, nodes=129):
    return F.prepare(F.DomainSpec(geometry="interval", nodes=nodes),
                     F.Exponents.make(p=p, c=1.0))


@pytest.mark.parametrize("k", [0, -1, 9])
def test_mode_outside_the_spectrum_is_refused(interval_p2_small, k):
    # mode(0) and mode(-1) would index the last column: a mode is 1..K
    with pytest.raises(ValueError, match=f"mode {k} is outside the computed spectrum"):
        F.mode_perturbed_field(interval_p2_small, [(k, 0.01)])
    v0 = F.mode_perturbed_field(interval_p2_small, [(8, 0.01), (2, 0.1)])
    eigs = interval_p2_small.eigs
    assert np.array_equal(v0, interval_p2_small.profile.V + 0.01 * eigs.mode(8)
                          + 0.1 * eigs.mode(2))


@pytest.mark.parametrize("p, modes", [(1.5, [(2, 0.1)]), (2.0, [(2, 0.1)]),
                                      (3.0, [(3, 0.2)])])
def test_clock_matched_run_decays_on_the_manifold(p, modes):
    # A = int (v^p - V^p) phi_1, mode 1 of the reports' A_nl, sits on its
    # second-order manifold value at every sample: |A*| <= weight_2 E_lin,
    # with the slowest mode's weight c alpha (p-1) / (2 (gamma + 2 mu_2)).
    # Measured |A| / (weight_2 E_lin) <= 1.02, 1.00 and 0.31 while
    # E_lin >= 1e-6; below that the state's rounding dominates A.
    setup = interval_setup(p)
    base = F.mode_perturbed_field(setup, modes)
    res = F.run_nonlinear_rate_case(setup, base, horizon=12.0, want_fit=False)
    c, lam = setup.exps.c, setup.eigs.eigenvalues
    alpha = 1.0 / pipeline._mode1_coefficient(setup, setup.profile.V)
    gamma, mu_2 = c * (p - 1.0) / p, (lam[1] - c * p) / p
    weight_2 = 0.5 * c * alpha * (p - 1.0) / (gamma + 2.0 * mu_2)
    deep = [r for r in res.reports if r.E_lin >= 1e-6]
    assert len(deep) >= 20
    assert all(r.A_nl[0] <= 1.05 * weight_2 * r.E_lin for r in deep)
    # so the entropy keeps falling, far below the 1e-12 floor the shooting
    # accepted a trial at (measured 5.6e-23, 3.6e-18 and 8.4e-27 at t = 12),
    # and every sigma after the first stays near 1 (1.1e-12, 1.4e-10, 3.3e-7)
    assert res.reports[-1].E_nl <= 1e-16
    assert res.calibration.max_shift <= 1e-6
    assert len(res.calibration.sigmas) == len(res.reports) == 240


def test_rate_p2_run_is_the_shootings_scale(calibrated_trace_p2):
    # the rate-p2 shape (n = 257): every sigma after the first is 1 within
    # 1e-9 (measured 7.0e-11), and the product lies within 1e-9 of the
    # scale the shooting accepted for it (0.9999912983816157; measured
    # 1.1e-10).  The sigmas after the first shift the run in t by
    # T (p - 1) |log of their product| (measured 1.7e-9).
    setup, result = calibrated_trace_p2
    cal = result.calibration
    assert cal.trials == 0
    assert cal.max_shift <= 1e-9
    assert abs(cal.scale - 0.9999912983816157) <= 1e-9
    T, p = setup.exps.T, setup.exps.p
    assert T * (p - 1.0) * abs(np.log(np.prod(cal.sigmas[1:]))) <= 1e-8


def test_second_order_term_sets_the_scale(amp3_calibrated_traces):
    # V + 3 phi_2 at n = 129: <f, phi_1>_V is zero, but f sits O(E) off the
    # stable manifold.  The run at dt = 5e-4 ends within 1e-6 of the scale
    # the shooting accepted (0.9922687660843243; measured 1.7e-7); holding
    # <f, phi_1>_V at zero instead (the linear slice) misses it by 1.3e-3.
    setup, clocks, _ = amp3_calibrated_traces
    b_shooting = 0.9922687660843243
    assert abs(clocks[5e-4].scale - b_shooting) <= 1e-6
    base = F.mode_perturbed_field(setup, [(2, 3.0)])
    on_V = pipeline._mode1_coefficient(setup, setup.profile.V)
    sigmas = []

    def linear_slice(v):
        sigmas.append(on_V / pipeline._mode1_coefficient(setup, v))
        return sigmas[-1]

    targets = [(i + 1) * 5e-3 for i in range(700)]     # t = 3.5
    for _ in F.march(setup.grid, setup.exps,
                     F.FlowState(kind="rescaled", field=base, time=0.0),
                     5e-4, targets, rescale=linear_slice):
        pass
    assert abs(np.prod(sigmas) - b_shooting) >= 1e-3


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([None, 1, 3]), p=st.floats(1.2, 4.0),
       n=st.integers(33, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_predicted_slope_is_positive(dim, p, n, seed):
    # phi_1 is positive (fdelab.spectrum), so <base, phi_1>_V > 0 for any
    # positive base; so is int v^p phi_1, the denominator of clock_rule
    if dim is None:
        spec = F.DomainSpec(geometry="interval", nodes=n)
    else:
        spec = F.DomainSpec(geometry="ball", nodes=n, dimension=dim)
    grid = F.build_domain(spec)
    V = F.solve_stationary(grid, F.Exponents.make(p=p, c=1.0)).V
    eigs = F.weighted_eigensystem(grid, V, p, K=1)
    base = np.random.default_rng(seed).uniform(1e-6, 1.0, n)
    assert inner_product_weighted(grid, base, eigs.mode(1), eigs.weight) > 0


def test_a_step_of_T_is_refused_before_any_trial(monkeypatch):
    # T = 2 at p = 2, c = 1: the unstable mode's implicit step is singular;
    # the clock-matched run is refused before it is built
    setup = interval_setup(2.0, nodes=65)
    monkeypatch.setattr(pipeline, "_rescaled_run",
                        lambda *args: pytest.fail("a run was built"))
    with pytest.raises(ValueError, match=r"min\(dt, cadence\) = 2\.0, which "
                                         r"must be below T = 2\.0"):
        F.match_extinction_clock(setup, 1.01 * setup.profile.V, dt=2.0,
                                 cadence=2.0)


def test_constant_field_is_matched_by_its_first_sigma():
    # From the constant field at n=33, p=2, far below V (sup V ~ 11.8), the
    # unscaled flow collapses in finite time: its first step at dt = 2^-7
    # stalls in the line search, and march retries it at half the dt.  The
    # shooting took 5 trials to accept a scale between 9 and 10; the first
    # sigma lands there (measured 9.510, product 9.489), and no step fails.
    setup = interval_setup(2.0, nodes=33)
    run = F.Run(setup.grid, setup.exps,
                F.FlowState(kind="rescaled", field=0.998 * np.ones(33), time=0.0),
                2 ** -7, 10 * 2 ** -7)
    assert min(run.to_horizon(0.2).dt_history) < 2 ** -7
    res = F.run_nonlinear_rate_case(setup, np.ones(33), horizon=12.0,
                                    dt=2 ** -7, cadence=10 * 2 ** -7,
                                    want_fit=False)
    assert res.step_summary["dt_min"] == 2 ** -7
    assert 9.0 < res.calibration.sigmas[0] < 10.0
    assert 9.0 < res.calibration.scale < 10.0
    assert res.reports[-1].E_nl < 1e-12


@pytest.mark.parametrize("p, bound", [(1.15, 5e-3), (5.0, 1e-6)])
def test_exponent_range_cell_passes(p, bound):
    # the rate-p2 shape at n = 129, horizon 12: the shooting gave a wrong
    # FAIL at p = 1.15 (rate 4.50 against 5.22) and needed 6 trials at
    # p = 5; the clock-matched run passes both (rel_error_dt measured
    # 1.28e-3 and 1.46e-8)
    setup = interval_setup(p)
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    res = F.run_nonlinear_rate_case(setup, base, horizon=12.0, dt=1e-3,
                                    cadence=0.02)
    assert res.verdict.passed
    assert res.verdict.rel_error_dt <= bound


def assert_replayed(res, setup, base, horizon, cadence=0.05):
    """res's reports, step summary and sigmas are those of the rescaled flow
    from base replayed through march with clock_rule, one report per
    field, bit for bit."""
    weights = F.ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                   setup.eigs, setup.gap)
    traj, sigmas = F.Trajectory(kind="rescaled", initial_sup=0.0), []
    n = round(horizon / cadence)
    states = F.march(setup.grid, setup.exps,
                     F.FlowState(kind="rescaled", field=base, time=0.0), 1e-3,
                     [(i + 1) * float(cadence) for i in range(n)], traj=traj,
                     rescale=F.clock_rule(setup, sigmas))
    reports = [F.entropy_report(weights, state.field, state.time)
               for state in states]
    assert len(res.reports) == n
    assert [pickle.dumps(r) for r in res.reports] == [pickle.dumps(r) for r in reports]
    assert res.step_summary == {**traj.step_summary(), "samples": n}
    assert res.calibration.sigmas == sigmas


@pytest.mark.parametrize("horizon, cadence", [(12.0, 0.05), (3.0, 0.05),
                                              (3.0, 1)])
def test_clock_matched_run_is_the_rule_replayed(interval_p2_small, horizon,
                                                cadence):
    # an int cadence samples at float times too
    setup = interval_p2_small
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    res = F.run_nonlinear_rate_case(setup, base, horizon=horizon, dt=1e-3,
                                    cadence=cadence, want_fit=False)
    assert_replayed(res, setup, base, horizon, cadence)
    assert pickle.loads(pickle.dumps(res)).calibration == res.calibration


def test_reports_are_recorded_in_blocks_by_to_horizon_alone(monkeypatch,
                                                            interval_p2_small):
    # every entropy report of a clock-matched rate case is formed inside
    # its one Run.to_horizon call, in full blocks but for the last flush;
    # the reports are still those of the rule replayed one field at a time
    setup = interval_p2_small
    to_horizon, report = F.Run.to_horizon, pipeline.entropy_report
    per_call, outside = [], []      # report stack sizes per to_horizon call
    current = None

    def counted_to_horizon(run, *args, **kwargs):
        nonlocal current
        current = []
        per_call.append(current)
        try:
            return to_horizon(run, *args, **kwargs)
        finally:
            current = None

    def counted_report(weights, v, t):
        (outside if current is None else current).append(len(v))
        return report(weights, v, t)

    monkeypatch.setattr(F.Run, "to_horizon", counted_to_horizon)
    monkeypatch.setattr(pipeline, "entropy_report", counted_report)
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    res = F.run_nonlinear_rate_case(setup, base, horizon=3.0, dt=1e-3,
                                    want_fit=False)
    block = fdelab.flow._BLOCK_VALUES // setup.grid.n
    assert res.calibration.trials == 0 and outside == []
    assert len(per_call) == 1 and sum(per_call[0]) == 60
    assert all(size == block for sizes in per_call for size in sizes[:-1])
    monkeypatch.undo()
    assert_replayed(res, setup, base, 3.0)


@pytest.mark.parametrize("match_clock", [True, False])
def test_run_without_a_sample_is_not_a_trivial_fixed_point(interval_p2_small,
                                                           match_clock):
    # the horizon holds no sample time: no report says the entropy is small
    setup = interval_p2_small
    base = (setup.profile.V if match_clock
            else F.mode_perturbed_field(setup, [(2, 0.1)]))
    res = F.run_nonlinear_rate_case(setup, base, horizon=1.0, cadence=2.0,
                                    match_clock=match_clock, want_fit=False)
    assert res.reports == [] and res.step_summary["steps"] == 0
    assert not res.trivial_fixed_point


def test_run_from_a_datum_on_the_floor_is_a_fresh_run(interval_p2_small):
    # from V every sigma is 1.0 exactly, so the clock-matched run is the
    # unmatched one, bit for bit
    setup = interval_p2_small
    res = F.run_nonlinear_rate_case(setup, setup.profile.V, horizon=1.0,
                                    cadence=0.05, want_fit=False)
    assert res.calibration.sigmas == [1.0] * 20 and res.trivial_fixed_point
    traj, reports = F.run_rescaled(setup, setup.profile.V, horizon=1.0)
    assert [pickle.dumps(r) for r in res.reports] == [pickle.dumps(r) for r in reports]
    assert res.step_summary == traj.step_summary()


def test_linear_samples_are_the_one_projection(interval_p2_small):
    # every sample of run_linearized is linear_entropy and
    # project_coefficients of the field there, bit for bit
    setup = interval_p2_small
    rng = np.random.default_rng(3)
    f0 = 0.01 * setup.profile.V * rng.uniform(-1.0, 1.0, setup.grid.n)
    trace = F.run_linearized(setup, f0, horizon=1.0, dt=1e-2, cadence=0.1)
    states = F.march(setup.grid, setup.exps,
                     F.FlowState(kind="linearized", field=f0, time=0.0),
                     dt=1e-2, targets=trace.times, W=setup.eigs.W)
    K = len(setup.eigs.eigenvalues)
    for i, state in enumerate(states):
        e, i_lin = F.linear_entropy(setup.grid, setup.eigs, setup.gap.cp,
                                    state.field)
        assert (trace.E_lin[i], trace.I_lin[i]) == (e, i_lin)
        assert np.array_equal(trace.coefficients[i],
                              F.project_coefficients(setup.grid, setup.eigs,
                                                     state.field, K))
    assert i + 1 == trace.times.size == 10


def test_mode1_coefficient_is_the_projection(interval_p2_small):
    setup = interval_p2_small
    rng = np.random.default_rng(4)
    for _ in range(20):
        dev = setup.profile.V * rng.uniform(-1.0, 1.0, setup.grid.n)
        assert pipeline._mode1_coefficient(setup, dev) == F.project_coefficients(
            setup.grid, setup.eigs, dev, 1)[0]
