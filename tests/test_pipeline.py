"""Extinction-clock matching: the clock-matched run and its rescale rule."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdelab as F
import fdelab.flow
from fdelab import pipeline

from conftest import block_sizes, inner_product_weighted, sized


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
    # positive base; so is int v^p phi_1, the denominator of the clock's sigma
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
    # the clock-matched run is refused before it starts.  A shorter step
    # gets the empty calibration
    setup = interval_setup(2.0, nodes=65)
    monkeypatch.setattr(pipeline, "evolve",
                        lambda *args, **kwargs: pytest.fail("a run started"))
    refused = r"min\(dt, cadence\) = 2\.0, which must be below T = 2\.0"
    with pytest.raises(ValueError, match=refused):
        F.match_extinction_clock(setup, dt=2.0, cadence=2.0)
    with pytest.raises(ValueError, match=refused):
        F.run_nonlinear_rate_case(setup, 1.01 * setup.profile.V, horizon=4.0,
                                  dt=2.0, cadence=2.0)
    assert F.match_extinction_clock(setup, dt=1.0, cadence=2.0) == \
        F.ClockCalibration(sigmas=[])


def test_constant_field_is_matched_by_its_first_sigma():
    # From the constant field at n=33, p=2, far below V (sup V ~ 11.8), the
    # unscaled flow collapses in finite time: its first step at dt = 2^-7
    # stalls in the line search, and march retries it at half the dt.  The
    # shooting took 5 trials to accept a scale between 9 and 10; the first
    # sigma lands there (measured 9.510, product 9.489), and no step fails.
    setup = interval_setup(2.0, nodes=33)
    traj = F.evolve(setup.grid, setup.exps,
                    F.FlowState(kind="rescaled", field=0.998 * np.ones(33),
                                time=0.0), 0.2, 2 ** -7, 10 * 2 ** -7)
    assert min(traj.dt_history) < 2 ** -7
    res = F.run_nonlinear_rate_case(setup, np.ones(33), horizon=12.0,
                                    dt=2 ** -7, cadence=10 * 2 ** -7,
                                    want_fit=False)
    assert res.step_summary["dt_min"] == 2 ** -7
    assert 9.0 < res.calibration.sigmas[0] < 10.0
    assert 9.0 < res.calibration.scale < 10.0
    assert res.reports[-1].E_nl < 1e-12


@pytest.mark.parametrize("p, bound", [(1.15, 5e-3), (1.2, 1e-3), (3.0, 1e-6),
                                      (5.0, 1e-6)])
def test_exponent_range_cell_passes(p, bound):
    # the rate-p2 shape at n = 129, horizon 12: the shooting gave a wrong
    # FAIL at p = 1.15 (rate 4.50 against 5.22) and needed 6 trials at
    # p = 5; the clock-matched run passes every cell (rel_error_dt measured
    # 1.28e-3, 2.35e-4, 1.6e-8 and 1.46e-8)
    setup = interval_setup(p)
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    res = F.run_nonlinear_rate_case(setup, base, horizon=12.0, dt=1e-3,
                                    cadence=0.02)
    assert res.verdict.passed
    assert res.verdict.rel_error_dt <= bound


def full_run(setup, horizon, cadence):
    """The clock-matched run from V + 0.1 phi_2 at dt 1e-3, not fitted: it
    runs to the horizon."""
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    return F.run_nonlinear_rate_case(setup, base, horizon=horizon, dt=1e-3,
                                     cadence=cadence, want_fit=False)


@pytest.fixture(scope="module")
def rate_case_p5():
    # the rate-p2 shape at p = 5, n = 129, cadence 0.05: the entropy is
    # still in the band at t = 12, so the passage never closes
    setup = interval_setup(5.0)
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    return setup, F.run_nonlinear_rate_case(setup, base, horizon=12.0, dt=1e-3)


@pytest.mark.parametrize("fitted_case, horizon, cadence, samples, total", [
    ("rate_case_p2", 12.0, 0.02, 320, 600),
    ("rate_case_p15", 8.0, 0.02, 240, 400),
    ("rate_case_ball", 14.0, 0.02, 384, 700),
    ("rate_case_p5", 12.0, 0.05, 240, 240)])
def test_fitted_run_stops_once_its_fit_window_has_closed(
        request, fitted_case, horizon, cadence, samples, total):
    # a fitted run halts at the end of the block of samples (8,
    # flow._STOP_BLOCK) in which its first band passage closed; it is a
    # prefix of the run taken to the horizon, with that run's verdict bit
    # for bit
    setup, fitted = request.getfixturevalue(fitted_case)
    full = (request.getfixturevalue("calibrated_trace_p2")[1]
            if fitted_case == "rate_case_p2"
            else full_run(setup, horizon, cadence))
    assert len(fitted.reports) == fitted.step_summary["samples"] == samples
    assert len(full.reports) == total
    assert [pickle.dumps(r) for r in fitted.reports] \
        == [pickle.dumps(r) for r in full.reports[:samples]]
    assert fitted.calibration.sigmas == full.calibration.sigmas[:samples]
    E, band = [r.E_nl for r in full.reports], F.EntropyBand()
    fit = F.fit_rate([r.t for r in full.reports], E, band)
    assert fitted.verdict == F.sharp_rate_verdict(fit, setup.gap, setup.exps.p,
                                                  0.05, 1e-3, cadence)
    assert fitted.trivial_fixed_point is full.trivial_fixed_point is False
    block = fdelab.flow._STOP_BLOCK
    assert F.band_passage_closed(E[:samples], band) is (samples < total)
    assert not F.band_passage_closed(E[:samples - block], band)


def assert_replayed(res, setup, base, horizon, cadence=0.05):
    """res's reports, step summary and sigmas are those of the rescaled flow
    from base replayed through march with match_extinction_clock's rule,
    one report per field, bit for bit."""
    weights = F.ReportWeights.make(setup.grid, setup.profile.V, setup.exps,
                                   setup.eigs, setup.gap)
    traj = F.Trajectory(kind="rescaled", initial_sup=0.0)
    clock = F.match_extinction_clock(setup, 1e-3, cadence)
    n = round(horizon / cadence)
    states = F.march(setup.grid, setup.exps,
                     F.FlowState(kind="rescaled", field=base, time=0.0), 1e-3,
                     [(i + 1) * float(cadence) for i in range(n)], traj=traj,
                     rescale=clock)
    reports = [F.entropy_report(weights, state.field, state.time)
               for state in states]
    assert len(res.reports) == n
    assert [pickle.dumps(r) for r in res.reports] == [pickle.dumps(r) for r in reports]
    assert res.step_summary == {**traj.step_summary(), "samples": n}
    assert res.calibration.sigmas == clock.sigmas


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


def test_extinction_rerun_is_the_unfitted_clock_matched_run():
    # the closed loop's rerun from S^m on the estimated stage, sampled
    # every 0.1, is run_nonlinear_rate_case's unfitted run, bit for bit
    setup = interval_setup(2.0, nodes=65)
    result = F.run_extinction_pipeline(setup, rerun_horizon=2.0)
    rerun = F.run_nonlinear_rate_case(result.closed_loop_setup,
                                      setup.profile.S ** setup.exps.m, 2.0,
                                      1e-3, 0.1, want_fit=False)
    assert len(rerun.reports) == len(rerun.calibration.sigmas) == 20
    assert (pickle.dumps(result.closed_loop_reports)
            == pickle.dumps(rerun.reports))
    assert result.closed_loop_calibration.sigmas == rerun.calibration.sigmas


def test_reports_are_recorded_in_blocks_by_evolve_alone(monkeypatch,
                                                            interval_p2_small):
    # every entropy report of a clock-matched rate case is formed inside
    # its one evolve call, in full blocks but for the last flush; the
    # reports are still those of the rule replayed one field at a time
    setup = interval_p2_small
    evolve, report = pipeline.evolve, pipeline.entropy_report
    per_call, outside = [], []      # report stack sizes per evolve call
    current = None

    def counted_evolve(*args, **kwargs):
        nonlocal current
        current = []
        per_call.append(current)
        try:
            return evolve(*args, **kwargs)
        finally:
            current = None

    def counted_report(weights, v, t):
        (outside if current is None else current).append(len(v))
        return report(weights, v, t)

    monkeypatch.setattr(pipeline, "evolve", counted_evolve)
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


@pytest.mark.parametrize("nodes", [129, 257])
def test_fitted_run_records_blocks_of_at_most_the_stop_block(monkeypatch,
                                                             nodes):
    # a fitted run hands its sampler at most flow._STOP_BLOCK = 8 samples at
    # once, and its last block holds the sample that closed the passage; the
    # run not fitted records blocks of flow._BLOCK_VALUES // n (63 or 31)
    setup = interval_setup(2.0, nodes)
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    evolve = pipeline.evolve

    def run(want_fit, horizon):
        sizes = []

        def recorded(*args, **kwargs):    # run_rescaled passes its sampler 7th
            # a pure sampler, whose rows carry each block's size: a run
            # not fitted may sample in a forked child.  The sizes column
            # is dropped before run_rescaled reads the rows
            traj = evolve(*args[:6], sized(args[6]), *args[7:], **kwargs)
            sizes.extend(block_sizes(traj.diagnostics))
            traj.diagnostics = traj.diagnostics[:, :-1]
            return traj

        monkeypatch.setattr(pipeline, "evolve", recorded)
        res = F.run_nonlinear_rate_case(setup, base, horizon=horizon,
                                        cadence=0.02, want_fit=want_fit)
        return res, sizes

    fitted, sizes = run(True, 12.0)
    stop = fdelab.flow._STOP_BLOCK
    assert stop == 8 and sizes == [stop] * (len(sizes) - 1) + sizes[-1:]
    assert 1 <= sizes[-1] <= stop and sum(sizes) == len(fitted.reports) < 600
    E, band = fitted.reports.E_nl, F.EntropyBand()
    assert F.band_passage_closed(E, band)
    assert not F.band_passage_closed(E[:-sizes[-1]], band)
    _, sizes = run(False, 3.0)
    block = fdelab.flow._BLOCK_VALUES // nodes
    assert sizes == [block] * (150 // block) + [150 % block]


@pytest.mark.parametrize("match_clock", [True, False])
def test_run_without_a_sample_is_not_a_trivial_fixed_point(interval_p2_small,
                                                           match_clock):
    # the horizon holds no sample time: no report says the entropy is small
    setup = interval_p2_small
    base = (setup.profile.V if match_clock
            else F.mode_perturbed_field(setup, [(2, 0.1)]))
    res = F.run_nonlinear_rate_case(setup, base, horizon=1.0, cadence=2.0,
                                    match_clock=match_clock, want_fit=False)
    assert len(res.reports) == 0 and res.step_summary["steps"] == 0
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
