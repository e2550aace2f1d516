"""Extinction-clock matching: shooting on the initial-data scale."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdelab as F
import fdelab.flow
from fdelab import pipeline
from fdelab.errors import NumericalFailure

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
def test_accepted_trial_is_deep_and_inside_its_bracket(p, modes):
    setup = interval_setup(p)
    base = F.mode_perturbed_field(setup, modes)
    cal = F.match_extinction_clock(setup, base, deep_floor=1e-12)
    assert cal.achieved_entropy < 1e-12
    assert cal.bracket[0] <= cal.scale <= cal.bracket[1]
    # measured 2, 2 and 3 trials (5, 4 and 5 with the old 1 -+ 2e-3 opening).
    # An accepted trial stops at its first sample below the floor, so its
    # e_min (9.97e-13, 9.95e-13 and 9.85e-13) always lies just under it and
    # is no margin; marched on, these trials would bottom at 1.5e-18,
    # 2.9e-15 and 2.5e-16, at least 300 times below the floor.
    assert cal.trials == {1.5: 2, 2.0: 2, 3.0: 3}[p]
    first = cal.log[0]
    assert first.scale == 1.0
    K = pipeline._mode1_coefficient(setup, base)
    assert cal.log[1].scale == 1.0 - first.g / K
    assert [r.verdict == 0 for r in cal.log] == [False] * (cal.trials - 1) + [True]
    assert cal.log[-1].scale == cal.scale
    assert cal.log[-1].e_min == cal.achieved_entropy


def fake_trials(monkeypatch, outcome):
    """Replace _run_trial by outcome(b) -> (verdict, t, e_min, a), where b is
    the trial's scale of the constant base field 1, and no run; returns the
    scales tried."""
    scales = []

    def run_trial(setup, v0, dt, horizon, deep_floor, cadence):
        scales.append(float(v0[0]))
        return outcome(scales[-1]) + (None,)

    monkeypatch.setattr(pipeline, "_run_trial", run_trial)
    return scales


def linear_outcome(slope, b_star):
    """A trial stopped at t = 0 (so g = a) with a = slope (b - b*)."""
    def outcome(b):
        a = slope * (b - b_star)
        return (0 if abs(a) < 1e-12 else int(np.sign(a))), 0.0, 1.0, a
    return outcome


def test_secant_is_exact_for_a_linear_coefficient(monkeypatch, interval_p2_small):
    # the slope 1 is below the predicted K ~ 2.6, so the step from b = 1
    # falls short of b*; the secant through the two unbracketed trials is exact
    b_star = 1.0003
    K = pipeline._mode1_coefficient(interval_p2_small, np.ones(129))
    scales = fake_trials(monkeypatch, linear_outcome(1.0, b_star))
    cal = F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert cal.trials == len(scales) == 3
    assert [r.verdict for r in cal.log] == [-1, -1, 0]
    assert scales[:2] == [1.0, 1.0 - cal.log[0].g / K]
    assert cal.scale == pytest.approx(b_star, abs=1e-12)
    assert cal.bracket == (cal.scale, cal.scale)
    assert [r.g for r in cal.log[:2]] == pytest.approx([-3e-4, 3e-4 / K - 3e-4])


def test_predicted_slope_is_exact_for_g_linear_in_it(monkeypatch,
                                                     interval_p2_small):
    b_star = 1.0003
    K = pipeline._mode1_coefficient(interval_p2_small, np.ones(129))
    scales = fake_trials(monkeypatch, linear_outcome(K, b_star))
    cal = F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert cal.trials == len(scales) == 2
    assert [r.verdict for r in cal.log] == [-1, 0]
    assert cal.scale == pytest.approx(b_star, abs=1e-12)


@pytest.mark.parametrize("off", [2.0, 0.5])
def test_a_slope_off_by_two_still_brackets(monkeypatch, interval_p2_small, off):
    # off = 2: the step from b = 1 overshoots b* and brackets it;
    # off = 0.5: it falls short, and the unbracketed secant takes over
    b_star = 1.0003
    K = pipeline._mode1_coefficient(interval_p2_small, np.ones(129))
    scales = fake_trials(monkeypatch, linear_outcome(off * K, b_star))
    cal = F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert cal.trials == len(scales) <= 5
    assert scales[1] == pytest.approx(1.0 + off * 3e-4, rel=1e-12)
    assert np.sign(scales[1] - b_star) == (1 if off > 1 else -1)
    assert cal.scale == pytest.approx(b_star, abs=1e-12)
    assert cal.bracket[0] <= cal.scale <= cal.bracket[1]


def test_predicted_slope_matches_the_measured_one(calibrated_trace_p2):
    # the rate-p2-shaped run: g = K (b - b*) with K = <base, phi_1>_V
    # (measured 8e-6 relative), so the second trial is accepted.  It bottoms
    # out at 9.47e-13 against the 1e-12 floor, a 5 % margin that a stepper
    # change at rounding level must re-measure.
    setup, result = calibrated_trace_p2
    cal = result.calibration
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    K = pipeline._mode1_coefficient(setup, base)
    assert [r.verdict for r in cal.log] == [1, 0]
    assert abs(cal.log[0].g / (1.0 - cal.scale) - K) / K <= 1e-4


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([None, 1, 3]), p=st.floats(1.2, 4.0),
       n=st.integers(33, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_predicted_slope_is_positive(dim, p, n, seed):
    # phi_1 is positive (fdelab.spectrum), so K > 0 for any positive base
    if dim is None:
        spec = F.DomainSpec(geometry="interval", nodes=n)
    else:
        spec = F.DomainSpec(geometry="ball", nodes=n, dimension=dim)
    grid = F.build_domain(spec)
    V = F.solve_stationary(grid, F.Exponents.make(p=p, c=1.0)).V
    eigs = F.weighted_eigensystem(grid, V, p, K=1)
    base = np.random.default_rng(seed).uniform(1e-6, 1.0, n)
    assert inner_product_weighted(grid, base, eigs.mode(1), eigs.weight) > 0


def test_no_bracket_raises(monkeypatch, interval_p2_small):
    # every trial blows up with the same g: the predicted slope steps down
    # by g/K each trial until the 0.05 floor, which would repeat
    scales = fake_trials(monkeypatch, lambda b: (1, 1.0, 1.0, 1.0))
    with pytest.raises(NumericalFailure, match="could not bracket") as exc:
        F.match_extinction_clock(interval_p2_small, np.ones(129))
    K = pipeline._mode1_coefficient(interval_p2_small, np.ones(129))
    step = exc.value.clock_log[0].g / K
    assert len(scales) == len(exc.value.clock_log) == 6
    assert np.diff(scales[:-1]) == pytest.approx([-step] * 4, rel=1e-12)
    assert scales[-2] - step < scales[-1] == 0.05


def test_ten_unbracketed_trials_raise(monkeypatch, interval_p2_small):
    scales = fake_trials(monkeypatch, lambda b: (1, 0.0, 1.0, 1e-3))
    with pytest.raises(NumericalFailure, match="could not bracket"):
        F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert len(scales) == 10 and min(scales) > 0.99


def test_bracket_widens_only_on_the_side_of_b_star(monkeypatch, interval_p2_small):
    b_star = 0.99     # b = 1 blows up: b* lies below, and no trial goes above

    scales = fake_trials(monkeypatch, linear_outcome(1.0, b_star))
    cal = F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert cal.scale == pytest.approx(b_star, abs=1e-12)
    assert cal.trials == 3 and max(scales) == 1.0
    K = pipeline._mode1_coefficient(interval_p2_small, np.ones(129))
    assert scales[1] == 1.0 - 0.01 / K
    assert min(scales) == pytest.approx(b_star, abs=1e-12)


def test_a_step_of_T_is_refused_before_any_trial(monkeypatch):
    # T = 2 at p = 2, c = 1: the unstable mode's implicit step is singular,
    # and forming its rate first would raise log1p's RuntimeWarning (an
    # error under this suite's filterwarnings) instead of the ValueError
    setup = interval_setup(2.0, nodes=65)
    scales = fake_trials(monkeypatch, lambda b: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match=r"min\(dt, cadence\) = 2\.0, which "
                                         r"must be below T = 2\.0"):
        F.match_extinction_clock(setup, 1.01 * setup.profile.V, dt=2.0,
                                 cadence=2.0)
    assert scales == []


def test_max_trials_raises(monkeypatch, interval_p2_small):
    def outcome(b):   # a sign but no slope: the secant falls back to bisection
        sign = 1 if b > 1.0003 else -1
        return sign, 1.0, 1.0, float(sign)

    scales = fake_trials(monkeypatch, outcome)
    monkeypatch.setattr(pipeline, "_MAX_TRIALS", 10)
    with pytest.raises(NumericalFailure, match="within 10 trials") as exc:
        F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert len(scales) == 10
    g = exc.value.clock_log[0].g
    hi = 1.0 - g / pipeline._mode1_coefficient(interval_p2_small, np.ones(129))
    assert scales[:2] == [1.0, hi] and g < 0
    mid = 0.5 * (1.0 + hi)
    assert scales[2:4] == pytest.approx([mid, 0.5 * (1.0 + mid)], rel=1e-12)


def test_trial_survives_a_step_failure():
    # From the constant field at n=33, p=2, the first step at dt = 2^-7 stalls
    # in the line search; the trial retries it at half the dt and goes on.
    setup = interval_setup(2.0, nodes=33)
    verdict, t, _, a, _ = pipeline._run_trial(setup, 0.998 * np.ones(33),
                                              2 ** -7, 20.0, 1e-12, 10 * 2 ** -7)
    # the field lies far below V (sup V ~ 11.8) and collapses in finite time;
    # a flow that cannot be continued even at the smallest dt has diverged
    assert verdict == -1 and a < 0 and t > 0.2
    # so does the first trial from b = 1, and the predicted slope steps from
    # there towards b* ~ 9.49, which is accepted (measured 5 trials)
    cal = F.match_extinction_clock(setup, np.ones(33), dt=2 ** -7)
    assert cal.log[0].scale == 1.0 and cal.log[0].verdict == -1
    assert cal.achieved_entropy < 1e-12 and cal.trials <= 5
    assert cal.bracket[0] <= cal.scale <= cal.bracket[1]
    assert 9.0 < cal.scale < 10.0


def stopped_trial(setup, v0, floor):
    """Run one trial from v0 on the rate-p2 lattice; returns (verdict, t,
    e_min, a, E, rises), with E its recorded E_nl and rises the indices of
    the samples where E_nl exceeds 4 times its running minimum."""
    verdict, t, e_min, a, run = pipeline._run_trial(setup, v0, 1e-3, 20.0,
                                                    floor, 0.02)
    E = np.array([r.E_nl for r in run.traj.diagnostics])
    e0 = F.nonlinear_entropy(setup.grid, setup.profile.V, setup.exps.p, v0)
    running = np.minimum.accumulate(np.concatenate([[e0], E]))[1:]
    return verdict, t, e_min, a, E, np.flatnonzero(E > 4.0 * running).tolist()


# a trial 6.3e-10 above b* (the third trial of the old 1 -+ 2e-3 opening)
NEAR_B_STAR = 0.9999912990054277


def test_trial_stops_once_it_cannot_reach_the_floor_and_g_settled(
        calibrated_trace_p2):
    # A diverging trial stops once its unstable mode alone holds more than
    # four floors of entropy and its g has settled, before any fourfold rise,
    # whether it bottoms out far above the floor or just above it.
    setup, result = calibrated_trace_p2
    floor = F.EntropyBand().lo / 100.0
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    log = result.calibration.log
    assert [r.verdict for r in log] == [1, 0]
    first = log[0]
    assert first.scale == 1.0 and first.t_stop <= 3.5    # 5.02 at its rise
    # its g is the one a stop at its fourfold rise (t = 5.02) reads
    assert first.g == pytest.approx(2.229800e-4, rel=2e-5)
    verdict, t, e_min, a, E, rises = stopped_trial(setup, base, floor)
    assert (verdict, t, e_min) == (1, first.t_stop, first.e_min) and a > 0
    assert rises == [] and 1.5 * a * a > 4.0 * floor    # (p + 1)/2 a^2
    # the near-b* trial bottoms out between the floor and 25 floors; its g
    # has settled by t = 7.88, so it stops once its unstable part exceeds
    # 4 floors
    verdict, t, e_min, a, E, rises = stopped_trial(setup, NEAR_B_STAR * base,
                                                   floor)
    assert verdict == 1 and a > 0
    assert floor <= e_min < 25.0 * floor
    assert rises == [] and 1.5 * a * a > 4.0 * floor
    assert t == pytest.approx(9.28, abs=1e-9)        # 9.78 at its rise


def test_trial_stops_at_its_first_fourfold_rise(monkeypatch,
                                                calibrated_trace_p2):
    # With no g ever counted as settled, the fourfold rise over the running
    # minimum is the backstop that stops a diverging trial, with its verdict
    # and g already settled, whether it bottoms out far above the floor or
    # just above it.
    monkeypatch.setattr(pipeline, "_G_SETTLED", 0.0)
    setup, result = calibrated_trace_p2
    floor = F.EntropyBand().lo / 100.0
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    e0 = F.nonlinear_entropy(setup.grid, setup.profile.V, setup.exps.p, base)
    # the rate-p2-shaped calibration's first trial, from b = 1, bottoms out
    # at 2.8e-6 and rises fourfold at t = 5.02, long before 10 e0
    verdict, t, e_min, a, E, rises = stopped_trial(setup, base, floor)
    assert verdict == 1 and a > 0 and rises == [E.size - 1]
    assert t == pytest.approx(5.02, abs=1e-9)
    assert E[-1] < 10.0 * e0
    g = a * np.exp(-pipeline._unstable_sample_rate(setup.exps, 1e-3, 0.02) * t)
    assert g == pytest.approx(result.calibration.log[0].g, rel=2e-5)
    # the near-b* trial's first fourfold rise stays below 100 floors: it
    # stops there (t = 9.78)
    verdict, t, e_min, a, E, rises = stopped_trial(setup, NEAR_B_STAR * base,
                                                   floor)
    assert verdict == 1 and a > 0 and rises == [E.size - 1]
    assert floor <= e_min < 25.0 * floor
    assert t == pytest.approx(9.78, abs=1e-9)
    assert E[-1] < 100.0 * floor     # the fourfold rise alone stops it


def test_settled_g_does_not_depend_on_the_cadence(calibrated_trace_p2):
    # the same calibration checked every 5e-3 instead of every 0.02 stops
    # trial 1 at about the same time with about the same g (at a fixed
    # per-sample change of g it would stop later at the finer cadence)
    setup, result = calibrated_trace_p2
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    fine = F.match_extinction_clock(setup, base, dt=1e-3, horizon=20.0,
                                    deep_floor=1e-12, cadence=5e-3)
    coarse = result.calibration
    assert [r.verdict for r in fine.log] == [r.verdict for r in coarse.log] == [1, 0]
    assert max(fine.log[0].t_stop, coarse.log[0].t_stop) < 3.5
    assert abs(fine.log[0].t_stop - coarse.log[0].t_stop) <= 0.02
    assert fine.log[0].g == pytest.approx(coarse.log[0].g, rel=2e-5)


def test_accepted_trial_bottoms_far_below_the_floor(calibrated_trace_p2):
    # from the accepted scale with no floor the trial is stopped once its g
    # has settled (t = 10.1); its e_min then bounds its bottom from above
    setup, result = calibrated_trace_p2
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    v0 = result.calibration.scale * base
    _, _, e_min, _, _ = pipeline._run_trial(setup, v0, 1e-3, 20.0, 0.0, 0.02)
    assert e_min <= 1e-13      # measured 2.9e-15: 340 times below the floor


def test_trial_from_the_accepted_scale_is_accepted(calibrated_trace_p2):
    # its unstable part stays far under four floors (1.9e-16 where it
    # collapses), so no settled g can stop it
    setup, result = calibrated_trace_p2
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    last = result.calibration.log[-1]
    verdict, t, e_min, a, _ = pipeline._run_trial(
        setup, last.scale * base, 1e-3, 20.0, F.EntropyBand().lo / 100.0, 0.02)
    assert (verdict, t, e_min) == (0, last.t_stop, last.e_min)
    assert 1.5 * a * a < 4.0 * F.EntropyBand().lo / 100.0


def test_datum_on_the_floor_reports_its_own_entropy(interval_p2_small):
    # no trial runs, and the smallest entropy reached is the datum's
    setup = interval_p2_small
    base = setup.profile.V + 1e-9 * setup.eigs.mode(2)
    cal = F.match_extinction_clock(setup, base)
    e0 = F.nonlinear_entropy(setup.grid, setup.profile.V, setup.exps.p, base)
    assert cal.trials == 0 and cal.achieved_entropy == e0 > 0


def assert_fresh_run(res, setup, v0, horizon, cadence=0.05):
    """res's reports and step summary are run_rescaled's from v0, bit for bit."""
    traj, reports = F.run_rescaled(setup, v0, horizon=horizon, dt=1e-3,
                                   cadence=cadence)
    assert len(reports) == round(horizon / cadence)
    assert [pickle.dumps(r) for r in res.reports] == [pickle.dumps(r) for r in reports]
    assert res.step_summary == traj.step_summary()


@pytest.mark.parametrize("horizon, accepted_after, cadence", [
    pytest.param(12.0, False, 0.05, id="12.0-False"),
    pytest.param(3.0, True, 0.05, id="3.0-True"),
    pytest.param(3.0, True, 1, id="3.0-True-int-cadence")])
def test_calibrated_run_is_a_fresh_run_from_the_accepted_scale(
        interval_p2_small, horizon, accepted_after, cadence):
    # the run continues the accepted trial's march (horizon 12) or is cut
    # back from it (horizon 3); an int cadence samples at float times too
    setup = interval_p2_small
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    res = F.run_nonlinear_rate_case(setup, base, horizon=horizon, dt=1e-3,
                                    cadence=cadence, want_fit=False)
    assert (res.calibration.log[-1].t_stop > horizon) == accepted_after
    assert_fresh_run(res, setup, res.calibration.scale * base, horizon, cadence)
    assert pickle.loads(pickle.dumps(res)).calibration == res.calibration


def test_reports_are_recorded_in_blocks_by_to_horizon_alone(monkeypatch,
                                                            interval_p2_small):
    # every entropy report of a calibrated rate case, its trials' included,
    # is formed inside Run.to_horizon, in full blocks but for each call's
    # last flush; the reports are still run_rescaled's from the accepted scale
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
    assert res.calibration.trials >= 2 and outside == []
    assert len(per_call) == res.calibration.trials + 1
    assert all(size == block for sizes in per_call for size in sizes[:-1])
    monkeypatch.undo()
    assert_fresh_run(res, setup, res.calibration.scale * base, 3.0)


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
    setup = interval_p2_small
    res = F.run_nonlinear_rate_case(setup, setup.profile.V, horizon=1.0,
                                    cadence=0.05, want_fit=False)
    assert res.calibration.trials == 0 and res.trivial_fixed_point
    assert_fresh_run(res, setup, setup.profile.V, 1.0)


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
