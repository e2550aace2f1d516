"""Extinction-clock matching: shooting on the initial-data scale."""

import pickle

import numpy as np
import pytest

import fdelab as F
from fdelab import pipeline
from fdelab.errors import NumericalFailure


def interval_setup(p, nodes=129):
    return F.prepare(F.DomainSpec(geometry="interval", nodes=nodes),
                     F.Exponents.make(p=p, c=1.0))


@pytest.mark.parametrize("p, modes", [(1.5, [(2, 1, 0.1)]), (2.0, [(2, 1, 0.1)]),
                                      (3.0, [(3, 1, 0.2)])])
def test_accepted_trial_is_deep_and_inside_its_bracket(p, modes):
    setup = interval_setup(p)
    base = F.mode_perturbed_field(setup, modes)
    cal = F.match_extinction_clock(setup, base, deep_floor=1e-12)
    assert cal.achieved_entropy < 1e-12
    assert cal.bracket[0] <= cal.scale <= cal.bracket[1]
    assert cal.trials <= 6
    assert [r.scale for r in cal.log[:2]] == [1.0 - 2e-3, 1.0 + 2e-3]
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


def test_secant_is_exact_for_a_linear_coefficient(monkeypatch, interval_p2_small):
    b_star = 1.0003

    def outcome(b):   # stopped at t = 0, so g = a = b - b*
        a = b - b_star
        return (0 if abs(a) < 1e-12 else int(np.sign(a))), 0.0, 1.0, a

    scales = fake_trials(monkeypatch, outcome)
    cal = F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert cal.trials == len(scales) == 3
    assert cal.scale == pytest.approx(b_star, abs=1e-12)
    assert cal.bracket == (1.0 - 2e-3, 1.0 + 2e-3)
    assert [r.g for r in cal.log[:2]] == pytest.approx([-2.3e-3, 1.7e-3])


def test_no_bracket_raises(monkeypatch, interval_p2_small):
    scales = fake_trials(monkeypatch, lambda b: (1, 1.0, 1.0, 1.0))
    with pytest.raises(NumericalFailure, match="could not bracket"):
        F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert len(scales) == 10     # 1 -+ 2e-3, then eight widenings below
    assert min(scales) == 0.05


def test_bracket_widens_only_on_the_side_of_b_star(monkeypatch, interval_p2_small):
    b_star = 0.99     # both 1 -+ 2e-3 blow up: b* lies below, never above

    def outcome(b):
        a = b - b_star
        return (0 if abs(a) < 1e-12 else int(np.sign(a))), 0.0, 1.0, a

    scales = fake_trials(monkeypatch, outcome)
    cal = F.match_extinction_clock(interval_p2_small, np.ones(129))
    assert cal.scale == pytest.approx(b_star, abs=1e-12)
    assert max(scales) == 1.0 + 2e-3     # no widened trial above hi
    assert cal.trials == 5
    assert scales[2:4] == pytest.approx([0.994, 0.986])
    assert cal.bracket == pytest.approx((0.986, 0.994))   # the nearer ends


def test_max_trials_raises(monkeypatch, interval_p2_small):
    def outcome(b):   # a sign but no slope: the secant falls back to bisection
        sign = 1 if b > 1.0003 else -1
        return sign, 1.0, 1.0, float(sign)

    scales = fake_trials(monkeypatch, outcome)
    with pytest.raises(NumericalFailure, match="within 10 trials"):
        F.match_extinction_clock(interval_p2_small, np.ones(129), max_trials=10)
    assert len(scales) == 10
    assert scales[2:4] == [1.0, 1.001]


def test_trial_survives_a_step_failure():
    # From the constant field at n=33, p=2, the first step at dt = 2^-7 stalls
    # in the line search; the trial retries it at half the dt and goes on.
    setup = interval_setup(2.0, nodes=33)
    verdict, t, _, a, _ = pipeline._run_trial(setup, 0.998 * np.ones(33),
                                              2 ** -7, 20.0, 1e-12, 10 * 2 ** -7)
    # the field lies far below V (sup V ~ 11.8) and collapses in finite time;
    # a flow that cannot be continued even at the smallest dt has diverged
    assert verdict == -1 and a < 0 and t > 0.2
    # so every trial collapses and the widened bracket never reaches b*
    with pytest.raises(NumericalFailure, match="could not bracket"):
        F.match_extinction_clock(setup, np.ones(33), dt=2 ** -7)


def test_trial_stops_at_its_first_fourfold_rise(calibrated_trace_p2):
    # The rate-p2-shaped calibration's third trial bottoms out between the
    # floor and 25 floors, so its first fourfold rise stays below 100 floors:
    # it stops there (t = 9.78), with its verdict and g already settled.
    setup, result = calibrated_trace_p2
    floor = F.EntropyBand().lo / 100.0
    log = result.calibration.log
    assert [r.verdict for r in log] == [-1, 1, 1, 0]
    third = log[2]
    assert floor <= third.e_min < 25.0 * floor
    assert third.t_stop == pytest.approx(9.78, abs=1e-9)
    base = F.mode_perturbed_field(setup, [(2, 1, 0.1)])
    v0 = third.scale * base
    verdict, t, e_min, a, run = pipeline._run_trial(setup, v0, 1e-3, 20.0,
                                                    floor, 0.02)
    assert (verdict, t, e_min) == (1, third.t_stop, third.e_min) and a > 0
    E = np.array([r.E_nl for r in run.traj.diagnostics])
    e0 = F.nonlinear_entropy(setup.grid, setup.profile.V, setup.exps.p, v0)
    running = np.minimum.accumulate(np.concatenate([[e0], E]))[1:]
    assert np.flatnonzero(E > 4.0 * running).tolist() == [E.size - 1]
    assert E[-1] < 100.0 * floor      # the fourfold rise alone stops it


def assert_fresh_run(res, setup, v0, horizon):
    """res's reports and step summary are run_rescaled's from v0, bit for bit."""
    traj, reports = F.run_rescaled(setup, v0, horizon=horizon, dt=1e-3,
                                   cadence=0.05)
    assert len(reports) == round(horizon / 0.05)
    assert [pickle.dumps(r) for r in res.reports] == [pickle.dumps(r) for r in reports]
    assert res.step_summary == traj.step_summary()


@pytest.mark.parametrize("horizon, accepted_after", [(12.0, False), (3.0, True)])
def test_calibrated_run_is_a_fresh_run_from_the_accepted_scale(
        interval_p2_small, horizon, accepted_after):
    # the run continues the accepted trial's march (horizon 12) or is cut
    # back from it (horizon 3)
    setup = interval_p2_small
    base = F.mode_perturbed_field(setup, [(2, 1, 0.1)])
    res = F.run_nonlinear_rate_case(setup, base, horizon=horizon, dt=1e-3,
                                    cadence=0.05, want_fit=False)
    assert (res.calibration.log[-1].t_stop > horizon) == accepted_after
    assert_fresh_run(res, setup, res.calibration.scale * base, horizon)
    assert pickle.loads(pickle.dumps(res)).calibration == res.calibration


def test_run_from_a_datum_on_the_floor_is_a_fresh_run(interval_p2_small):
    setup = interval_p2_small
    res = F.run_nonlinear_rate_case(setup, setup.profile.V, horizon=1.0,
                                    cadence=0.05, want_fit=False)
    assert res.calibration.trials == 0 and res.trivial_fixed_point
    assert_fresh_run(res, setup, setup.profile.V, 1.0)
