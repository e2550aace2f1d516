"""Rate fitting, the delay-ODE barrier, and the verdict logic."""

import numpy as np
import pytest

import fdelab as F
from fdelab.rates import _band_first_passage
from fdelab.spectrum import GapReport


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = F.fit_rate(t, np.exp(-3.0 * t), F.ExplicitWindow(0.5, 4.5))
        assert abs(fit.lambda_fit - 3.0) < 1e-10
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.stderr < 1e-9

    def test_dominated_correction_converges_late(self):
        t = np.linspace(0.0, 12.0, 600)
        E = np.exp(-3.0 * t) * (1.0 + 0.1 * np.exp(-t))
        early = F.fit_rate(t, E, F.ExplicitWindow(0.0, 3.0))
        late = F.fit_rate(t, E, F.ExplicitWindow(8.0, 12.0))
        assert abs(late.lambda_fit - 3.0) < abs(early.lambda_fit - 3.0)
        assert abs(late.lambda_fit - 3.0) < 1e-4

    def test_band_selects_first_monotone_passage(self):
        # entropy dips through the band, bottoms out, and re-enters: only the
        # decaying passage may be fitted
        t = np.arange(0.0, 28.0, 0.05)
        E = np.exp(-3.0 * t) + 1e-15 * np.exp(t)
        assert E[-1] > 1e-4          # trace re-enters the band from below
        fit = F.fit_rate(t, E, F.EntropyBand(1e-10, 1e-4))
        assert abs(fit.lambda_fit - 3.0) < 0.01
        sl, rose = _band_first_passage(E, 1e-10, 1e-4)
        assert np.all(np.diff(E[sl]) < 0) and not rose

    def test_passage_closes_at_the_first_sample_after_it(self):
        # every prefix that holds a sample after the first passage has the
        # full trace's fit, and no shorter prefix is closed
        t = np.arange(0.0, 28.0, 0.05)
        band = F.EntropyBand(1e-10, 1e-4)
        for E in (np.exp(-3.0 * t) + 1e-15 * np.exp(t),    # rises in the band
                  np.exp(-3.0 * t)):                       # falls below it
            sl, rose = _band_first_passage(E, band.lo, band.hi)
            assert not rose
            closed = [F.band_passage_closed(E[:k], band) for k in range(t.size)]
            assert closed == [k > sl.stop for k in range(t.size)]
            full = F.fit_rate(t, E, band)
            assert F.fit_rate(t[:sl.stop + 1], E[:sl.stop + 1], band) == full
        assert not F.band_passage_closed(np.full(50, 1e-2), band)

    def test_passage_closed_by_a_rise_above_lo_is_refused(self):
        # the trace floors at about 1e-7, inside the band, and rises: the
        # passage has closed, but no rate can be read off it
        t = np.arange(0.0, 12.0, 0.05)
        E = np.exp(-3.0 * t) + 1e-9 * np.exp(t)
        band = F.EntropyBand(1e-10, 1e-4)
        sl, rose = _band_first_passage(E, band.lo, band.hi)
        assert rose and E[sl.stop] > E[sl.stop - 1] > band.lo
        assert F.band_passage_closed(E[:sl.stop + 1], band)
        assert not F.band_passage_closed(E[:sl.stop], band)
        with pytest.raises(F.NumericalFailure,
                           match=f"ends in a rise at E_nl = {E[sl.stop - 1]:.3g}, "
                                 r"above rates\.band_lo = 1e-10"):
            F.fit_rate(t, E, band)

    def test_scale_invariance(self):
        t = np.linspace(0.0, 5.0, 100)
        E = np.exp(-2.0 * t + 0.3)
        f1 = F.fit_rate(t, E, F.ExplicitWindow(1.0, 4.0))
        f2 = F.fit_rate(t, 7.3 * E, F.ExplicitWindow(1.0, 4.0))
        assert abs(f1.lambda_fit - f2.lambda_fit) < 1e-12

    def test_empty_window(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(F.NumericalFailure, match="no samples with entropy in"):
            F.fit_rate(t, np.full(50, 1e-2), F.EntropyBand(1e-10, 1e-4))
        with pytest.raises(F.NumericalFailure,
                           match="only 0 positive samples in the window"):
            F.fit_rate(t, np.exp(-t), F.ExplicitWindow(5.0, 6.0))

    def test_zero_samples_inside_explicit_window_skipped(self):
        t = np.linspace(0.0, 5.0, 100)
        E = np.exp(-2.0 * t)
        E[40:45] = 0.0           # dead samples must not poison the fit
        fit = F.fit_rate(t, E, F.ExplicitWindow(0.5, 4.5))
        assert abs(fit.lambda_fit - 2.0) < 1e-12


class TestDelaySupersolution:
    def test_frozen_arithmetic(self):
        # lam = 1, sigma = 1/2, Y0 = 1/4 gives C = 1; at t = 2 the closed form
        # evaluates to e^-2 / (e^-0.5 + 1)^2
        val = F.delay_supersolution(1.0, 0.5, 0.25, 0.0, 2.0)
        expect = np.exp(-2.0) / (np.exp(-0.5) + 1.0) ** 2
        assert abs(val - expect) < 1e-15

    def test_late_time_limit(self):
        lam, sigma, Y0 = 1.0, 0.5, 0.25
        C = lam * Y0 ** -sigma - 1.0
        t = 60.0
        val = F.delay_supersolution(lam, sigma, Y0, 0.0, t)
        assert abs(val * np.exp(lam * t) - (lam / C) ** (1.0 / sigma)) < 1e-10

    def test_nonpositive_C(self):
        with pytest.raises(F.NumericalFailure, match="<= 0; enlarge t0"):
            F.delay_supersolution(1.0, 0.5, 4.0, 0.0, 1.0)

    def test_supersolution_residual_dense_grid(self):
        t = np.linspace(0.0, 20.0, 2001)
        res = F.supersolution_residual(1.0, 0.5, 0.25, 0.0, t)
        assert np.min(res) >= -1e-10


class TestIntegrateDelayOde:
    def test_dominated_by_barrier(self):
        lam, sigma, Y0 = 1.0, 0.5, 0.25
        history = lambda t: F.delay_supersolution(lam, sigma, Y0, 0.0, t)
        run = F.integrate_delay_ode(lam, sigma, history, t0=0.0, horizon=20.0,
                                    dt=1e-3)
        bar = F.delay_supersolution(lam, sigma, Y0, 0.0, run.times)
        assert np.all(run.values <= bar * (1.0 + 1e-6))

    def test_small_history_decays_almost_linearly(self):
        # with sigma large the delayed factor is negligible below 1
        lam, sigma = 1.0, 8.0
        run = F.integrate_delay_ode(lam, sigma, lambda t: 0.5, t0=0.0,
                                    horizon=3.0, dt=1e-3)
        pure = 0.5 * np.exp(-lam * run.times)
        assert np.max(np.abs(run.values / pure - 1.0)) < 0.01

    def test_rk4_self_convergence(self):
        lam, sigma, Y0 = 1.0, 0.5, 0.25
        history = lambda t: F.delay_supersolution(lam, sigma, Y0, 0.0, t)

        def final(dt):
            run = F.integrate_delay_ode(lam, sigma, history, 0.0, 4.0, dt)
            return run.values[-1]

        ref = final(1.0 / 1280)
        errs = [abs(final(dt) - ref) for dt in (1.0 / 80, 1.0 / 160, 1.0 / 320)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.3)

    def test_blowup_detected(self, monkeypatch):
        monkeypatch.setattr("fdelab.rates._CAP", 100.0)
        with pytest.raises(F.NumericalFailure, match="Y exceeded the cap 100"):
            F.integrate_delay_ode(0.05, 0.5, lambda t: 4.0, t0=0.0,
                                  horizon=200.0, dt=1e-2)

    def test_rejects_bad_history_and_dt(self):
        with pytest.raises(ValueError):
            F.integrate_delay_ode(1.0, 0.5, lambda t: -1.0, 0.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            F.integrate_delay_ode(1.0, 0.5, lambda t: 1.0, 0.0, 1.0, 2.0)


def make_gap(h2_ok=True, lambda_p=3.0, cp=2.0):
    return GapReport(k_p=1, cp=cp, lambda_p=lambda_p if h2_ok else None,
                     gamma_p=4.0 if h2_ok else None, h2_ok=h2_ok,
                     gap_margin=0.5 if h2_ok else 1e-9,
                     lambda_kp1=cp + lambda_p if h2_ok else None)


class TestVerdict:
    def test_pass_and_fail(self):
        t = np.linspace(0.0, 8.0, 400)
        fit = F.fit_rate(t, 1e-2 * np.exp(-3.0 * t), F.EntropyBand(1e-10, 1e-4))
        good = F.sharp_rate_verdict(fit, make_gap(lambda_p=3.0), p=2.0, tol=0.05)
        assert good.passed and good.rel_error < 1e-6
        bad = F.sharp_rate_verdict(fit, make_gap(lambda_p=3.5), p=2.0, tol=0.05)
        assert not bad.passed

    def test_h2_violation(self):
        t = np.linspace(0.0, 8.0, 400)
        fit = F.fit_rate(t, 1e-2 * np.exp(-3.0 * t), F.EntropyBand(1e-10, 1e-4))
        with pytest.raises(F.NumericalFailure, match="collides with the spectrum"):
            F.sharp_rate_verdict(fit, make_gap(h2_ok=False), p=2.0)

    def test_linear_flow_rate_verdict(self, interval_p2):
        # deflated linear data decays at exactly the spectral rate, so the
        # verdict must pass at a tight tolerance
        s = interval_p2
        f0 = F.deflate(s.grid, s.eigs, s.eigs.mode(2).copy(), s.gap.k_p)
        tr = F.run_linearized(s, f0, horizon=2.0, dt=2e-4, cadence=0.02)
        fit = F.fit_rate(tr.times, tr.E_lin, F.ExplicitWindow(0.2, 2.0))
        verdict = F.sharp_rate_verdict(fit, s.gap, s.exps.p, tol=0.02)
        assert verdict.passed
