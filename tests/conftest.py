"""Shared fixtures: prepared stages and one long calibrated nonlinear trace;
three reference helpers that the library does not need, and a sampler
wrapper that shows evolve's blocks in its rows.

The calibrated trace is expensive (clock matching plus a long horizon), so it
is session-scoped and reused by the diagnostics tests and by acceptance
criteria 8-10; criterion 6 reads the fitted rate cases, which stop once their
fit window has closed.  The helpers, written apart from the library's weighted
projections, steppers and trace CSV, check them independently:
`from conftest import inner_product_weighted, solve_poisson, trace_rows`.
A sampler's side effects show evolve's blocks only in-process, not when a
run samples in a forked child; `sized` and `block_sizes` read them from the
rows instead.
"""

import numpy as np
import pytest

import fdelab as F
from fdelab.grid import solve_tridiagonal


def inner_product_weighted(grid, f, g, w) -> float:
    """<f, g> against the weight w: int f g w dx."""
    f = grid.check_field(f)
    g = grid.check_field(g)
    w = grid.check_field(w)
    return float(np.dot(grid.quad_weights, f * g * w))


def solve_poisson(grid, rhs) -> np.ndarray:
    """Discrete Green operator: g with -lap g = rhs (Dirichlet): A g = W rhs."""
    r = grid.check_field(rhs)
    return solve_tridiagonal(grid.lap_offdiag.copy(), grid.lap_diag.copy(),
                             grid.lap_offdiag.copy(), grid.quad_weights * r)


def trace_rows(reports) -> tuple:
    """The trace CSV's (header, rows) of a list of reports, one report at a
    time: the reference that diagnostics.trace_csv of their columns must
    equal (Qn cells are None when the quotient is undefined)."""
    k_p = reports[0].Q_lin.size if reports else 0
    header = ["t", "E_lin", "I_lin", "E_nl", "h_inf"]
    header += [f"{name}_{k}" for name in ("Q", "Qn", "A")
               for k in range(1, k_p + 1)]
    rows = []
    for r in reports:
        qn = [None] * k_p if r.Q_nl is None else r.Q_nl.tolist()
        rows.append([r.t, r.E_lin, r.I_lin, r.E_nl, r.h_inf, *r.Q_lin.tolist(),
                     *qn, *r.A_nl.tolist(), r.h_L2V_sq, r.cubic])
    return header + ["h_L2V_sq", "cubic"], rows


def sized(sampler):
    """sampler with the size of its block appended to each row: a pure
    sampler, whose rows show evolve's blocks on either path."""
    def sized_sampler(times, fields):
        rows = sampler(times, fields)
        return np.column_stack([rows, np.full(len(rows), len(times))])
    return sized_sampler


def block_sizes(rows) -> list:
    """The sizes of the blocks whose rows a sized sampler returned."""
    sizes = []
    while len(rows):
        size = int(rows[0, -1])
        assert size >= 1 and (rows[:size, -1] == size).all()
        sizes.append(size)
        rows = rows[size:]
    return sizes


@pytest.fixture(scope="session")
def interval_p2():
    spec = F.DomainSpec(geometry="interval", nodes=257)
    exps = F.Exponents.make(p=2.0, c=1.0)
    return F.prepare(spec, exps)


@pytest.fixture(scope="session")
def ball_p2():
    spec = F.DomainSpec(geometry="ball", nodes=257, dimension=3, radius=1.0)
    exps = F.Exponents.make(p=2.0, c=1.0)
    return F.prepare(spec, exps)


@pytest.fixture(scope="session")
def interval_p2_small():
    spec = F.DomainSpec(geometry="interval", nodes=129)
    exps = F.Exponents.make(p=2.0, c=1.0)
    return F.prepare(spec, exps)


@pytest.fixture(scope="session")
def calibrated_trace_p2(interval_p2):
    """Clock-matched rescaled run, horizon long enough that the entropy falls
    through the whole fit band and keeps going; cadence 0.02.  It is not
    fitted, so it runs to the horizon (600 samples)."""
    setup = interval_p2
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    result = F.run_nonlinear_rate_case(setup, base, horizon=12.0, dt=1e-3,
                                       cadence=0.02, want_fit=False)
    assert not result.trivial_fixed_point
    return setup, result


def fitted_rate_case(setup, horizon):
    """The fitted clock-matched run from V + 0.1 phi_2 at dt 1e-3, cadence
    0.02: it stops once its fit window has closed."""
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    return setup, F.run_nonlinear_rate_case(setup, base, horizon=horizon,
                                            dt=1e-3, cadence=0.02)


@pytest.fixture(scope="session")
def rate_case_p2(interval_p2):
    """calibrated_trace_p2's run, fitted."""
    return fitted_rate_case(interval_p2, 12.0)


@pytest.fixture(scope="session")
def rate_case_p15():
    spec = F.DomainSpec(geometry="interval", nodes=257)
    return fitted_rate_case(F.prepare(spec, F.Exponents.make(p=1.5, c=1.0)), 8.0)


@pytest.fixture(scope="session")
def rate_case_ball(ball_p2):
    return fitted_rate_case(ball_p2, 14.0)


@pytest.fixture(scope="session")
def calibrated_fields_p2(calibrated_trace_p2):
    """(times, fields) of the calibrated trace's run, replayed through march
    with the same rescale rule: the trace keeps no field, and the h-checks
    need them."""
    setup, result = calibrated_trace_p2
    base = F.mode_perturbed_field(setup, [(2, 0.1)])
    clock = F.match_extinction_clock(setup, 1e-3, 0.02)
    states = F.march(setup.grid, setup.exps,
                     F.FlowState(kind="rescaled", field=base, time=0.0),
                     dt=1e-3, targets=[r.t for r in result.reports],
                     rescale=clock)
    times, fields = [], []
    for state in states:
        times.append(state.time)
        fields.append(state.field)
    V = setup.profile.V
    assert [float(np.max(np.abs((v - V) / V))) for v in fields] \
        == [r.h_inf for r in result.reports]      # the same run, bit for bit
    assert clock.sigmas == result.calibration.sigmas
    return times, fields


@pytest.fixture(scope="session")
def amp3_calibrated_traces(interval_p2_small):
    """Large-amplitude (h ~ 0.22) clock-matched runs at two time steps, used
    for the entropy-production decomposition and the quotient ladder; each
    run holds its own clock.  The horizon 3.5 lets the quotient ladder's
    smallest rung fall below 1e-4: on a matched trace Q falls like sqrt(E),
    and crosses 1e-4 at t = 3.27 at both time steps."""
    setup = interval_p2_small
    base = F.mode_perturbed_field(setup, [(2, 3.0)])
    traces, clocks = {}, {}
    for dt in (5e-4, 2.5e-4):
        res = F.run_nonlinear_rate_case(setup, base, horizon=3.5, dt=dt,
                                        cadence=5e-3, want_fit=False)
        traces[dt], clocks[dt] = res.reports, res.calibration
    return setup, clocks, traces


@pytest.fixture(scope="session")
def amp3_uncalibrated_traces(interval_p2_small):
    """Same large perturbation without clock matching: only the early window
    is used, where the relative error is small and almost-orthogonality is
    not required."""
    setup = interval_p2_small
    base = F.mode_perturbed_field(setup, [(2, 3.0)])
    traces = {}
    for dt in (5e-4, 2.5e-4):
        _, reports = F.run_rescaled(setup, base, horizon=2.0, dt=dt, cadence=5e-3)
        traces[dt] = reports
    return setup, traces
