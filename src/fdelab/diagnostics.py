"""Entropy functionals, Rayleigh quotients and inequality checks along flows.

Conventions (f = v - V, h = v/V - 1):

  E_lin  = int f^2 V^(p-1) dx
  I_lin  = int |grad f|^2 dx - p c int f^2 V^(p-1) dx
  E_nl   = int [(v^(p+1) - V^(p+1)) - (p+1)/p (v^p - V^p) V] dx
  A_nl   = |int (v^p - V^p) phi_k dx|             (plain Lebesgue measure)
  Q_lin  = |<f, phi_k>_V| / sqrt(E_lin)
  Q_nl   = A_nl / sqrt(E_nl)                       (undefined for E_nl <= 1e-14)

Differences of powers are evaluated through their integral kernels, e.g. the
entropy density equals (p+1) f^2 int_0^1 (V + s f)^(p-1) s ds, which avoids
the catastrophic cancellation of the naive v^(p+1) - V^(p+1) form and keeps
the functionals meaningful down to machine-size perturbations.  A kernel is
a Gauss-Legendre rule: at integer p its integrands are polynomials of degree
p - 1 and p, which floor(p/2) + 1 nodes integrate exactly (2 at p = 2), and
otherwise it takes ceil(p/5) + 7 nodes, 8 up to p = 5 (see _node_count).
Both sums come from one (2, N) @ (N, n) product.

entropy_report reads what depends on the setup alone from a ReportWeights
built once per run, and takes E_lin, I_lin and the coefficients behind Q_lin
from spectrum.linear_entropy and spectrum.project_coefficients.  It takes one
field or a stack of fields (B, n) through one code path: every sum runs
along the last axis, as np.vecdot (ddot per row, the bits of np.dot), as
matmul of the mode rows with a (..., n, 1) column (gemv per field) or as the
kernel's matmul over a (..., N, n) stack (gemm per field), and every other
operation is elementwise.  A field's report therefore has the same bits
whatever block it was computed in.

A trace is kept as columns, not as one object per sample: an EntropyTrace
is one (S, 8 + 3 k_p) float array, t, E_lin, I_lin, E_nl, h_inf, then
Q_lin, Q_nl and A_nl (k_p each), then h_L2V_sq, cubic and the Q_nl mask.
entropy_report writes a stack's functionals into such a block, a run writes
each block into its one buffer, and the run's trace is the buffer's filled
rows, each row the bits of its field's report: storing a float64 in a
float64 column and reading it back changes no bit.  Indexing a trace
gives the EntropyReport of a sample, the trace functions below read its
columns, and trace_csv writes them a chunk of rows at a time.

Checks that differentiate sampled traces in time use centered differences
with a Richardson estimate of the finite-difference error; inequalities carry
an explicit O(dt) slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import ceil

import numpy as np

from .errors import NumericalFailure
from .grid import Grid, integrate, smallest
from .spectrum import (EigenSystem, GapReport, linear_entropy,
                       project_coefficients)
from .stationary import Exponents

QN_ENTROPY_FLOOR = 1e-14   # below this, nonlinear quotients are undefined (0/0 guard)
_CSV_ROWS = 256            # trace CSV rows that trace_csv forms at a time


@cache
def _gauss_legendre(count: int):
    """The count-node rule on [0, 1], built once per count: nodes as an
    (N, 1) column and the weights [w, w x] as a (2, N) matrix."""
    x, w = np.polynomial.legendre.leggauss(count)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    return x[:, None], np.stack([w, w * x])


def _node_count(q: float) -> int:
    """Gauss-Legendre nodes for the kernel sums at exponent q: at integer
    q >= 1 the floor(q/2) + 1 nodes that are exact for the integrands of
    degree q - 1 and q; at every other q, ceil(q/5) + 7 (8 up to q = 5),
    which errs by at most 2.3e-14 relative at |f/V| <= 0.5 below q = 5 and
    1e-15 from q = 5 to 80 (against mpmath; q = 80 needs 21 nodes)."""
    if q >= 1.0 and float(q).is_integer():
        return int(q) // 2 + 1
    return ceil(q / 5.0) + 7


def _kernel_sums(V, f, q: float):
    """Gauss-Legendre sums for int_0^1 (V + s f)^(q-1) ds and
    int_0^1 (V + s f)^(q-1) s ds, as (..., 2, n) for a field or a stack of
    fields f (..., n): the powers (V + x_i f)^(q-1) formed as one (..., N, n)
    array, and both sums taken by one product with the (2, N) weights, one
    gemm per field, as for a single field.  The powers are one array, formed
    and raised in place with the bits of (V + x_i f) ** (q - 1): + commutes,
    and numpy's ** and **= take the same path at every exponent."""
    x, wx = _gauss_legendre(_node_count(q))
    powers = x * f[..., None, :]
    powers += V
    powers **= q - 1.0
    return np.matmul(wx, powers)


def power_difference(V, f, q: float) -> np.ndarray:
    """(V + f)^q - V^q as q f int_0^1 (V + s f)^(q-1) ds (cancellation-free).

    Requires V > 0 and V + f > 0 nodewise.
    """
    return q * f * _kernel_sums(V, f, q)[..., 0, :]


def entropy_density(V, f, p: float) -> np.ndarray:
    """Pointwise entropy integrand: (p+1) f^2 int_0^1 (V + s f)^(p-1) s ds >= 0."""
    return (p + 1.0) * f * f * _kernel_sums(V, f, p)[..., 1, :]


def nonlinear_entropy(grid: Grid, V, p: float, v) -> float:
    """E_nl[v] against the grid quadrature."""
    return integrate(grid, entropy_density(V, np.asarray(v) - np.asarray(V), p))


@dataclass
class EntropyReport:
    """All sampled functionals at one time.

    Q_lin / Q_nl / A_nl are arrays over the modes k = 1..k_p (index k - 1);
    Q_nl is None when E_nl <= 1e-14.
    """

    t: float
    E_lin: float
    I_lin: float
    E_nl: float
    h_inf: float
    h_L2V_sq: float
    cubic: float                 # int |f|^3 V^(p-2) dx
    Q_lin: np.ndarray
    Q_nl: np.ndarray | None
    A_nl: np.ndarray

    def max_q_nl(self) -> float | None:
        if self.Q_nl is None:
            return None
        return float(self.Q_nl.max(initial=0.0))


@dataclass(frozen=True)
class ReportWeights:
    """What entropy_report needs of a setup, formed once per run: the powers
    V^(p+1) and V^(p-2); W and the mode rows are those of eigs, V's spectrum."""

    grid: Grid
    V: np.ndarray
    p: float
    eigs: EigenSystem
    gap: GapReport
    V_pp1: np.ndarray            # V^(p+1)
    V_pm2: np.ndarray            # V^(p-2)

    @classmethod
    def make(cls, grid: Grid, V, exps: Exponents, eigs: EigenSystem,
             gap: GapReport) -> "ReportWeights":
        V = grid.check_field(V)
        p = exps.p
        return cls(grid=grid, V=V, p=p, eigs=eigs, gap=gap,
                   V_pp1=V ** (p + 1.0), V_pm2=V ** (p - 2.0))


class EntropyTrace:
    """A sampled entropy trace as columns: one (S, 8 + 3 k_p) float array,
    row i the sample i, whose columns are t, E_lin, I_lin, E_nl, h_inf, then
    Q_lin, Q_nl and A_nl (k_p each), then h_L2V_sq, cubic and the Q_nl mask
    (1.0 where Q_nl is defined; the undefined Q_nl read 0.0).  The first
    7 + 3 k_p columns are those of the trace CSV (trace_csv).

    Indexing a trace at i gives the EntropyReport of sample i, and slicing it
    a trace of the sliced samples; iterating it gives its reports."""

    __slots__ = ("data", "k_p")

    def __init__(self, data: np.ndarray, k_p: int):
        self.data = data
        self.k_p = k_p

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EntropyTrace(self.data[i], self.k_p)
        return self._report(self.data[i])

    def __iter__(self):
        return map(self._report, self.data)

    def _report(self, row) -> EntropyReport:
        k = self.k_p
        t, e_lin, i_lin, e_nl, h_inf = row[:5].tolist()
        h_l2v_sq, cubic, defined = row[5 + 3 * k:].tolist()
        return EntropyReport(t=t, E_lin=e_lin, I_lin=i_lin, E_nl=e_nl,
                             h_inf=h_inf, h_L2V_sq=h_l2v_sq, cubic=cubic,
                             Q_lin=row[5:5 + k],
                             Q_nl=row[5 + k:5 + 2 * k] if defined else None,
                             A_nl=row[5 + 2 * k:5 + 3 * k])

    t = property(lambda self: self.data[:, 0])
    E_lin = property(lambda self: self.data[:, 1])
    I_lin = property(lambda self: self.data[:, 2])
    E_nl = property(lambda self: self.data[:, 3])
    Q_nl = property(lambda self: self.data[:, 5 + self.k_p:5 + 2 * self.k_p])
    cubic = property(lambda self: self.data[:, -2])
    defined = property(lambda self: self.data[:, -1] != 0.0)   # where Q_nl is

    def max_q_nl(self, undefined: float) -> np.ndarray:
        """Each sample's EntropyReport.max_q_nl, undefined where it is None."""
        return np.where(self.defined, self.Q_nl.max(axis=1, initial=0.0),
                        undefined)


def entropy_report(weights: ReportWeights, v, t):
    """Every tracked functional of a rescaled-flow field v > 0 at time t: its
    EntropyReport, or for a stack of fields v (B, n) at the B times t, their
    EntropyTrace, by one code path; a field's report has the same bits in
    any stack (see the module docstring)."""
    w = weights
    v = w.grid.check_fields(v)
    if smallest(v) <= 0:
        raise ValueError("rescaled field must be positive")
    p, V, wq, k = w.p, w.V, w.grid.quad_weights, w.gap.k_p
    f = v.reshape(-1, V.size) - V
    h = f / V

    out = np.empty((f.shape[0], 8 + 3 * k))
    out[:, 0] = t
    e_lin, i_lin = linear_entropy(w.grid, w.eigs, w.gap.cp, f)
    out[:, 1], out[:, 2] = e_lin, i_lin
    sums = _kernel_sums(V, f, p)
    acc, acc_s = sums[:, 0], sums[:, 1]
    out[:, 3] = e_nl = np.vecdot((p + 1.0) * f * f * acc_s, wq)
    out[:, 4] = np.abs(h).max(axis=-1)
    # a zero E_lin (v = V) gives Q_lin zeros: |coefficient| / inf
    out[:, 5:5 + k] = np.abs(project_coefficients(w.grid, w.eigs, f, k)) \
        / np.sqrt(np.where(e_lin > 0, e_lin, np.inf))[:, None]
    out[:, 5 + 2 * k:5 + 3 * k] = a_nl = np.abs(
        w.eigs.rows[:k] @ (wq * (p * f * acc))[..., None])[..., 0]
    defined = e_nl > QN_ENTROPY_FLOOR
    out[:, 5 + k:5 + 2 * k] = a_nl \
        / np.sqrt(np.where(defined, e_nl, np.inf))[:, None]
    out[:, -3] = np.vecdot(h * h * w.V_pp1, wq)
    out[:, -2] = np.vecdot(np.abs(f) ** 3 * w.V_pm2, wq)
    out[:, -1] = defined
    trace = EntropyTrace(out, k)
    return trace[0] if v.ndim == 1 else trace


@dataclass(frozen=True)
class ComparisonConstants:
    """Measured stand-ins for the abstract comparison constants: extremal
    sandwich ratios, the cubic-remainder kappa and the smoothing kappa."""

    sandwich_lo: float
    sandwich_hi: float
    remainder_kappa: float
    smoothing_kappa: float


def measure_comparison_constants(reports: EntropyTrace, p: float,
                                 ndim: int) -> ComparisonConstants:
    """Extract the measured comparison constants from a uniformly sampled
    trace: extremal ratios 2 E_nl / ((p+1) E_lin), the median cubic-remainder
    ratio over Richardson-valid samples, and the delayed smoothing sup."""
    measurable = reports.E_lin > 1e-22
    ratios = (2.0 * reports.E_nl[measurable]
              / ((p + 1.0) * reports.E_lin[measurable]))
    if not ratios.size:
        raise NumericalFailure("no samples with measurable linear entropy")
    try:
        prod = production_residual(reports, p)
        kap = prod.kappa[prod.valid & np.isfinite(prod.kappa)]
        remainder = float(np.median(kap)) if kap.size else np.nan
    except NumericalFailure:
        remainder = np.nan
    try:
        smoothing, _, _ = smoothing_check(reports, ndim)
    except NumericalFailure:
        smoothing = np.nan
    return ComparisonConstants(sandwich_lo=float(ratios.min()),
                               sandwich_hi=float(ratios.max()),
                               remainder_kappa=remainder,
                               smoothing_kappa=smoothing)


@dataclass(frozen=True)
class ProductionSeries:
    """Entropy-production decomposition along a uniformly sampled trace.

    residual[i] ~ R_p at times[i]: the finite-difference dE_nl/dt plus
    (p+1)/p I_lin.  valid[i] marks samples where the Richardson estimate of
    the finite-difference error is below 30% of |residual|.
    """

    times: np.ndarray
    residual: np.ndarray
    kappa: np.ndarray        # |R_p| / int |f|^3 V^(p-2)
    valid: np.ndarray


def production_residual(reports: EntropyTrace, p: float) -> ProductionSeries:
    """Estimate R_p = dE_nl/dt + (p+1)/p I_lin from consecutive reports.

    Needs uniform sampling; raises NumericalFailure when no sample passes the
    Richardson check (finite differences dominated by curvature error).
    """
    ts = reports.t
    if ts.size < 5:
        raise NumericalFailure("need at least 5 uniformly spaced reports")
    dts = np.diff(ts)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ValueError("production residual needs uniform sampling")
    dt = dts[0]
    E, I, cub = reports.E_nl, reports.I_lin, reports.cubic

    idx = np.arange(2, ts.size - 2)
    d1 = (E[idx + 1] - E[idx - 1]) / (2.0 * dt)
    d2 = (E[idx + 2] - E[idx - 2]) / (4.0 * dt)
    fd_err = np.abs(d1 - d2) / 3.0
    resid = d1 + (p + 1.0) / p * I[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        kappa = np.where(cub[idx] > 0, np.abs(resid) / cub[idx], np.nan)
    valid = fd_err <= 0.3 * np.abs(resid)
    if not valid.any():
        raise NumericalFailure("finite-difference error dominates R_p everywhere")
    return ProductionSeries(times=ts[idx], residual=resid, kappa=kappa,
                            valid=valid)


@dataclass(frozen=True)
class SandwichMargin:
    ratio: float          # 2 E_nl / ((p+1) E_lin)
    delta: float          # measured relative-error level
    implied_C: float      # smallest C with ratio in [(1+C d)^-2, (1+C d)^2]


def sandwich_check(report: EntropyReport, p: float) -> SandwichMargin:
    """Two-sided comparison of linear and nonlinear entropy at one sample."""
    if report.E_lin <= 0:
        return SandwichMargin(ratio=1.0, delta=report.h_inf, implied_C=0.0)
    ratio = 2.0 * report.E_nl / ((p + 1.0) * report.E_lin)
    delta = report.h_inf
    if delta == 0.0:
        return SandwichMargin(ratio=ratio, delta=0.0, implied_C=0.0)
    implied = (max(ratio, 1.0 / ratio) ** 0.5 - 1.0) / delta
    return SandwichMargin(ratio=ratio, delta=delta, implied_C=max(implied, 0.0))


@dataclass(frozen=True)
class ModeComparison:
    k: int
    q_lin: float
    q_nl: float | None
    limit_factor: float    # sqrt(2) p / sqrt(p+1)
    excess: float | None   # |q_nl - limit_factor * q_lin|
    scale: float           # sqrt(E_lin), the size of the bracket slack term


def rayleigh_compare(report: EntropyReport, p: float) -> list:
    """Per-mode comparison of the linear and nonlinear Rayleigh quotients."""
    factor = np.sqrt(2.0) * p / np.sqrt(p + 1.0)
    scale = np.sqrt(max(report.E_lin, 0.0))
    out = []
    for k, ql in enumerate(report.Q_lin.tolist(), 1):
        qn = None if report.Q_nl is None else float(report.Q_nl[k - 1])
        excess = None if qn is None else abs(qn - factor * ql)
        out.append(ModeComparison(k=k, q_lin=ql, q_nl=qn, limit_factor=factor,
                                  excess=excess, scale=scale))
    return out


def _interp_log(ts, values, t):
    """log-linear interpolation of a positive series at time t."""
    logs = np.log(values)
    return float(np.exp(np.interp(t, ts, logs)))


def delayed_ratio_sup(reports: EntropyTrace, numerator, exponent: float,
                      t_start: float):
    """sup over samples t >= t_start of numerator(report) / E_nl(t-1)^exponent.

    E_nl at the delayed time is log-interpolated between samples.  Samples
    where E_nl(t-1) has collapsed to 1e-250 or below are excluded (0/0
    exclusion at the fixed point).  Returns (sup, time at sup, series).
    """
    ts, Es = reports.t, reports.E_nl
    if ts.size < 3 or ts[-1] < t_start:
        raise NumericalFailure("trace does not reach the requested start time")
    pos = Es > 0
    if not pos.any():
        raise NumericalFailure("entropy vanishes along the whole trace (0/0)")
    sup, arg, series = 0.0, None, []
    for i in np.flatnonzero((ts >= t_start) & (ts - 1.0 >= ts[pos][0])):
        r = reports[i]
        e_del = _interp_log(ts[pos], Es[pos], r.t - 1.0)
        if e_del <= 1e-250:
            continue
        num = numerator(r)
        if num is None:
            continue
        val = num / e_del ** exponent
        series.append((r.t, val))
        if val > sup:
            sup, arg = val, r.t
    if not series:
        raise NumericalFailure("no admissible samples for the delayed ratio")
    return sup, arg, series


def smoothing_check(reports: EntropyTrace, ndim: int):
    """sup over t >= t_0 + 1 (t_0 the first sample) of ||h(t)||_inf /
    E_nl(t-1)^(1/(4N)); a finite, horizon-stable value certifies the delayed
    smoothing bound."""
    return delayed_ratio_sup(reports, lambda r: r.h_inf, 1.0 / (4.0 * ndim),
                             float(reports.t[0]) + 1.0)


def decaying_prefix(reports: EntropyTrace) -> EntropyTrace:
    """Reports up to and including the entropy minimum.  Beyond it a finite
    clock-matching resolution lets the unstable profile direction re-emerge,
    so quotient diagnostics are meaningful only on the decaying segment."""
    return reports[: int(np.argmin(reports.E_nl)) + 1]


def ao_window(reports: EntropyTrace) -> EntropyTrace:
    """Reports up to the minimum of the worst nonlinear quotient.  The
    quotients decay while the trajectory tracks the matched-clock flow and
    re-grow once the residual instability outruns sqrt(E); the turning point
    bounds the window on which almost-orthogonality statements are testable
    at the given calibration resolution."""
    return reports[: int(np.argmin(reports.max_q_nl(np.inf))) + 1]


def quotient_smallness_times(reports: EntropyTrace):
    """For each eps in (0.1, 0.03, 0.01), the first sample time after which
    every nonlinear quotient stays <= eps for the rest of the trace (None if
    that never happens); samples with undefined quotients (entropy at the
    floor) count as small."""
    maxq = reports.max_q_nl(0.0)
    out = {}
    for eps in (0.1, 0.03, 0.01):
        large = np.flatnonzero(~(maxq <= eps))   # the samples after the last hold
        first = large[-1] + 1 if large.size else 0
        out[eps] = float(reports.t[first]) if first < maxq.size else None
    return out


def _late_relative_errors(times, fields, V, exps: Exponents, needed: int):
    """(times, rows h = (v - V)/V) of the sampled fields v at t >= T log 2,
    from where the h-checks below hold."""
    late = [(t, v) for t, v in zip(times, fields) if t >= exps.T * np.log(2.0)]
    if len(late) < needed:
        raise NumericalFailure("not enough samples beyond T log 2")
    V = np.asarray(V, dtype=float)
    return (np.array([t for t, _ in late]),
            np.stack([(np.asarray(v, dtype=float) - V) / V for _, v in late]))


def time_monotonicity_check(times, fields, V, exps: Exponents):
    """Two-sided integral bounds on h = v/V - 1 between checkpoint pairs
    (t0, t1) five samples apart, valid for t >= T log 2: integrate h in time
    by the trapezoid rule over the rescaled fields v sampled at times and
    compare with the exponential envelopes driven by the pointwise bound
    d/dt h <= 2 c m (h + 1).

    Returns the worst additive violation (0 when all bounds hold).
    """
    c, m, span = exps.c, exps.m, 5
    ts, H = _late_relative_errors(times, fields, V, exps, span + 1)
    twocm = 2.0 * c * m
    worst = 0.0
    for i0 in range(0, ts.size - span, span):
        t, chunk = ts[i0:i0 + span + 1], H[i0:i0 + span + 1]
        integral = np.trapezoid(chunk, t, axis=0)
        d = t[-1] - t[0]
        h0, h1 = chunk[0], chunk[-1]
        lower = (1.0 - np.exp(-twocm * d)) / twocm * h1 - c * m * d ** 2
        upper = (np.exp(twocm * d) - 1.0) / twocm * h0 \
            + c * m * d ** 2 * np.exp(twocm * d)
        worst = max(worst,
                    float(np.max(lower - integral, initial=0.0)),
                    float(np.max(integral - upper, initial=0.0)))
    return worst


def benilan_crandall_margin(times, fields, V, exps: Exponents):
    """Worst violation of the discrete d/dt h <= 2 c m (h+1) check over the
    rescaled fields sampled at times (per unit O(dt) slack is the caller's
    business).  Valid for t >= T log 2."""
    ts, H = _late_relative_errors(times, fields, V, exps, 2)
    rate = np.diff(H, axis=0) / np.diff(ts)[:, None]
    return float(np.max(rate - 2.0 * exps.c * exps.m * (H[:-1] + 1.0)))


def trace_csv(trace: EntropyTrace) -> tuple:
    """The trace CSV of an EntropyTrace, read from its columns: the header
    and an iterator over the rows, formed _CSV_ROWS rows at a time, so that
    a writer holds no more of them at once.  Column names and their order
    are part of the stable interface: t, E_lin, I_lin, E_nl, h_inf, then
    Q_k, Qn_k, A_k per tracked mode k (Qn cells are empty when the quotient
    is undefined), then h_L2V_sq and cubic; an empty trace tracks no mode."""
    k_p = trace.k_p if len(trace) else 0
    header = ["t", "E_lin", "I_lin", "E_nl", "h_inf"]
    header += [f"{name}_{k}" for name in ("Q", "Qn", "A")
               for k in range(1, k_p + 1)]
    qn = slice(5 + k_p, 5 + 2 * k_p)

    def rows():
        for i in range(0, len(trace), _CSV_ROWS):
            block = trace.data[i:i + _CSV_ROWS]
            out = block[:, :-1].tolist()
            for j in np.flatnonzero(block[:, -1] == 0.0).tolist():
                out[j][qn] = [None] * k_p
            yield from out

    return header + ["h_L2V_sq", "cubic"], rows()


def linear_trace_rows(trace) -> tuple:
    """Flatten a pipeline.LinearModeTrace into (header, rows) for its trace
    CSV: t, E_lin, I_lin, then Q_k = |coef_k| / sqrt(E_lin) (0 where E_lin is
    0), then coef_k, per tracked mode k."""
    ks = range(1, trace.coefficients.shape[1] + 1)
    header = ["t", "E_lin", "I_lin"]
    header += [f"{name}_{k}" for name in ("Q", "coef") for k in ks]
    root = np.sqrt(np.where(trace.E_lin > 0, trace.E_lin, np.inf))
    return header, np.column_stack([trace.times, trace.E_lin, trace.I_lin,
                                    np.abs(trace.coefficients) / root[:, None],
                                    trace.coefficients])
