"""Correctness checks on the workloads' artifacts, computed apart from fdelab.

Every check compares against a closed form or a property the method must
have, never against stored output, and returns a list of failure messages
(empty when the artifact passes).  `self_test_*` corrupt a passing artifact
and return the messages of the corruptions the check failed to reject.

Closed forms used (unit interval, exponent p, c):
  lambda_k = c k ((p+1) k - (p-1)) / 2, so lambda_p = lambda_3 - c p = 3c and
  the sharp entropy rate is 2 lambda_p / p = 6c/p;
  extinction time T = p / ((p-1) c).
Sandwich property (p = 2): with f = v - V and h = f/V,
  E_nl = int 3 f^2 V (1/2 + h/3) and E_lin = int f^2 V,
so 2 E_nl / (3 E_lin) is a mean of r(h) = 1 + 2h/3 with weights f^2 V >= 0,
hence lies in [r(-h_inf), r(h_inf)].
Entropy balance (p = 2): the rescaled flow obeys 2 (V+f) f_t = L f + c f^2
with L f = f'' + 2cVf, and I_lin = int f'^2 - 2c int f^2 V = -int f L f, so
  dE_lin/dt + I_lin = -int f h/(1+h) L f + c int f^3/(1+h),
which vanishes for the linearized flow and is O(h_inf) relative otherwise.
A stepper that does not advance the flow breaks it at once.
"""

from __future__ import annotations

import csv
import math

RATE_REL_TOL = 0.01        # lambda_fit against 6c/p (measured 8e-4)
GAP_ABS_TOL = 1e-3         # gap.json lambda_p against 3c (measured 6.6e-5)
T_REL_TOL = 1e-3           # T_est against p/((p-1)c) (measured 5.8e-5)
ENTROPY_FLOOR = 1e-8       # closed-loop entropy must reach this (measured 8e-17)
LATTICE_REL_TOL = 1e-9     # sample times against (i+1) * cadence
SANDWICH_SLACK = 1e-12     # rounding allowance on the sandwich bounds
# |dE_lin/dt + I_lin| <= BALANCE_K h_inf (|I_lin| + 2c E_lin) on every pair of
# consecutive rows.  The bound above has int |f||Lf| + c E_lin in place of
# |I_lin| + 2c E_lin; the trace does not carry it.  Measured worst 0.48 at both
# dt (t ~ 1.2, where the unstable profile direction takes over).
BALANCE_K = 1.0
# Implicit Euler is first order: the traces at dt and dt/2 differ by O(dt).
# Measured worst relative gap of E_lin and E_nl at dt = 5e-4 against 2.5e-4:
# 4.6e-4.
DT_PAIR_REL_TOL = 2e-3

MAX_MESSAGES = 5


def sharp_rate(p: float, c: float) -> float:
    return 6.0 * c / p


def extinction_time(p: float, c: float) -> float:
    return p / ((p - 1.0) * c)


def check_rate(verdict: dict, gap: dict, p: float, c: float) -> list:
    fails = []
    if verdict.get("verdict") != "PASS":
        fails.append(f"verdict is {verdict.get('verdict')!r}, not PASS")
    target = sharp_rate(p, c)
    fit = verdict.get("lambda_fit")
    if not isinstance(fit, (int, float)) or not abs(fit - target) <= RATE_REL_TOL * target:
        fails.append(f"lambda_fit {fit!r} not within {RATE_REL_TOL:g} of 6c/p = {target:g}")
    lam = gap.get("lambda_p")
    if not isinstance(lam, (int, float)) or not abs(lam - 3.0 * c) <= GAP_ABS_TOL:
        fails.append(f"gap lambda_p {lam!r} not within {GAP_ABS_TOL:g} of 3c = {3.0 * c:g}")
    return fails


def read_trace(path) -> list:
    """Rows of trace.csv as dicts of the columns the checks use."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(row[k]) for k in ("t", "E_lin", "I_lin", "E_nl", "h_inf")}
                for row in csv.DictReader(fh)]


def _sandwich(row) -> tuple:
    """(ratio, lower bound, upper bound) of 2 E_nl / (3 E_lin) at p = 2."""
    h = row["h_inf"]
    return 2.0 * row["E_nl"] / (3.0 * row["E_lin"]), 1.0 - 2.0 * h / 3.0, 1.0 + 2.0 * h / 3.0


def check_trace(rows: list, cadence: float, horizon: float, p: float, c: float) -> list:
    if p != 2.0:
        raise ValueError("the sandwich and balance bounds are written for p = 2")
    fails = []
    expected = int(math.floor(horizon / cadence + 1e-9))
    if len(rows) != expected:
        fails.append(f"{len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        if len(fails) >= MAX_MESSAGES:
            break
        t = row["t"]
        if not abs(t - (i + 1) * cadence) <= LATTICE_REL_TOL * cadence:
            fails.append(f"row {i}: t = {t!r} is off the cadence lattice")
        e_lin, e_nl = row["E_lin"], row["E_nl"]
        if not (math.isfinite(e_lin) and math.isfinite(e_nl) and e_lin > 0 and e_nl > 0):
            fails.append(f"row {i}: E_lin = {e_lin!r}, E_nl = {e_nl!r} not finite and positive")
            continue
        ratio, lo, hi = _sandwich(row)
        if not lo * (1.0 - SANDWICH_SLACK) <= ratio <= hi * (1.0 + SANDWICH_SLACK):
            fails.append(f"row {i}: 2E_nl/(3E_lin) = {ratio!r} outside [{lo!r}, {hi!r}]")
    for i, (a, b) in enumerate(zip(rows, rows[1:])):
        if len(fails) >= MAX_MESSAGES:
            break
        residual = (b["E_lin"] - a["E_lin"]) / (b["t"] - a["t"]) + 0.5 * (a["I_lin"] + b["I_lin"])
        scale = max(a["h_inf"], b["h_inf"]) * max(abs(a["I_lin"]) + 2.0 * c * a["E_lin"],
                                                  abs(b["I_lin"]) + 2.0 * c * b["E_lin"])
        if not abs(residual) <= BALANCE_K * scale:
            fails.append(f"rows {i}-{i + 1}: dE_lin/dt + I_lin = {residual!r} exceeds "
                         f"{BALANCE_K:g} h_inf (|I_lin| + 2c E_lin) = {BALANCE_K * scale!r}")
    return fails


def check_dt_pair(coarse: list, fine: list) -> list:
    """E_lin and E_nl of the trace at dt against the trace at dt/2, at the
    coarse trace's sample times."""
    fails = []
    if len(fine) != 2 * len(coarse):
        return [f"{len(fine)} rows at dt/2 against {len(coarse)} at dt, expected twice as many"]
    for i, a in enumerate(coarse):
        if len(fails) >= MAX_MESSAGES:
            break
        b = fine[2 * i + 1]
        if not abs(a["t"] - b["t"]) <= LATTICE_REL_TOL * a["t"]:
            fails.append(f"row {i}: t = {a['t']!r} at dt against {b['t']!r} at dt/2")
            continue
        for key in ("E_lin", "E_nl"):
            if not abs(a[key] - b[key]) <= DT_PAIR_REL_TOL * abs(b[key]):
                fails.append(f"t = {a['t']!r}: {key} = {a[key]!r} at dt and {b[key]!r} "
                             f"at dt/2 differ by more than {DT_PAIR_REL_TOL:g} relative")
    return fails


def check_extinction(T_est: float, entropies: list, p: float, c: float) -> list:
    fails = []
    T = extinction_time(p, c)
    if not abs(T_est - T) <= T_REL_TOL * T:
        fails.append(f"T_est {T_est!r} not within {T_REL_TOL:g} of T = {T:g}")
    e_min = min(entropies, default=math.inf)
    if not e_min <= ENTROPY_FLOOR:
        fails.append(f"closed-loop entropy reached only {e_min!r} > {ENTROPY_FLOOR:g}")
    return fails


def self_test_rate(verdict, gap, p, c) -> list:
    bad = dict(verdict, lambda_fit=verdict["lambda_fit"] * 1.02)
    return [] if check_rate(bad, gap, p, c) else ["lambda_fit x 1.02 was accepted"]


def _frozen(rows) -> list:
    """The trace of a flow that never moves: every row has row 0's values."""
    return [dict(rows[0], t=row["t"]) for row in rows]


def self_test_trace(rows, cadence, horizon, p, c) -> list:
    """Scale E_nl by 1.01 on the row nearest its upper sandwich bound; freeze
    the trace in time."""
    margins = [(hi - ratio) / hi for ratio, _, hi in map(_sandwich, rows)]
    i = min(range(len(rows)), key=margins.__getitem__)
    bad = list(rows)
    bad[i] = dict(rows[i], E_nl=rows[i]["E_nl"] * 1.01)
    missed = [] if check_trace(bad, cadence, horizon, p, c) else [f"row {i}: E_nl x 1.01 was accepted"]
    if not check_trace(_frozen(rows), cadence, horizon, p, c):
        missed.append("a trace frozen in time was accepted")
    return missed


def self_test_dt_pair(coarse, fine) -> list:
    return [] if check_dt_pair(coarse, _frozen(fine)) else ["a frozen dt/2 trace was accepted"]


def self_test_extinction(T_est, entropies, p, c) -> list:
    return ([] if check_extinction(T_est * 1.002, entropies, p, c)
            else ["T_est x 1.002 was accepted"])
