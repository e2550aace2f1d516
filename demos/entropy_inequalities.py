#!/usr/bin/env python3
"""The inequality toolbox along one rescaled run.

A single large-amplitude trajectory exercises every trace diagnostic:

 * production decomposition: d/dt E_nl = -(p+1)/p I + R with the cubic
   remainder bounded by a measured, dt-stable constant kappa;
 * sandwich: 2 E_nl / ((p+1) E_lin) stays within (1 + C d)^{+-2} for the
   measured relative-error level d, and tends to 1 linearly;
 * delayed smoothing: sup |h(t)| / E_nl(t-1)^(1/(4N)) is finite and stable;
 * time monotonicity: the two-sided integral envelopes for h hold with O(dt)
   slack (a consequence of the growth bound d/dt h <= 2 c m (h+1)).

Runs in ~10 s.
"""

import numpy as np

import fdelab as F
from fdelab.diagnostics import decaying_prefix, measure_comparison_constants

setup = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                  F.Exponents.make(p=2.0, c=1.0))
p, c, m = setup.exps.p, setup.exps.c, setup.exps.m
base = F.mode_perturbed_field(setup, [(2, 3.0)])
print(f"rescaled run from a large perturbation (initial |h| = "
      f"{np.max(np.abs(base / setup.profile.V - 1)):.3f}), dt = 5e-4")
_, reports = F.run_rescaled(setup, base, horizon=2.5, dt=5e-4, cadence=5e-3)

prod = F.production_residual(reports, p)
h = np.array([r.h_inf for r in reports])[2:-2]
win = prod.valid & (h >= 0.02) & (h <= 1.0 / (2.0 * p))
kappa_analytic = c * (p ** 2 - 1.0) / 6.0 * ((p + 1.0) + abs(p - 2.0))
print(f"\nproduction remainder: median kappa = "
      f"{np.median(prod.kappa[win]):.3f}, max = {np.max(prod.kappa[win]):.3f}"
      f"  (small-amplitude analytic envelope {kappa_analytic})")

checks = [F.sandwich_check(r, p) for r in reports if r.E_lin > 1e-20]
C = max(s.implied_C for s in checks)
print(f"sandwich: ratio in [{min(s.ratio for s in checks):.4f}, "
      f"{max(s.ratio for s in checks):.4f}], "
      f"reported C = {C:.3f}, last |ratio-1| = {abs(checks[-1].ratio - 1):.2e}")

clean = decaying_prefix(reports)
sup, arg, _ = F.smoothing_check(clean, ndim=1)
print(f"delayed smoothing: sup |h(t)| / E(t-1)^(1/4) = {sup:.4f} at t = {arg:.3f}")

# the trace keeps no field: replay the run through march for the h-checks
times = [r.t for r in reports]
fields = [state.field for state in
          F.march(setup.grid, setup.exps,
                  F.FlowState(kind="rescaled", field=base, time=0.0),
                  dt=5e-4, targets=times)]
V = setup.profile.V
worst = F.time_monotonicity_check(times, fields, V, setup.exps)
print(f"time monotonicity: worst envelope violation = {worst:.2e} "
      f"(O(dt) slack allows {5 * 5e-4 * (1 + 2 * c * m):.2e})")

bc = F.benilan_crandall_margin(times, fields, V, setup.exps)
print(f"growth-rate bound: worst margin of d/dt h <= 2cm(h+1) is {bc:.2e}")

consts = measure_comparison_constants(reports, p, ndim=1)
print(f"\nmeasured comparison constants: {consts}")
