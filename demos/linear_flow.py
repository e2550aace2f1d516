#!/usr/bin/env python3
"""Linearized flow p V^(p-1) f_t = lap f + c p V^(p-1) f, mode by mode.

Each eigenmode evolves independently with rate (c p - lambda_k) / p: modes
below the c p threshold GROW (the profile direction fastest), modes above it
decay.  Deflating the data through k_p is preserved by the flow and yields
entropy decay at the sharp rate 2 lambda_p / p.
"""

import numpy as np

import fdelab as F

setup = F.prepare(F.DomainSpec(geometry="interval", nodes=257),
                  F.Exponents.make(p=2.0, c=1.0), n_modes=5)
exps, eigs = setup.exps, setup.eigs
cp = exps.c * exps.p

print("single-mode growth/decay over one time unit (dt = 1e-3):")
for k in (1, 2, 3):
    state = F.FlowState(kind="linearized", field=eigs.mode(k).copy(), time=0.0)
    for _ in range(1000):
        state = F.step_linearized(setup.grid, eigs.W, exps, state, 1e-3)
    coef = F.project_coefficients(setup.grid, eigs, state.field, k)[k - 1]
    target = (cp - eigs.eigenvalues[k - 1]) / exps.p
    print(f"  mode {k}: measured rate {np.log(coef):+8.5f}   "
          f"spectral (cp - lambda_k)/p = {target:+8.5f}"
          f"   {'grows' if target > 0 else 'decays'}")

print("\ndeflated data decays at the sharp rate:")
f0 = F.deflate(setup.grid, eigs, eigs.mode(2) + 0.5 * eigs.mode(3),
               setup.gap.k_p)
tr = F.run_linearized(setup, f0, horizon=1.5, dt=2e-4, cadence=0.05)
fit = F.fit_rate(tr.times, tr.E_lin, F.ExplicitWindow(0.5, 1.5))
target = 2.0 * setup.gap.lambda_p / exps.p
print(f"  fitted d/dt log E = -{fit.lambda_fit:.5f}  vs  2 lambda_p / p = "
      f"{target:.5f}  (r^2 = {fit.r_squared:.10f})")

print("\nwithout deflation the low-mode projections blow up (in infinite time):")
f0 = eigs.mode(1).copy()
tr = F.run_linearized(setup, f0, horizon=3.0, dt=1e-3, cadence=0.5)
for t, c1 in zip(tr.times, tr.coefficients[:, 0]):
    print(f"  t = {t:3.1f}: <f, phi_1> = {c1:9.4f}")
