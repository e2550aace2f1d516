#!/usr/bin/env python3
"""The headline experiment: sharp entropy decay of the rescaled flow.

Starting from V plus an eigenmode perturbation, the rescaled flow relaxes to
the stationary profile and the nonlinear entropy decays like exp(-2 lambda_p
t / p).  Two things make this visible at desk scale:

 * the data's extinction clock must match the rescaling constant c exactly;
   a one-parameter scale calibration (flow shooting) realizes that, since a
   pure rescaling of the datum is exactly a clock shift;
 * the fit uses the first monotone passage of the entropy through the band
   [1e-10, 1e-4], below the initial transient and above the resolution floor.

Runs in ~15 s (n = 129).  Raise nodes for a sharper match.
"""

import numpy as np

import fdelab as F

setup = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                  F.Exponents.make(p=2.0, c=1.0))
base = F.mode_perturbed_field(setup, [(2, 0.1)])

print("uncalibrated run first: the profile direction is linearly unstable")
_, reports = F.run_rescaled(setup, base, horizon=8.0, dt=2e-3, cadence=0.5)
for r in reports[::4]:
    print(f"  t = {r.t:4.1f}: E = {r.E_nl:9.3e}  (decays, bottoms out, regrows)")

print("\nnow with the extinction clock matched by scale calibration:")
res = F.run_nonlinear_rate_case(setup, base, horizon=10.0, dt=1e-3, cadence=0.02)
cal = res.calibration
print(f"  calibrated scale b = {cal.scale:.12f} after {cal.trials} trials "
      f"(accepted trial's smallest entropy {cal.achieved_entropy:.1e})")
v = res.verdict
print(f"  fitted rate   = {v.lambda_fit:.6f}")
print(f"  2 lambda_p/p  = {v.target:.6f}")
print(f"  rel. error    = {v.rel_error:.3%}  -> verdict "
      f"{'PASS' if v.passed else 'FAIL'} at tol {v.tol:.0%}")
print(f"  implicit-Euler rate 2 log(1 + dt lambda_p/p)/dt = {v.target_dt:.9f}"
      f" (rel. error {v.rel_error_dt:.1e}: the O(dt) bias above is the time step's)")
print(f"  fit window t in {v.fit.window}, r^2 = {v.fit.r_squared:.12f}")

print("\nalmost-orthogonality improves along the flow (worst quotient):")
window = [r for r in res.reports if r.max_q_nl() is not None]
qmin = min(r.max_q_nl() for r in window)
for r in window[:: len(window) // 8]:
    bar = "#" * max(1, int(40 + 8 * np.log10(max(r.max_q_nl(), 1e-6))))
    print(f"  t = {r.t:5.2f}  Q = {r.max_q_nl():9.3e}  {bar}")
print(f"  minimum Q along the run: {qmin:.3e}")
