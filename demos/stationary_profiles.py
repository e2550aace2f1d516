#!/usr/bin/env python3
"""Stationary profiles V of -V'' = c V^p on the unit interval.

Solves the semilinear problem by damped Newton for a few exponents, checks
the solution against the independent first-integral oracle, and prints the
boundary-slope certificates c0 dist <= V <= c1 dist together with the energy
identity int |grad V|^2 = c int V^(p+1).

Writes nothing; `fdelab stationary` writes a profile as profile.csv (columns
x, V, S, dist).
"""

import numpy as np

import fdelab as F

grid = F.build_domain(F.DomainSpec(geometry="interval", nodes=257))
print(f"interval grid: n = {grid.n}, h = {grid.h:.5f}")

for p in (1.2, 1.5, 2.0, 3.0):
    exps = F.Exponents.make(p=p, c=1.0)
    prof = F.solve_stationary(grid, exps)
    oracle = F.oracle_profile_1d(exps, n=grid.n)
    gap = np.max(np.abs(prof.V - oracle.V)) / oracle.V.max()
    c0, c1 = F.boundary_slope_bounds(grid, prof.V)
    lhs = F.dirichlet_energy(grid, prof.V)
    rhs = exps.c * F.integrate(grid, prof.V ** (p + 1.0))
    print(f"p = {p:>4}: max V = {prof.V.max():10.4f}  newton = {prof.newton_iters}"
          f"  |solver - oracle|/max = {gap:.2e}"
          f"  slopes ({c0:.3f}, {c1:.3f})"
          f"  energy identity gap = {abs(lhs - rhs) / rhs:.2e}")

print("\nthe p -> 1 limit approaches the first Dirichlet eigenfunction:")
exps = F.Exponents.make(p=1.01, c=np.pi ** 2)
prof = F.solve_stationary(grid, exps)
shape = np.sin(np.pi * grid.coords)
vn = prof.V / np.sqrt(F.integrate(grid, prof.V ** 2))
sn = shape / np.sqrt(F.integrate(grid, shape ** 2))
print(f"p = 1.01, c = pi^2: normalized sup distance to sin(pi x) = "
      f"{np.max(np.abs(vn - sn)) / sn.max():.2%}")
