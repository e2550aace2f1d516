#!/usr/bin/env python3
"""Rate sweep over the exponent: fitted entropy rates against 2 lambda_p / p.

Runs the full calibrated pipeline for p in {1.2, 1.5, 2, 3} on the interval
(the closed-form spectrum makes the target rate 2 * 3c / p = 6/p here) and
aggregates one row per cell, exactly like `fdelab sweep`.

Takes a couple of minutes at n = 129.  To run the cells in parallel, save
CFG below to a file, say sweep.cfg, and run

    fdelab sweep --config sweep.cfg --jobs 4

which uses at most one worker process per cell.
"""

import os
import tempfile

import fdelab.cli as cli

CFG = """\
domain.geometry   = interval
domain.nodes      = 129
exponents.c       = 1.0
exponents.p       = 2.0
flow.dt           = 1e-3
flow.horizon      = 12.0
initial.kind      = mode_perturbed
initial.modes     = 2:1:0.1
sampler.cadence   = 0.02
sweep.p           = 1.2 1.5 2.0 3.0
"""

with tempfile.TemporaryDirectory() as tmp:
    cfg_path = os.path.join(tmp, "sweep.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(CFG)
    out = cli.sweep(cfg_path, out_dir=os.path.join(tmp, "out"), jobs=1)
    print(open(out).read())
    print("columns: p, n, amplitude, lambda_p, lambda_fit, "
          "ratio (= fit/target), h2_ok, error")
