"""Command-line front end: reproducible experiment pipelines and sweeps.

Subcommands (each takes --config PATH, optional --out DIR; sweep --jobs INT):

    stationary      domain + profile            -> profile.csv
    spectrum        + weighted eigensystem      -> spectrum.csv, gap.json
    linear-evolve   + linearized flow           -> trace.csv (linear columns)
    evolve          + rescaled flow             -> trace.csv (entropy columns)
    rates           + rate fit and verdict      -> verdict.json
    sweep           grid over p / nodes / amplitude -> sweep.csv + cell dirs

Every run writes manifest.json echoing the fully resolved config (defaults
made explicit) and the library versions.  Outputs are written atomically and
byte-identical across reruns of the same config.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 verdict FAIL
(see fdelab.errors); any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, load_config
from .diagnostics import linear_trace_rows, trace_rows
from .errors import ConfigError, NumericalFailure
from .flow import lattice_step
from .pipeline import (mode_perturbed_field, prepare, run_linearized,
                       run_nonlinear_rate_case)
from .rates import EntropyBand
from .stationary import Exponents

STAGES = ("stationary", "spectrum", "linear", "evolve", "rates")


def _fmt(x) -> str:
    if isinstance(x, float):        # np.float64, a float subclass: array rows
        return repr(float(x))
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        if "," in x or '"' in x or "\n" in x:
            return '"' + x.replace('"', '""') + '"'
        return x
    return repr(float(x))


def write_csv(path: Path, header, rows) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:   # a float cell is repr(x), as _fmt would write it
            fh.write(",".join([repr(x) if type(x) is float else _fmt(x)
                               for x in row]) + "\n")
    os.replace(tmp, path)


def _plain(obj):
    """A numpy scalar or array as Python values, for json.dump."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, obj) -> None:
    """obj as sorted, indented JSON.  An np.float64 is a float, which the
    indenting encoder writes through float.__repr__, as it does float(x)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")
    os.replace(tmp, path)


def read_field_csv(path, n: int) -> np.ndarray:
    """Initial field from a CSV with a 'v' (or second) column of length n."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            col = header.index("v") if "v" in header else 1
            vals = [float(line.strip().split(",")[col]) for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read initial field {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:   # a short row or a non-numeric cell
        raise ConfigError(f"{path}: bad initial field entry: {exc}") from exc
    field = np.array(vals)
    if field.size != n:
        raise ConfigError(f"{path}: initial field has {field.size} rows, "
                          f"expected {n}")
    if not np.isfinite(field).all():
        raise ConfigError(f"{path}: initial field has a non-finite entry")
    return field


def _initial_field(cfg: ExperimentConfig, setup, stage: str):
    """The configured initial datum; the nonlinear stages need it positive."""
    kind = cfg["initial.kind"]
    if kind == "stationary":
        return setup.profile.V.copy()
    if kind == "scaled_stationary":
        field, origin = cfg["initial.factor"] * setup.profile.V, "initial.factor"
    elif kind == "mode_perturbed":
        try:
            return mode_perturbed_field(setup, cfg["initial.modes"])
        except ValueError as exc:   # a mode beyond spectrum.modes, or not positive
            raise ConfigError(f"initial.modes: {exc}") from exc
    else:
        field = read_field_csv(cfg["initial.path"], setup.grid.n)
        origin = f"initial.path {cfg['initial.path']}"
    if stage != "linear" and field.min() <= 0:
        raise ConfigError(f"{origin}: the {stage} stage needs a positive "
                          f"initial field")
    return field


def _manifest(cfg: ExperimentConfig, stage: str) -> dict:
    return {
        "config": dict(sorted(cfg.resolved.items())),
        "stage": stage,
        "versions": {
            "fdelab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }


def run_experiment(config, stage: str = "rates", out_dir=None) -> dict:
    """Execute pipeline stages through `stage`; write artifacts; return a
    summary dict with the output directory, the GapReport (once the spectrum
    stage has run) and the verdict.json payload (if any)."""
    cfg = load_config(config) if not isinstance(config, ExperimentConfig) else config
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    out = Path(out_dir or cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)

    exps = cfg.exponents()
    # singular at dt = T: the linear step matrix (step_linearized refuses
    # dt >= T/2) and a clock-matched run's unstable-mode factor 1/(1 - dt/T)
    step = lattice_step(cfg["flow.dt"], cfg["sampler.cadence"])
    clocked = stage in ("evolve", "rates") and cfg["initial.match_clock"]
    bound, name = ((0.5 * exps.T, "T/2") if stage == "linear" else
                   (exps.T, "T") if clocked else (np.inf, ""))
    if step >= bound:
        raise ConfigError(f"flow.dt: the {stage} stage steps min(flow.dt, "
                          f"sampler.cadence) = {step!r}, which must be below "
                          f"{name} = {bound!r}")
    setup = prepare(cfg.domain_spec(), exps, n_modes=int(cfg["spectrum.modes"]),
                    gap_tol=cfg["spectrum.gap_tol"])
    grid, profile = setup.grid, setup.profile
    # a bad initial datum must fail before any artifact is written
    base = (_initial_field(cfg, setup, stage)
            if stage in ("linear", "evolve", "rates") else None)
    write_json(out / "manifest.json", _manifest(cfg, stage))
    write_csv(out / "profile.csv", ["x", "V", "S", "dist"],
              list(zip(grid.coords, profile.V, profile.S, grid.boundary_distance)))
    summary = {"out_dir": str(out), "stage": stage, "gap": None, "verdict": None}
    if stage == "stationary":
        return summary

    write_csv(out / "spectrum.csv", ["k", "lambda", "residual"],
              [(k, lam, setup.eigs.residuals[k - 1])
               for k, lam, _ in setup.eigs.pairs()])
    write_json(out / "gap.json",
               {**asdict(setup.gap), "eigenvalues": setup.eigs.eigenvalues})
    summary["gap"] = setup.gap
    if stage == "spectrum":
        return summary

    if stage == "linear":
        f0 = base - profile.V
        tr = run_linearized(setup, f0, horizon=cfg["flow.horizon"],
                            dt=cfg["flow.dt"], cadence=cfg["sampler.cadence"])
        write_csv(out / "trace.csv", *linear_trace_rows(tr))
        return summary

    result = run_nonlinear_rate_case(
        setup, base, horizon=cfg["flow.horizon"], dt=cfg["flow.dt"],
        cadence=cfg["sampler.cadence"],
        band=EntropyBand(cfg["rates.band_lo"], cfg["rates.band_hi"]),
        tol=cfg["rates.tol"], match_clock=cfg["initial.match_clock"],
        want_fit=(stage == "rates"))
    header, rows = trace_rows(result.reports)
    write_csv(out / "trace.csv", header, rows)
    meta = dict(result.step_summary)
    meta["clock_scale"] = result.calibration.scale
    meta["clock_max_shift"] = result.calibration.max_shift
    write_json(out / "trajectory.json", meta)
    if stage == "evolve":
        return summary

    if result.trivial_fixed_point:
        verdict = {"verdict": "TRIVIAL-FIXED-POINT", "passed": True,
                   "clock_scale": result.calibration.scale}
    else:   # the fit's fields flattened in; its lambda_fit is the verdict's
        verdict = asdict(result.verdict)
        verdict.update(verdict.pop("fit"),
                       verdict="PASS" if result.verdict.passed else "FAIL",
                       clock_scale=result.calibration.scale)
    write_json(out / "verdict.json", verdict)
    summary["verdict"] = verdict
    return summary


def _sweep_cell(args):
    """One sweep cell's row after its key: lambda_p, lambda_fit, ratio, h2_ok,
    error (module-level so process pools can pickle it)."""
    resolved, source, cell_over, cell_dir = args
    cfg = ExperimentConfig(source=source, resolved=dict(resolved))
    cfg.resolved.update(cell_over)
    try:
        summary = run_experiment(cfg, stage="rates", out_dir=cell_dir)
    except (ConfigError, NumericalFailure) as exc:   # any other is a bug
        return [None, None, None, None, f"{type(exc).__name__}: {exc}"]
    gap, verdict = summary["gap"], summary["verdict"]
    lam_fit, target = verdict.get("lambda_fit"), verdict.get("target")
    ratio = (lam_fit / target) if (lam_fit is not None and target) else None
    return [gap.lambda_p, lam_fit, ratio, gap.h2_ok, ""]


def sweep(config, out_dir=None, jobs: int = 1) -> Path:
    """Run the cartesian sweep grid; aggregate one row per cell.  Cells run
    in min(jobs, cells) worker processes, or in this one if that is 1."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    cfg = load_config(config) if not isinstance(config, ExperimentConfig) else config
    axes = cfg.sweep_axes
    for key, axis in axes.items():   # cell names print p and amplitude with :g
        if len({str(a) if key == "nodes" else f"{a:g}" for a in axis}) < len(axis):
            raise ConfigError(f"sweep.{key} values {axis} name a cell directory twice")
    out = Path(out_dir or cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    ps = axes.get("p", [cfg.resolved.get("exponents.p")])
    ns = axes.get("nodes", [cfg.resolved["domain.nodes"]])
    amps = axes.get("amplitude", [1.0])
    cells = []
    if axes:
        for pv, nv, av in product(ps, ns, amps):
            # resolve_config validated the axis: derive the cell's m and T
            e = Exponents.make(p=float(pv), c=cfg["exponents.c"])
            over = {"domain.nodes": int(nv), "exponents.p": e.p,
                    "exponents.m": e.m, "exponents.T": e.T}
            if av != 1.0:
                over["initial.modes"] = [(k, a * av)
                                         for k, a in cfg.resolved["initial.modes"]]
            name = f"cell_p{pv:g}_n{nv}_a{av:g}"
            cells.append(((pv, int(nv), av), over, str(out / name)))

    header = ["p", "n", "amplitude", "lambda_p", "lambda_fit", "ratio",
              "h2_ok", "error"]
    rows = []
    if cells:
        payload = [(cfg.resolved, cfg.source, over, cdir) for _, over, cdir in cells]
        workers = min(jobs, len(payload))
        if workers > 1:   # the pool starts all its workers at the first submit
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_cell, payload))
        else:
            results = [_sweep_cell(a) for a in payload]
        rows = [[*key, *tail] for (key, _, _), tail in zip(cells, results)]
    write_csv(out / "sweep.csv", header, rows)
    return out / "sweep.csv"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdelab",
        description="Stationary profiles, weighted spectra and entropy decay "
                    "rates for the Dirichlet fast-diffusion problem.")
    sub = parser.add_subparsers(dest="command", required=True)
    stage_of = {"stationary": "stationary", "spectrum": "spectrum",
                "linear-evolve": "linear", "evolve": "evolve", "rates": "rates"}
    for name in (*stage_of, "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, metavar="PATH")
        sp.add_argument("--out", default=None, metavar="DIR")
        if name == "sweep":
            sp.add_argument("--jobs", type=int, default=1, metavar="INT")
    args = parser.parse_args(argv)

    try:
        if args.command == "sweep":
            path = sweep(args.config, out_dir=args.out, jobs=args.jobs)
            print(path)
            return 0
        summary = run_experiment(args.config, stage=stage_of[args.command],
                                 out_dir=args.out)
        print(summary["out_dir"])
        verdict = summary["verdict"]
        if verdict is not None and not verdict["passed"]:
            print(f"verdict FAIL: rate {verdict['lambda_fit']:.6g} vs "
                  f"target {verdict['target']:.6g}", file=sys.stderr)
            return 4
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
