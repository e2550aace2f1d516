"""fdelab benchmark: run one workload for a fixed time, check its outputs and
print its metrics.

    python3 benchmarks/run.py --workload {rate-p2,trace-dense,extinction} \\
                              --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports fdelab from src/.  A run is
whole rounds: each round is one fresh interpreter (benchmarks/workload.py)
that performs the workload's fdelab calls once and checks their outputs.
Rounds repeat until the run has lasted about S seconds (at least two, so that
reruns can be compared byte for byte).  With --trace 1 untraced and traced
rounds alternate, at least two of each; the traced ones give the per-layer
metrics and the difference gives the tracing overhead.  The host's speed
drifts, so times are stated against frozen references (hostspeed.py): each
round times a reference kernel while its calls run, and wall_ref is the wall
time in kernel units; set-up-only interpreters alternate with reference
interpreters, and setup_s is set-up time scaled by the reference.  No
workload is random, so --seed is accepted and ignored.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Round outputs, spans and a record of the run
are kept under benchmarks/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_STARTUP_S, reference_time, startup_seconds
from tracing import COUNT_KINDS, PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rate-p2", "trace-dense", "extinction")

SETUP_PROBES = 4        # set-up-only interpreters per run, for setup_s
MIN_ROUNDS = 2          # untraced: reruns can be compared byte for byte
MIN_ROUNDS_TRACED = 4   # two untraced and two traced: counts can be compared too
ROUND_TIMEOUT_S = 150
RUN_BUDGET_S = 160      # never start a round expected to end after this


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no fdelab, or a round could not start)."""


def metric_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json at the checkout's root lists them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    def __init__(self, root: Path, workload: str):
        self.root = root
        self.workload = workload
        self.out = HERE / "out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def spawn(self, name: str, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one fresh interpreter; return its result.json (with "crash"
        set when it did not finish)."""
        rdir = self.out / name
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", self.workload,
               "--dir", str(rdir)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"crash": f"round {name} killed after {ROUND_TIMEOUT_S} s"}
        if proc.returncode == 2:
            raise BenchmarkError(f"round {name} could not start: {proc.stderr.strip()}")
        if proc.returncode != 0:
            return {"crash": f"round {name} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"}
        return json.loads((rdir / "result.json").read_text(encoding="utf-8"))

    def setup_probes(self) -> list:
        """Set-up-only interpreters, each between two reference start-ups;
        a probe's "startup_ref_s" is the mean of the two."""
        try:
            refs = [startup_seconds(self.env)]
            probes = []
            for i in range(SETUP_PROBES):
                probes.append(self.spawn(f"setup{i}", setup_only=True))
                refs.append(startup_seconds(self.env))
                probes[-1]["startup_ref_s"] = 0.5 * (refs[-2] + refs[-1])
        except subprocess.SubprocessError as exc:
            raise BenchmarkError(f"reference interpreter failed: {exc}") from exc
        return probes

    def run(self, seconds: float, trace: bool) -> tuple[list, list]:
        probes = [] if trace else self.setup_probes()
        rounds = []
        t_start = time.monotonic()
        while True:
            traced = trace and len(rounds) % 2 == 1
            rec = self.spawn(f"r{len(rounds)}", trace=traced)
            rec["traced"] = traced
            rounds.append(rec)
            elapsed = time.monotonic() - t_start
            per_round = elapsed / len(rounds)
            whole = (len(rounds) >= (MIN_ROUNDS_TRACED if trace else MIN_ROUNDS)
                     and not (trace and len(rounds) % 2))
            if whole and (elapsed + per_round / 2 >= seconds
                          or elapsed + per_round > RUN_BUDGET_S):
                return probes, rounds


def summarize(probes: list, rounds: list, trace: bool, units: dict) -> dict:
    started = [r for r in probes + rounds if "crash" not in r]
    if not started:
        raise BenchmarkError("no interpreter finished:\n"
                             + "\n".join(r["crash"] for r in probes + rounds))
    ops_per_round = len(started[0]["op_names"])
    attempted = ops_per_round * len(rounds)
    failed, correct, problems = 0, True, []
    digests = {}
    for i, rec in enumerate(rounds):
        if "crash" in rec:
            failed += ops_per_round
            problems.append(rec["crash"])
            continue
        for op in rec["ops"]:
            if op["error"] is not None:
                failed += 1
                problems.append(f"r{i} {op['name']} failed: {op['error'].strip()[-2000:]}")
                continue
            for msg in op["fails"]:
                correct = False
                problems.append(f"r{i} {op['name']}: {msg}")
            for msg in op["self_test"]:
                correct = False
                problems.append(f"r{i} {op['name']} self-test: {msg}")
            digests.setdefault(op["name"], set()).add(op["digest"])
    for name, seen in digests.items():
        if len(seen) > 1:
            correct = False
            problems.append(f"{name}: outputs differ between rounds ({len(seen)} digests)")

    done = [r for r in rounds if "crash" not in r]
    plain = [r for r in done if not r["traced"]]
    if not plain:
        raise BenchmarkError("no round finished:\n" + "\n".join(problems))
    if trace:
        traced = [r for r in done if r["traced"]]
        if not traced:
            raise BenchmarkError("no traced round finished:\n" + "\n".join(problems))
        values, mismatches = layer_values(traced)
        correct = correct and not mismatches
        problems += mismatches
        values["bench.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        values["bench.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["bench.trace_overhead_s"] = (values["bench.traced_wall_s"]
                                            - values["bench.wall_s"])
        values["bench.trace_overhead_ref"] = (
            statistics.median(r["wall_s"] / r["ref_s"] for r in traced)
            - statistics.median(r["wall_s"] / r["ref_s"] for r in plain))
    else:
        setups = [r["setup_s"] / r["startup_ref_s"] for r in probes if "crash" not in r]
        if not setups:
            raise BenchmarkError("no set-up probe finished:\n" + "\n".join(problems))
        values = {"wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in plain),
                  "setup_s": NOMINAL_STARTUP_S * statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"BENCHMARK.json names metrics this benchmark does not make: {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            "problems": problems}


def layer_values(traced: list) -> tuple[dict, list]:
    """Counts from the first traced round, which every traced round must
    repeat exactly; durations are medians over the traced rounds."""
    values, mismatches = {}, []
    for metric, kind, _ in PER_LAYER:
        seen = [r["layers"][metric] for r in traced]
        if kind in COUNT_KINDS:
            if len(set(seen)) > 1:
                mismatches.append(f"{metric} differs between traced rounds: {seen}")
            values[metric] = seen[0]
        else:
            values[metric] = statistics.median(seen)
    return values, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one fdelab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="ignored: no workload is random")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fdelab" / "__init__.py").is_file():
        print(f"no fdelab sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    ref_before = reference_time()
    runner = Runner(root, args.workload)
    try:
        end_to_end, per_layer = metric_units()
        probes, rounds = runner.run(args.seconds, bool(args.trace))
        summary = summarize(probes, rounds, bool(args.trace),
                            per_layer if args.trace else end_to_end)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    ref_after = reference_time()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "reference_kernel_s": [ref_before, ref_after],
              "setup_probes": probes, "rounds": rounds, **summary}
    (runner.out / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for msg in summary["problems"]:
        print(msg, file=sys.stderr)
    walls = " ".join(f"{r.get('wall_s', float('nan')):.3f}{'t' if r['traced'] else ''}"
                     for r in rounds)
    refs = " ".join(f"{1e6 * r['ref_s']:.0f}/{1e6 * r['ref_back_to_back_s']:.0f}"
                    for r in rounds if "ref_s" in r)
    setups = " ".join(f"{p['setup_s']:.3f}/{p['startup_ref_s']:.3f}"
                      for p in probes if "crash" not in p)
    print(f"{args.workload}: {len(rounds)} rounds, wall_s [{walls}], "
          f"kernel_us in round/back to back [{refs}], "
          f"reference kernel {1e6 * ref_before:.0f} us before, {1e6 * ref_after:.0f} us after, "
          f"set-up s/reference start-up s [{setups}]")
    del summary["problems"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
