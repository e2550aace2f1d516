"""Mutation audit: does tier-1 notice a small, named fault in the library?

    python3 scripts/mutants.py [NAME ...]

Each mutant is one exact text replacement (file, old, new) in src/.  For the
unmutated tree and then for each named mutant (all by default) the script
copies the whole repository (benchmarks/ included, so that
tests/test_tracing.py runs) to a temporary directory, applies the
replacement there and runs tier-1 on the copy with pytest -x, the four
bit-pinned reference-step tests deselected: they pin every bit of a step, so
they kill any mutant of the steppers and would hide whether a test of the
physics does.  It prints a Markdown table: each mutant killed, with the
first failing test, or surviving.  An unknown name, or a replacement whose
old text does not occur exactly once in its file, is an error (exit 2),
found before any run; an unmutated tree that fails is one too (exit 1).
The repository itself is never written.  One run takes about 40 s when no
test fails.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BIT_PINS = ("test_bit_identical_to_reference",
            "test_march_is_the_reference_from_the_extrapolated_start",
            "test_damped_steps_are_the_reference",
            "test_any_start_solves_the_same_step")

# name -> (file under src/fdelab, old text, new text)
MUTANTS = {
    "clock A* with the opposite sign": (
        "pipeline.py", "(self.on_profile - float(self.weight @ (a * a)))",
        "(self.on_profile + float(self.weight @ (a * a)))"),
    "clock without A*": (
        "pipeline.py", "(self.on_profile - float(self.weight @ (a * a)))",
        "(self.on_profile)"),
    "rescaled c-term x (1 + 1e-7)": (
        "flow.py", "dt, exps.m, exps.c,", "dt, exps.m, exps.c * (1 + 1e-7),"),
    "kernel nodes 8 -> 3 at non-integer p": (
        "diagnostics.py", "return ceil(q / 5.0) + 7", "return ceil(q / 5.0) + 2"),
    "discrete_rate returns mu": (
        "flow.py", "return np.log1p(dt * mu) / dt if dt > 0 else mu",
        "return mu"),
    "extinction fit exponent x (1 + 1e-4)": (
        "flow.py", "y = sups[sel] ** (1.0 - m)",
        "y = sups[sel] ** ((1.0 - m) * (1 + 1e-4))"),
    "original step takes (1 + 1e-3) dt": (
        "flow.py", "_implicit_euler(grid, u_old, dt, exps.m, 0.0,",
        "_implicit_euler(grid, u_old, dt * (1 + 1e-3), exps.m, 0.0,"),
    "original step takes m (1 + 1e-5)": (
        "flow.py", "_implicit_euler(grid, u_old, dt, exps.m, 0.0,",
        "_implicit_euler(grid, u_old, dt, exps.m * (1 + 1e-5), 0.0,"),
    "step_original stamps time + dt (1 + 1e-4)": (
        "flow.py", 'FlowState(kind="original", field=u_new, time=state.time + dt,',
        'FlowState(kind="original", field=u_new, '
        'time=state.time + dt * (1 + 1e-4),'),
    "largest returns the argmin's element": (
        "grid.py", "return a.item(a.argmax())", "return a.item(a.argmin())"),
    # a run sampled in a forked child: each block's rows are written when
    # the next block is sent, so the last block's never are
    "forked rows written one block late": (
        "flow.py", "        if last and child.pending:\n"
                   "            write(child.receive())\n", ""),
    "forked run's last partial block not flushed": (
        "flow.py", "        if block_times:\n            child.send(",
        "        if block_times and not last:\n            child.send("),
    # a child that ends before a block's rows: its error is the sampler's
    # only if the parent samples that block itself
    "forked child's end raised without sampling its block": (
        "forked.py", "        self.sampler(times, self.fields[:len(times)])\n"
                     "        raise EOFError", "        raise EOFError"),
    # the child pins itself to one CPU, and samples unpinned if it cannot
    # (the second mutant's except clause catches nothing the pin raises)
    "forked child not pinned": (
        "forked.py", "os.sched_setaffinity(0, {max(cpus - {on} or cpus)})",
        "pass"),
    "child's affinity error not caught": (
        "forked.py", "            except OSError:     # a mask it may not "
                     "set: sample unpinned\n                pass\n",
        "            except ZeroDivisionError:\n                pass\n"),
}

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "out", "*.egg-info")


def mutated(name: str) -> tuple[str, str]:
    """(path under the repository, its text with mutant name applied);
    SystemExit(2) unless the mutant's old text occurs exactly once."""
    file, old, new = MUTANTS[name]
    path = f"src/fdelab/{file}"
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        print(f"mutant {name!r}: {old!r} occurs {text.count(old)} times in "
              f"{path}, not once", file=sys.stderr)
        raise SystemExit(2)
    return path, text.replace(old, new)


def run_tier1(mutant: tuple[str, str] | None) -> str | None:
    """The first failing tier-1 test on a copy of the repository with the
    mutated file (path, text) written in (None: unmutated), or None if
    every test passes."""
    with tempfile.TemporaryDirectory(prefix="fdelab-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            path, text = mutant
            (tree / path).write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "-p", "no:cacheprovider", "-k",
             " and ".join(f"not {test}" for test in BIT_PINS)],
            cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return found[1] if found else f"pytest exited {proc.returncode}"


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants {unknown}; known: {list(MUTANTS)}",
              file=sys.stderr)
        return 2
    mutants = {name: mutated(name) for name in names}
    baseline = run_tier1(None)
    if baseline is not None:
        print(f"the unmutated tree fails {baseline}", file=sys.stderr)
        return 1
    print("| mutant | tier-1 | first failing test |")
    print("|---|---|---|")
    for name in names:
        failed = run_tier1(mutants[name])
        print(f"| {name} | {'surviving' if failed is None else 'killed'} | "
              f"{failed or '-'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
