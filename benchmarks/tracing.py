"""Call tracing from outside fdelab: wrap each layer's public functions,
keep one span per call in memory, and derive the per-layer metrics.

fdelab binds several of these functions by name in more than one module
(`pipeline` imports `step_rescaled`, `nonlinear_entropy` and `prepare`, and
`cli` imports `prepare` and `run_nonlinear_rate_case`), and `flow.evolve`
reaches its steppers through module globals.  A wrapper is therefore put on
every fdelab module attribute that holds the original function; wrapping only
the defining module would leave the calibration steps uncounted.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (module, function) pairs that get a span; the span name is "module.function".
TRACED = (
    ("grid", "build_domain"),
    ("stationary", "solve_stationary"),
    ("spectrum", "weighted_eigensystem"),
    ("flow", "step_rescaled"),
    ("flow", "step_original"),
    ("flow", "evolve"),
    ("diagnostics", "entropy_report"),
    ("diagnostics", "nonlinear_entropy"),
    ("rates", "fit_rate"),
    ("pipeline", "prepare"),
    ("pipeline", "match_extinction_clock"),
    ("pipeline", "run_rescaled"),
    ("cli", "run_experiment"),
    ("cli", "write_csv"),
    ("cli", "write_json"),
)

CALIBRATION = "pipeline.match_extinction_clock"
REPORTED_RUN = "pipeline.run_rescaled"

# (metric, kind, source).  kind: calls | s (total seconds) | us (mean
# microseconds per call) | self_s (total minus child spans) | count and bytes
# (counters) | ratio.  Units are listed with the metric names in BENCHMARK.json.
PER_LAYER = (
    ("grid.build_domain.calls", "calls", "grid.build_domain"),
    ("grid.build_domain.s", "s", "grid.build_domain"),
    ("stationary.solve_stationary.calls", "calls", "stationary.solve_stationary"),
    ("stationary.solve_stationary.s", "s", "stationary.solve_stationary"),
    ("stationary.newton_iters", "count", "stationary.newton_iters"),
    ("spectrum.weighted_eigensystem.calls", "calls", "spectrum.weighted_eigensystem"),
    ("spectrum.weighted_eigensystem.s", "s", "spectrum.weighted_eigensystem"),
    ("flow.step_rescaled.calls", "calls", "flow.step_rescaled"),
    ("flow.step_rescaled.us", "us", "flow.step_rescaled"),
    ("flow.step_rescaled.newton_iters", "count", "flow.step_rescaled.newton_iters"),
    ("flow.step_original.calls", "calls", "flow.step_original"),
    ("flow.step_original.us", "us", "flow.step_original"),
    ("flow.step_original.newton_iters", "count", "flow.step_original.newton_iters"),
    ("flow.step_failures", "count", "flow.step_failures"),
    ("flow.evolve.self_s", "self_s", "flow.evolve"),
    ("diagnostics.entropy_report.calls", "calls", "diagnostics.entropy_report"),
    ("diagnostics.entropy_report.us", "us", "diagnostics.entropy_report"),
    ("diagnostics.nonlinear_entropy.calls", "calls", "diagnostics.nonlinear_entropy"),
    ("diagnostics.nonlinear_entropy.us", "us", "diagnostics.nonlinear_entropy"),
    ("rates.fit_rate.calls", "calls", "rates.fit_rate"),
    ("rates.fit_rate.s", "s", "rates.fit_rate"),
    ("pipeline.prepare.s", "s", "pipeline.prepare"),
    ("pipeline.match_extinction_clock.s", "s", CALIBRATION),
    ("pipeline.calibration.trials", "count", "pipeline.calibration.trials"),
    ("pipeline.calibration.steps", "count", "pipeline.calibration.steps"),
    ("pipeline.run_rescaled.self_s", "self_s", REPORTED_RUN),
    ("pipeline.useful_step_ratio", "ratio", "pipeline.useful_step_ratio"),
    ("cli.run_experiment.self_s", "self_s", "cli.run_experiment"),
    ("cli.write_csv.s", "s", "cli.write_csv"),
    ("cli.write_csv.bytes", "bytes", "cli.write_csv.bytes"),
    ("cli.write_json.s", "s", "cli.write_json"),
)

COUNT_KINDS = ("calls", "count", "bytes")


class Tracer:
    """Spans kept in parallel lists; a span's parent is the innermost span
    open when it started (-1 at top level)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.open = Counter()       # span name -> number of open spans
        self.counters = Counter()

    def wrap(self, name, fn, on_result=None, on_error=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, open_, clock = self.stack, self.open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            open_[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
                open_[name] -= 1
            if on_result is not None:   # outside the span; sees enclosing spans open
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function on each fdelab module that binds it."""
        import fdelab.cli  # noqa: F401  (loads every fdelab module)
        from fdelab.flow import StepFailure

        def step_hook(kind):
            iters_key = f"flow.step_{kind}.newton_iters"

            def on_result(tr, args, kwargs, state):
                tr.counters[iters_key] += state.newton_iters
                if kind == "rescaled":
                    tr.counters["flow.step_rescaled.all"] += 1
                    if tr.open[CALIBRATION]:
                        tr.counters["pipeline.calibration.steps"] += 1
                    if tr.open[REPORTED_RUN]:
                        tr.counters["flow.step_rescaled.reported_run"] += 1
            return on_result

        def on_step_error(tr, exc):
            if isinstance(exc, StepFailure):
                tr.counters["flow.step_failures"] += 1

        def on_stationary(tr, args, kwargs, profile):
            tr.counters["stationary.newton_iters"] += profile.newton_iters

        def on_calibration(tr, args, kwargs, cal):
            tr.counters["pipeline.calibration.trials"] += cal.trials

        def on_csv(tr, args, kwargs, _):
            path = args[0] if args else kwargs["path"]
            tr.counters["cli.write_csv.bytes"] += os.path.getsize(path)

        hooks = {
            "flow.step_rescaled": (step_hook("rescaled"), on_step_error),
            "flow.step_original": (step_hook("original"), on_step_error),
            "stationary.solve_stationary": (on_stationary, None),
            CALIBRATION: (on_calibration, None),
            "cli.write_csv": (on_csv, None),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "fdelab" or n.startswith("fdelab.")) and m is not None]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"fdelab.{mod_name}"], fn_name)
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def per_name(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        agg = {}
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return agg

    def metrics(self) -> dict:
        agg = self.per_name()
        steps = self.counters["flow.step_rescaled.all"]
        derived = dict(self.counters)
        derived["pipeline.useful_step_ratio"] = (
            self.counters["flow.step_rescaled.reported_run"] / steps if steps else 0.0)
        out = {}
        for metric, kind, source in PER_LAYER:
            calls, total, self_s = agg.get(source, (0, 0.0, 0.0))
            if kind == "calls":
                value = calls
            elif kind == "s":
                value = total
            elif kind == "us":
                value = 1e6 * total / calls if calls else 0.0
            elif kind == "self_s":
                value = self_s
            else:
                value = derived.get(source, 0)
            out[metric] = value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{name},{self.starts[sid]!r},{self.ends[sid]!r},"
                         f"{self.parents[sid]}\n")
