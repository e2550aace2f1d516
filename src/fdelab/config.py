"""Flat key = value experiment configs with dotted sections.

Example:

    # nonlinear rate experiment
    domain.geometry   = interval
    domain.nodes      = 257
    exponents.p       = 2.0
    exponents.c       = 1.0
    flow.dt           = 1e-3
    flow.horizon      = 10.0
    initial.kind      = mode_perturbed
    initial.modes     = 2:1:0.1
    sampler.cadence   = 0.02
    output.dir        = out

Values are parsed as int, float, bool (true/false), mode triples k:j:amp (j
is 1, the spectrum being simple; initial.modes resolves to (k, amp) pairs, so
no other module reads j), or bare strings; lists are whitespace- or
comma-separated.  A double-quoted value is one verbatim string token:
output.dir = "my runs, #2".  Sweep axes use sweep.p / sweep.nodes /
sweep.amplitude (mode_perturbed only) with list values, each checked like its
base key.  Every key not in the schema is an error, reported with its line
number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import float_info

from .errors import ConfigError

_BOOL = {"true": True, "false": False}
_CODE = re.compile(r'(?:[^"#]|"[^"]*")*')      # a line up to its comment
_TOKEN = re.compile(r'"([^"]+)"|[^\s,"]+')     # "" is no value


def _parse_token(tok: str):
    if tok.lower() in _BOOL:
        return _BOOL[tok.lower()]
    if ":" in tok:
        parts = tok.split(":")
        if len(parts) == 3:
            try:
                return (int(parts[0]), int(parts[1]), float(parts[2]))
            except ValueError:
                pass
        return tok
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """-> {dotted key: (value, line_number)}; lists collapse to single values
    when a key has exactly one token."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _CODE.match(raw).group()
        if raw[len(line):].startswith('"'):
            raise ConfigError(f"{source}:{lineno}: unterminated quote in {raw!r}")
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if not key or any(not part.isidentifier() for part in key.split(".")):
            raise ConfigError(f"{source}:{lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {out[key][1]})")
        values = [_parse_token(m.group()) if m.group(1) is None else m.group(1)
                  for m in _TOKEN.finditer(rhs)]
        if not values:
            raise ConfigError(f"{source}:{lineno}: key {key!r} has no value")
        out[key] = (values[0] if len(values) == 1 else values, lineno)
    return out


# Every key: (kind, default).  A kind is int, float (an int resolves to a
# float), bool, str, or [kind] for a list whose entries have that kind (one
# value is a list of one, kept as given); tuple is a k:j:amplitude triple.
# Every number, and every amplitude, lies in the float range.  The config
# must set a key whose default is ...; one whose default is None may be
# absent (one of each exponent pair is derived; a sweep axis is optional).
_SCHEMA = {
    "domain.geometry": (str, "interval"),
    "domain.nodes": (int, ...),
    "domain.length": (float, 1.0),
    "domain.radius": (float, 1.0),
    "domain.dimension": (int, 3),
    "exponents.p": (float, None),
    "exponents.m": (float, None),
    "exponents.c": (float, None),
    "exponents.T": (float, None),
    "spectrum.modes": (int, 8),
    "spectrum.gap_tol": (float, 1e-3),
    "flow.dt": (float, 1e-3),
    "flow.horizon": (float, 10.0),
    "initial.kind": (str, "stationary"),
    "initial.factor": (float, 1.0),
    "initial.modes": ([tuple], []),
    "initial.path": (str, ""),
    "initial.match_clock": (bool, True),
    "sampler.cadence": (float, 0.05),
    "rates.band_lo": (float, 1e-10),
    "rates.band_hi": (float, 1e-4),
    "rates.tol": (float, 0.05),
    "output.dir": (str, "out"),
    "sweep.p": ([float], None),
    "sweep.nodes": ([int], None),
    "sweep.amplitude": ([float], None),
}
_KNOWN = set(_SCHEMA)
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          bool: (bool, "true or false"), str: (str, "a string"),
          tuple: (tuple, "k:j:amplitude")}

_INITIAL_KINDS = ("stationary", "scaled_stationary", "mode_perturbed", "from_file")


@dataclass
class ExperimentConfig:
    """Fully resolved configuration; `resolved` maps every key (defaults
    included) to its value, which is what the manifest echoes."""

    source: str
    resolved: dict = field(default_factory=dict)
    sweep_axes: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.resolved[key]

    def domain_spec(self):
        from .grid import DomainSpec
        return DomainSpec(**{f: self[f"domain.{f}"] for f in
                             ("geometry", "nodes", "length", "dimension", "radius")})

    def exponents(self):
        from .stationary import Exponents
        return Exponents.make(p=self.resolved["exponents.p"],
                              c=self.resolved["exponents.c"])


def _fail(source, line, msg):
    where = f"{source}:{line}: " if line else f"{source}: "
    raise ConfigError(where + msg)


def _finite(v) -> bool:
    return abs(v) <= float_info.max   # False for nan, inf or an int beyond float


def resolve_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    """Validate the raw key map and fill in every default explicitly."""
    lines = {k: ln for k, (_, ln) in raw.items()}
    values = {k: v for k, (v, _) in raw.items()}

    for key in values:
        if key not in _SCHEMA:
            _fail(source, lines[key], f"unknown key {key!r}")
    resolved = {}
    for key, (kind, default) in _SCHEMA.items():
        v = values.get(key, default)
        if v is ...:
            _fail(source, None, f"missing required key {key!r}")
        if v is None:
            continue
        many = isinstance(kind, list)
        each = kind[0] if many else kind
        types, desc = _KINDS[each]
        for a in v if many and isinstance(v, list) else [v]:
            if not isinstance(a, types) or (isinstance(a, bool) and each is not bool):
                _fail(source, lines.get(key), f"{key} must be {desc}, got {a!r}")
            if each in (int, float, tuple) and not _finite(a[-1] if each is tuple else a):
                _fail(source, lines.get(key), f"{key} must be finite, got {a!r}")
        resolved[key] = float(v) if kind is float else v

    for a, b in (("exponents.p", "exponents.m"), ("exponents.c", "exponents.T")):
        if (a in values) == (b in values):
            _fail(source, None, f"give exactly one of {a}, {b}")

    for key in ("flow.dt", "flow.horizon", "sampler.cadence", "rates.tol"):
        if resolved[key] <= 0:
            _fail(source, lines.get(key), f"{key} must be positive")
    if not 0.0 <= resolved["spectrum.gap_tol"] < 1.0:
        _fail(source, lines.get("spectrum.gap_tol"),
              f"spectrum.gap_tol must lie in [0, 1), "
              f"got {resolved['spectrum.gap_tol']!r}")
    from .flow import sample_count
    horizon, cadence = resolved["flow.horizon"], resolved["sampler.cadence"]
    if not _finite(horizon / cadence):
        _fail(source, lines.get("sampler.cadence"),
              f"sampler.cadence = {cadence!r} puts flow.horizon / sampler.cadence "
              f"beyond the float range (flow.horizon = {horizon!r})")
    if sample_count(horizon, cadence) == 0:
        _fail(source, lines.get("sampler.cadence"),
              f"sampler.cadence = {cadence!r} leaves no sample time within "
              f"flow.horizon = {horizon!r}")

    lo, hi = resolved["rates.band_lo"], resolved["rates.band_hi"]
    if not 0.0 < lo < hi:
        _fail(source, lines.get("rates.band_lo"),
              f"rates.band_lo = {lo!r} must lie in (0, rates.band_hi = {hi!r})")

    try:   # DomainSpec leads its message with the offending field's name
        ExperimentConfig(source, resolved).domain_spec()
    except ConfigError as exc:
        key = "domain." + str(exc).split()[0]
        _fail(source, lines.get(key), f"domain.{exc}")
    k_max = resolved["domain.nodes"] // 4   # the bound weighted_eigensystem enforces
    if not 1 <= resolved["spectrum.modes"] <= k_max:
        _fail(source, lines.get("spectrum.modes"),
              f"spectrum.modes must lie in [1, {k_max}] for "
              f"domain.nodes = {resolved['domain.nodes']}")
    if resolved["initial.kind"] not in _INITIAL_KINDS:
        _fail(source, lines.get("initial.kind"),
              f"initial.kind must be one of {_INITIAL_KINDS}, "
              f"got {resolved['initial.kind']!r}")

    modes = resolved["initial.modes"]
    if not isinstance(modes, list):
        modes = [modes]
    for m in modes:
        # k <= spectrum.modes is checked by the stages that build the datum
        if m[0] < 1 or m[1] != 1:
            _fail(source, lines.get("initial.modes"),
                  f"initial.modes references mode ({m[0]},{m[1]}) outside the "
                  f"computed spectrum (k >= 1 and j = 1)")
    resolved["initial.modes"] = [(k, amp) for k, _, amp in modes]
    if resolved["initial.kind"] == "mode_perturbed" and not modes:
        _fail(source, lines.get("initial.kind"),
              "initial.kind = mode_perturbed requires initial.modes")
    if resolved["initial.kind"] == "from_file" and not resolved["initial.path"]:
        _fail(source, lines.get("initial.kind"),
              "initial.kind = from_file requires initial.path")

    from .stationary import Exponents

    def exponents(key, **given):
        """Exponents.make(**given), subcritical on a ball; a failure names
        the sweep key it came from (None for the base exponents)."""
        try:
            exps = Exponents.make(**given)
            if resolved["domain.geometry"] == "ball":
                exps.check_subcritical(resolved["domain.dimension"])
        except ValueError as exc:
            _fail(source, lines.get(key), f"{key}: {exc}" if key else str(exc))
        return exps

    # derive the full exponent bundle so the manifest shows every value
    names = ("p", "m", "c", "T")
    exps = exponents(None, **{n: resolved.get("exponents." + n) for n in names})
    resolved.update({"exponents." + n: getattr(exps, n) for n in names})

    # every sweep cell must pass the checks its base keys pass
    sweep = {}
    for key in [k for k in resolved if k.startswith("sweep.")]:
        v = resolved.pop(key)
        sweep[key.split(".", 1)[1]] = v if isinstance(v, list) else [v]
    if "amplitude" in sweep and resolved["initial.kind"] != "mode_perturbed":
        _fail(source, lines.get("sweep.amplitude"),
              "sweep.amplitude scales initial.modes, so it needs "
              "initial.kind = mode_perturbed")
    for pv in sweep.get("p", ()):
        exponents("sweep.p", p=pv, c=exps.c)
    n_min = max(8, 4 * resolved["spectrum.modes"])
    for nv in sweep.get("nodes", ()):
        if nv < n_min:
            _fail(source, lines.get("sweep.nodes"),
                  f"sweep.nodes must be at least {n_min} (8, and 4 spectrum.modes), "
                  f"got {nv}")
    return ExperimentConfig(source=source, resolved=resolved, sweep_axes=sweep)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(parse_config_text(text, str(path)), str(path))
