"""The error contract: config text either resolves to a runnable config or
raises ConfigError naming where, a solve that leaves the float range exits 2
or 3, not with a traceback, and every exception class fdelab defines lives in
fdelab/errors.py."""

import ast
import builtins
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fdelab
import fdelab.cli as cli
from fdelab.config import ConfigError, _KNOWN, parse_config_text, resolve_config
from fdelab.flow import sample_count

BASE = {"domain.nodes": "129", "exponents.p": "2.0", "exponents.c": "1.0"}

_numbers = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.integers(10 ** 300, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True)).map(repr)
_words = st.sampled_from(["true", "false", "interval", "ball", "stationary",
                          "scaled_stationary", "mode_perturbed", "from_file",
                          "out", "abc", "1:2", "x:y:z", "2:1:0.1", "40:1:-3.5",
                          '"my runs"', '"a,b.csv"', '"2.0"', '"run #3"', '""',
                          '"unterminated'])
_tokens = st.one_of(_numbers, _words,
                    st.tuples(st.integers(-2, 40), st.integers(-2, 3),
                              st.floats(-100, 100)).map(lambda t: "%d:%d:%r" % t))
_values = st.one_of(_tokens, st.lists(_tokens, min_size=2, max_size=4).map(" ".join))


@settings(max_examples=400, deadline=None)
@example(overrides={"domain.geometry": "ball", "domain.dimension": "1" + "0" * 400},
         dropped=set())
@given(overrides=st.dictionaries(st.sampled_from(sorted(_KNOWN)), _values,
                                 max_size=6),
       dropped=st.sets(st.sampled_from(sorted(BASE)), max_size=1))
def test_config_resolves_or_raises_config_error(overrides, dropped):
    raw = {k: v for k, v in BASE.items() if k not in dropped}
    raw.update(overrides)
    text = "".join(f"{k} = {v}\n" for k, v in raw.items())
    try:
        cfg = resolve_config(parse_config_text(text))
    except ConfigError as exc:
        assert str(exc).startswith("<config>:")
        return
    # what resolves describes a run: its domain, exponents and mode count
    cfg.domain_spec()
    cfg.exponents()
    assert 1 <= cfg["spectrum.modes"] <= cfg["domain.nodes"] // 4
    for key in ("flow.dt", "flow.horizon", "sampler.cadence"):
        assert cfg[key] > 0
    # and a sample time within its horizon
    assert sample_count(cfg["flow.horizon"], cfg["sampler.cadence"]) >= 1


def spectrum_exit(nodes, p, geometry, extent, dimension=1):
    """(exit code, stderr) of `fdelab spectrum` at c = 1 on an interval of
    length extent or a ball of that radius."""
    keys = {"domain.geometry": geometry, "domain.nodes": nodes,
            "exponents.p": repr(p), "exponents.c": "1.0"}
    if geometry == "interval":
        keys["domain.length"] = repr(extent)
    else:
        keys.update({"domain.dimension": dimension, "domain.radius": repr(extent)})
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(["spectrum", "--config", str(cfg),
                           "--out", str(Path(tmp) / "out")])
    return rc, err.getvalue()


@st.composite
def _spectrum_inputs(draw):
    """An interval or a ball of dimension N <= 3 with an extent 10^u, u in
    [-150, 150], and p - 1 log-uniform from 1e-4 up to 299 (to 3.99 at
    N = 3, where p must stay below the critical 5)."""
    geometry, N = draw(st.sampled_from([("interval", 1), ("ball", 1),
                                        ("ball", 2), ("ball", 3)]))
    top = math.log10(299.0 if N < 3 else 3.99)
    p = 1.0 + 10.0 ** draw(st.floats(-4.0, top))
    return p, geometry, 10.0 ** draw(st.floats(-150.0, 150.0)), N


@settings(max_examples=150, deadline=None)
@given(inputs=_spectrum_inputs())
def test_spectrum_in_or_out_of_the_float_range_exits_0_2_or_3(inputs):
    p, geometry, extent, N = inputs
    assert spectrum_exit(33, p, geometry, extent, N)[0] in (0, 2, 3)


@pytest.mark.parametrize("p, geometry, extent, N, code, named", [
    (1.001, "interval", 1.0, 1, 3, "profile's scale leaves the float range"),
    (200.0, "interval", 1.0, 1, 3, "float range"),
    (2.0, "interval", 1e90, 1, 3, "profile's scale leaves the float range"),
    (2.0, "ball", 1e120, 3, 2, "domain.radius"),
    (2.0, "ball", 1e-120, 3, 2, "domain.radius"),
])
def test_spectrum_out_of_the_float_range_at_n_129(p, geometry, extent, N,
                                                   code, named):
    rc, err = spectrum_exit(129, p, geometry, extent, N)
    assert rc == code and named in err


@pytest.mark.parametrize("N, radius", [(344, 7.0), (360, 6.5), (400, 5.85)])
def test_ball_whose_sphere_area_overflows_exits_2_at_n_33(N, radius):
    # h^N and R^N are finite normal floats here, but Gamma(N/2) in the
    # area of S^(N-1) is not: from N = 344 on it overflows a float
    rc, err = spectrum_exit(33, 1.005, "ball", radius, N)
    assert rc == 2 and "domain.dimension" in err


@pytest.mark.parametrize("N, radius", [(150, 0.34), (3, 5.6e102)])
def test_ball_whose_extreme_shell_leaves_the_float_range_exits_2_at_n_33(
        N, radius):
    # h^N and R^N are finite normal floats here, but the shell volumes
    # |S^(N-1)| (r_out^N - r_in^N) / N are not: at N = 150 the innermost
    # underflows to 0, at N = 3 the outermost overflows
    rc, err = spectrum_exit(33, 1.005, "ball", radius, N)
    assert rc == 2 and "domain.radius" in err


def test_ball_whose_innermost_weight_is_subnormal_exits_2_at_n_8():
    # h^N, R^N and the shell are positive here, but the innermost weight
    # |S^60| r^61 / 61 is 3.37e-310, a subnormal float with fewer than 53 bits
    rc, err = spectrum_exit(8, 1.005, "ball", 1e-4, 61)
    assert rc == 2 and "domain.radius" in err and "3.37485434150173e-310" in err


def _base_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_exception_classes_live_in_errors_module():
    classes = []   # (module, class name, base names) over every module
    for path in sorted(Path(fdelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes.append((path.stem, node.name,
                                {_base_name(b) for b in node.bases}))
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    defined = set()
    while True:   # classes deriving from an exception, to a fixed point
        found = {(mod, name) for mod, name, bases in classes
                 if bases & exceptions
                 or any(b.endswith(("Error", "Exception", "Warning")) for b in bases)}
        if found == defined:
            break
        defined = found
        exceptions |= {name for _, name in found}
    assert defined == {("errors", "ConfigError"), ("errors", "NumericalFailure"),
                       ("errors", "StepFailure")}
