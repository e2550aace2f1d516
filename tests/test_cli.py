"""Config parsing, pipeline artifacts, determinism, sweeps, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fdelab.cli as cli
from fdelab.config import (ConfigError, _parse_token, load_config,
                           parse_config_text, resolve_config)

BASE_CFG = """\
domain.geometry   = interval
domain.nodes      = 129
exponents.p       = 2.0
exponents.c       = 1.0
flow.dt           = 2e-3
flow.horizon      = 9.0
initial.kind      = mode_perturbed
initial.modes     = 2:1:0.1
sampler.cadence   = 0.05
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def set_key(text, key, value):
    """text with `key = value` in place of any line that sets key."""
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


# (keys set on BASE_CFG, the key or path the error must name); {tmp} is the
# test's directory, which holds text.csv (a non-numeric cell) and
# negative.csv (129 rows of -1)
BAD_INPUTS = [
    ({"domain.nodes": "4"}, "domain.nodes"),
    ({"domain.length": "-1.0"}, "domain.length"),
    ({"spectrum.modes": "0"}, "spectrum.modes"),
    ({"spectrum.modes": "60"}, "spectrum.modes"),
    ({"flow.dt": "-1e-3"}, "flow.dt"),
    ({"sampler.cadence": "0.0"}, "sampler.cadence"),
    ({"flow.horizon": "-1.0"}, "flow.horizon"),
    ({"initial.kind": "scaled_stationary", "initial.factor": "-1.0"}, "initial.factor"),
    ({"initial.kind": "scaled_stationary", "initial.factor": "0.0"}, "initial.factor"),
    ({"initial.kind": "from_file", "initial.path": "{tmp}/missing.csv"}, "missing.csv"),
    ({"initial.kind": "from_file", "initial.path": "{tmp}/text.csv"}, "text.csv"),
    ({"initial.kind": "from_file", "initial.path": "{tmp}/negative.csv"}, "negative.csv"),
    ({"initial.modes": "2:2:0.1"}, "initial.modes"),
    ({"flow.horizon": "1.0", "sampler.cadence": "2.0"}, "sampler.cadence"),
    # an integer beyond the float range, and a sample count beyond it
    ({"domain.geometry": "ball", "domain.dimension": "1" + "0" * 400},
     "domain.dimension"),
    ({"domain.nodes": "1" + "0" * 400}, "domain.nodes"),
    ({"flow.horizon": "1e300", "sampler.cadence": "1e-300"}, "sampler.cadence"),
    ({"initial.modes": "2:1:nan"}, "initial.modes"),
    # a clock-matched run stepping at T = 2 or beyond, where the unstable
    # mode's implicit-Euler factor 1/(1 - dt/T) is singular
    ({"flow.dt": "2.0", "sampler.cadence": "2.0"}, "flow.dt"),
    ({"flow.dt": "3.0", "sampler.cadence": "3.0"}, "flow.dt"),
]

# verdict.json: RateVerdict with its RateFit flattened in, and the clock
VERDICT_KEYS = {"verdict", "passed", "lambda_fit", "target", "rel_error", "tol",
                "target_dt", "rel_error_dt", "lambda_p", "k_p", "p", "window",
                "r_squared", "stderr", "n_samples", "clock_scale"}


class TestParser:
    def test_basic_values(self):
        raw = parse_config_text("a.x = 3\nb.y = 2.5\nc.z = true\nd.w = hello\n"
                                "e.m = 2:1:0.25\nf.list = 1, 2, 3\n")
        assert raw["a.x"][0] == 3
        assert raw["b.y"][0] == 2.5
        assert raw["c.z"][0] is True
        assert raw["d.w"][0] == "hello"
        assert raw["e.m"][0] == (2, 1, 0.25)
        assert raw["f.list"][0] == [1, 2, 3]

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# full comment\n\na.x = 1  # trailing\n")
        assert raw["a.x"] == (1, 3)

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a.x = 1\nnonsense line\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a.x = 1\na.x = 2\n")
        with pytest.raises(ConfigError, match="no value"):
            parse_config_text("a.x =\n")
        with pytest.raises(ConfigError, match="bad key"):
            parse_config_text("3bad.key = 1\n")

    def test_quoted_values_are_one_string(self):
        cfg = resolve_config(parse_config_text(
            'domain.nodes = 64\nexponents.p = 2.0\nexponents.c = 1.0\n'
            'output.dir = "my runs"\ninitial.path = "a,b.csv"  # comment\n'))
        assert cfg["output.dir"] == "my runs"
        assert cfg["initial.path"] == "a,b.csv"
        raw = parse_config_text('a.x = "12"\nb.y = "run #3", 2\n')
        assert raw["a.x"] == ("12", 1)
        assert raw["b.y"] == (["run #3", 2], 2)
        with pytest.raises(ConfigError, match=":1: key 'output.dir' has no value"):
            parse_config_text('output.dir = ""\n')

    def test_unterminated_quote_names_its_line(self):
        with pytest.raises(ConfigError, match=r":2: unterminated quote"):
            parse_config_text('a.x = 1\noutput.dir = "my runs\n')

    @given(rhs=st.text(st.characters(blacklist_characters='"#'), max_size=30))
    def test_unquoted_values_split_as_before(self, rhs):
        # a value without quotes splits on whitespace and commas, as it always has
        tokens = rhs.replace(",", " ").split()
        if not tokens or len(rhs.splitlines()) > 1:
            return
        values = [_parse_token(t) for t in tokens]
        parsed = parse_config_text("a.x =" + rhs)["a.x"][0]
        assert repr(parsed) == repr(values[0] if len(values) == 1 else values)

    def test_schema_validation(self):
        ok = "domain.nodes = 64\nexponents.p = 2.0\nexponents.c = 1.0\n"
        resolve_config(parse_config_text(ok))
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config(parse_config_text(ok + "bogus.key = 1\n"))
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(parse_config_text(
                "domain.nodes = 64\nexponents.p = 2.0\nexponents.m = 0.5\n"
                "exponents.c = 1.0\n"))
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(parse_config_text(
                "domain.nodes = 64\nexponents.p = 2.0\n"))
        with pytest.raises(ConfigError, match="mode_perturbed requires"):
            resolve_config(parse_config_text(
                ok + "initial.kind = mode_perturbed\n"))
        with pytest.raises(ConfigError, match="must be a number"):
            resolve_config(parse_config_text(ok + "flow.dt = fast\n"))

    def test_seed_is_not_a_key(self):
        # nothing in fdelab is random, so no key may pretend to seed it
        ok = "domain.nodes = 64\nexponents.p = 2.0\nexponents.c = 1.0\n"
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            resolve_config(parse_config_text(ok + "seed = 0\n"))

    def test_T_resolves_to_c(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path,
                                    "domain.nodes = 64\nexponents.p = 2.0\n"
                                    "exponents.T = 2.0\n"))
        assert cfg["exponents.c"] == 1.0       # c = p / ((p-1) T)
        assert cfg["exponents.m"] == 0.5

    def test_every_default_resolved(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path,
                                    "domain.nodes = 64\nexponents.p = 2.0\n"
                                    "exponents.c = 1.0\n"))
        for key in ("flow.dt", "flow.horizon", "sampler.cadence",
                    "rates.band_lo", "rates.tol", "output.dir",
                    "initial.kind", "spectrum.modes"):
            assert key in cfg.resolved

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/does/not/exist.cfg")


class TestRunExperiment:
    def test_stage_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "o1"
        cli.run_experiment(path, stage="spectrum", out_dir=out)
        assert {p.name for p in out.iterdir()} == {
            "manifest.json", "profile.csv", "spectrum.csv", "gap.json"}
        gap = json.loads((out / "gap.json").read_text())
        assert gap["h2_ok"] and gap["k_p"] == 1
        prof = (out / "profile.csv").read_text().splitlines()
        assert prof[0] == "x,V,S,dist"
        assert len(prof) == 130
        # manifest echoes every filled-in default, not just user keys
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("domain.length", "rates.band_lo", "spectrum.gap_tol",
                    "initial.match_clock", "exponents.T"):
            assert key in manifest["config"]
        assert manifest["config"]["exponents.T"] == 2.0
        # the evolve stage records the clock-matched run's scalings: their
        # product, and the largest |1 - sigma| after the first (measured
        # 2.5e-10 here)
        cli.run_experiment(path, stage="evolve", out_dir=out)
        meta = json.loads((out / "trajectory.json").read_text())
        assert set(meta) == {"kind", "steps", "samples", "dt_min", "dt_max",
                             "newton_total", "newton_max", "newton_hist",
                             "clock_scale", "clock_max_shift"}
        assert abs(meta["clock_scale"] - 1.0) <= 1e-4
        assert 0.0 < meta["clock_max_shift"] <= 1e-9
        assert sum(meta["newton_hist"]) == meta["steps"]

    def test_trivial_fixed_point_verdict(self, tmp_path):
        cfg = BASE_CFG.replace("initial.kind      = mode_perturbed",
                               "initial.kind      = stationary")
        cfg = cfg.replace("initial.modes     = 2:1:0.1", "")
        cfg = cfg.replace("flow.horizon      = 9.0", "flow.horizon      = 1.0")
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o2"
        summary = cli.run_experiment(path, stage="rates", out_dir=out)
        assert summary["verdict"]["verdict"] == "TRIVIAL-FIXED-POINT"
        assert set(json.loads((out / "verdict.json").read_text())) == {
            "verdict", "passed", "clock_scale"}
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        e_col = 3  # t, E_lin, I_lin, E_nl, ...
        assert all(float(r.split(",")[e_col]) <= 1e-12 for r in rows)

    def test_linear_stage_trace(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG.replace("flow.horizon      = 9.0",
                                                    "flow.horizon      = 1.0"))
        out = tmp_path / "o3"
        cli.run_experiment(path, stage="linear", out_dir=out)
        header = (out / "trace.csv").read_text().splitlines()[0].split(",")
        ks = range(1, 9)   # spectrum.modes = 8
        assert header == (["t", "E_lin", "I_lin"] + [f"Q_{k}" for k in ks]
                          + [f"coef_{k}" for k in ks])
        assert "coef_2" in header

    def test_discrete_rates_read_the_step_march_takes(self, tmp_path):
        # sampled every 5e-3, a run at flow.dt = 1e-2 steps 5e-3 like one at
        # flow.dt = 5e-3: both calibrate and judge at that step
        cfg = set_key(set_key(BASE_CFG, "flow.horizon", "12.0"),
                      "sampler.cadence", "5e-3")
        verdicts = []
        for dt in ("1e-2", "5e-3"):
            path = write_cfg(tmp_path, set_key(cfg, "flow.dt", dt))
            verdicts.append(cli.run_experiment(path, "rates",
                                               tmp_path / dt)["verdict"])
        coarse, fine = verdicts
        assert coarse["target_dt"] == fine["target_dt"]
        assert coarse["rel_error_dt"] <= 1e-5
        assert coarse["clock_scale"] == pytest.approx(fine["clock_scale"],
                                                      rel=1e-12)

    @pytest.mark.parametrize("dt", ["1.5e-3", "3e-3"])
    def test_discrete_rates_read_the_remainder_step(self, tmp_path, dt):
        # sampled every 0.02, a run steps 13 times 1.5e-3 and then 5e-4 (or
        # 6 times 3e-3 and then 2e-3): the verdict reads the rate of that
        # lattice, not of one step of dt, and the clock holds on it
        cfg = set_key(set_key(set_key(BASE_CFG, "flow.horizon", "12.0"),
                              "sampler.cadence", "0.02"), "flow.dt", dt)
        verdict = cli.run_experiment(write_cfg(tmp_path, cfg), "rates",
                                     tmp_path / "out")["verdict"]
        assert verdict["rel_error_dt"] <= 1e-5
        meta = json.loads((tmp_path / "out" / "trajectory.json").read_text())
        assert meta["clock_max_shift"] <= 1e-9

    def test_mode_is_its_index_k(self, tmp_path):
        # a mode is named by k alone: spectrum.csv has no j column, gap.json
        # no multiplicities, and the manifest echoes (k, amplitude) pairs
        path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "o6"
        cli.run_experiment(path, stage="spectrum", out_dir=out)
        spec = (out / "spectrum.csv").read_text().splitlines()
        assert spec[0] == "k,lambda,residual"
        assert [row.split(",")[0] for row in spec[1:]] == [str(k) for k in range(1, 9)]
        gap = json.loads((out / "gap.json").read_text())
        assert set(gap) == {"k_p", "cp", "lambda_p", "gamma_p", "h2_ok",
                            "gap_margin", "lambda_kp1", "eigenvalues"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["initial.modes"] == [[2, 0.1]]

    def test_mode_out_of_range(self, tmp_path):
        path = write_cfg(tmp_path,
                         BASE_CFG.replace("2:1:0.1", "40:1:0.1"))
        with pytest.raises(ConfigError, match="outside the computed spectrum"):
            cli.run_experiment(path, stage="evolve", out_dir=tmp_path / "o4")

    def test_from_file_initial(self, tmp_path, interval_p2_small):
        s = interval_p2_small
        v0 = s.profile.V * 1.0
        lines = ["x,v"] + [f"{float(x)!r},{float(v)!r}"
                           for x, v in zip(s.grid.coords, v0)]
        init = tmp_path / "init.csv"
        init.write_text("\n".join(lines) + "\n")
        cfg = BASE_CFG.replace("initial.kind      = mode_perturbed",
                               "initial.kind      = from_file")
        cfg = cfg.replace("initial.modes     = 2:1:0.1",
                          f"initial.path      = {init}")
        cfg = cfg.replace("flow.horizon      = 9.0", "flow.horizon      = 1.0")
        path = write_cfg(tmp_path, cfg)
        summary = cli.run_experiment(path, stage="rates", out_dir=tmp_path / "o5")
        assert summary["verdict"]["verdict"] == "TRIVIAL-FIXED-POINT"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = BASE_CFG.replace("flow.horizon      = 9.0",
                               "flow.horizon      = 2.0")
        path = write_cfg(tmp_path, cfg)
        a, b = tmp_path / "da", tmp_path / "db"
        cli.run_experiment(path, stage="evolve", out_dir=a)
        cli.run_experiment(path, stage="evolve", out_dir=b)
        for name in ("trace.csv", "profile.csv", "spectrum.csv", "gap.json",
                     "manifest.json", "trajectory.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


    def test_write_json_writes_numpy_as_python(self, tmp_path):
        x = 0.1 + 0.2   # a float whose repr needs all 17 digits
        as_numpy = {"f": np.float64(x), "i": np.int64(-7), "b": np.bool_(True),
                    "v": np.array([x, 1e-300]), "m": np.arange(4.0).reshape(2, 2),
                    "t": (np.float64(1.5), np.int64(2)), "nan": np.float64("nan"),
                    "inf": np.float64("inf"), "-inf": -np.float64("inf")}
        as_python = {"f": x, "i": -7, "b": True, "v": [x, 1e-300],
                     "m": [[0.0, 1.0], [2.0, 3.0]], "t": [1.5, 2],
                     "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}
        cli.write_json(tmp_path / "a.json", as_numpy)
        cli.write_json(tmp_path / "b.json", as_python)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli.write_json(tmp_path / "c.json", {"x": object()})

    def test_csv_cells_of_floats_and_numpy_floats_agree(self, tmp_path):
        x = 0.1 + 0.2
        values = [x, -0.0, 1e-300, float("nan"), float("inf"), -float("inf")]
        cli.write_csv(tmp_path / "a.csv", ["v"] * 6, [values])
        cli.write_csv(tmp_path / "b.csv", ["v"] * 6, [np.array(values)])
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        assert text.splitlines()[1] == "0.30000000000000004,-0.0,1e-300,nan,inf,-inf"
        cli.write_csv(tmp_path / "c.csv", ["a"] * 6,
                      [[None, True, np.bool_(False), 3, np.int64(-4), "x,y"]])
        assert (tmp_path / "c.csv").read_text().splitlines()[1] == ',true,false,3,-4,"x,y"'


class TestSweep:
    def test_empty_grid_header_only(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        out = cli.sweep(path, out_dir=tmp_path / "sw0")
        text = Path(out).read_text().splitlines()
        assert text == ["p,n,amplitude,lambda_p,lambda_fit,ratio,h2_ok,error"]

    def test_two_cell_sweep(self, tmp_path):
        cfg = BASE_CFG.replace("flow.horizon      = 9.0",
                               "flow.horizon      = 8.0") + "sweep.p = 2.0 1.5\n"
        path = write_cfg(tmp_path, cfg)
        out = cli.sweep(path, out_dir=tmp_path / "sw1", jobs=2)
        rows = Path(out).read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            assert cells[-1] == ""          # no error
            assert cells[6] == "true"       # h2_ok
            assert 0.9 < float(cells[5]) < 1.1   # fitted/target ratio
        verdict = json.loads(
            (tmp_path / "sw1" / "cell_p2_n129_a1" / "verdict.json").read_text())
        assert verdict["verdict"] == "PASS" and set(verdict) == VERDICT_KEYS

    def test_failed_cell_recorded(self, tmp_path):
        # 1000 times the amplitude leaves the positive cone: the cell fails
        # (a ConfigError only its run can find), the sweep does not
        path = write_cfg(tmp_path, BASE_CFG + "sweep.amplitude = 1000.0\n")
        out = cli.sweep(path, out_dir=tmp_path / "sw2")
        rows = Path(out).read_text().splitlines()[1:]
        assert len(rows) == 1
        assert "ConfigError" in rows[0] and "not positive" in rows[0]

    @pytest.mark.parametrize("extra, named", [
        ("sweep.p = 2.0 0.5\n", "sweep.p"),
        ("domain.geometry = ball\ndomain.dimension = 3\nsweep.p = 6.0\n",
         "supercritical"),
        ("sweep.nodes = 129 16\n", "sweep.nodes"),   # 8 modes need 32 nodes
        ("sweep.p = 2.0 1" + "0" * 400 + "\n", "sweep.p"),   # beyond a float
        ("sweep.amplitude = 0.1 inf\n", "sweep.amplitude"),
        # cell directories print p with :g, so these two p share one
        ("sweep.p = 2.0 2.0000001\nsweep.amplitude = 0.5 2.0\n", "sweep.p"),
        ("sweep.nodes = 129 129\n", "sweep.nodes"),
        # sweep.amplitude scales initial.modes: elsewhere every cell is one run
        ("initial.kind = stationary\nsweep.amplitude = 0.5 2.0\n",
         "sweep.amplitude"),
    ], ids=["p-below-1", "supercritical-ball", "nodes-below-4-modes",
            "p-beyond-float", "amplitude-not-finite", "p-cells-share-a-name",
            "nodes-cells-share-a-name", "amplitude-without-modes"])
    def test_bad_axis_value_exit_2(self, tmp_path, capsys, extra, named):
        cfg = BASE_CFG
        for line in extra.splitlines():
            key, _, value = line.partition("=")
            cfg = set_key(cfg, key.strip(), value.strip())
        path, out = write_cfg(tmp_path, cfg), tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_bug_in_a_cell_propagates(self, tmp_path, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise TypeError("a bug")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        path = write_cfg(tmp_path, BASE_CFG + "sweep.p = 2.0\n")
        with pytest.raises(TypeError, match="a bug"):
            cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")])

    @pytest.mark.parametrize("jobs, sweep_p, workers", [
        (64, "2.0 1.5", 2),      # never more workers than cells
        (2, "2.0 1.5 3.0", 2),
        (8, "2.0", None),        # one cell runs in this process
        (1, "2.0 1.5", None),
    ])
    def test_pool_sized_by_cells(self, tmp_path, monkeypatch, jobs, sweep_p,
                                 workers):
        started = []

        class SerialPool:       # records its size, starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_sweep_cell",
                            lambda args: [3.0, 3.0, 1.0, True, ""])
        path = write_cfg(tmp_path, BASE_CFG + f"sweep.p = {sweep_p}\n")
        out = cli.sweep(path, out_dir=tmp_path / "sw", jobs=jobs)
        assert len(Path(out).read_text().splitlines()) == 1 + len(sweep_p.split())
        assert started == ([] if workers is None else [workers])

    def test_jobs_below_one_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG + "sweep.p = 2.0\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                         "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


class TestMain:
    def test_help_and_subcommands_exist(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("stationary", "spectrum", "linear-evolve", "evolve",
                     "rates", "sweep"):
            assert name in out

    def test_python_m_fdelab_runs_the_cli(self, tmp_path):
        # python -m fdelab from a checkout: the package's src/ on PYTHONPATH
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])

        def run(*args):
            return subprocess.run([sys.executable, "-m", "fdelab", *args],
                                  env=env, capture_output=True, text=True,
                                  timeout=60)

        shown = run("--help")
        assert shown.returncode == 0 and "rates" in shown.stdout
        path = write_cfg(tmp_path, "domain.nodes = 129\n")  # missing exponents
        bad = run("stationary", "--config", str(path))
        assert bad.returncode == 2 and "config error" in bad.stderr

    @pytest.mark.parametrize("command", ["stationary", "spectrum",
                                         "linear-evolve", "evolve", "rates"])
    def test_jobs_is_sweep_only(self, tmp_path, command, capsys):
        path = write_cfg(tmp_path, BASE_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(path), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_import_loads_only_scipy_linalg(self):
        # the oracle's quad/brentq and the delay ODE's spline load lazily
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, fdelab.cli; print(sorted({m.split('.')[1] "
                "for m in sys.modules if m.startswith('scipy.')}))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60).stdout
        for sub in ("integrate", "optimize", "interpolate", "sparse"):
            assert f"'{sub}'" not in out
        assert "'linalg'" in out

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "domain.nodes = 129\n")  # missing exponents
        assert cli.main(["stationary", "--config", str(path)]) == 2

    def test_success_exit_0(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        code = cli.main(["stationary", "--config", str(path),
                         "--out", str(tmp_path / "m0")])
        assert code == 0

    def test_verdict_fail_exit_4(self, tmp_path):
        cfg = BASE_CFG + "rates.tol = 1e-9\n"   # unreachable tolerance
        path = write_cfg(tmp_path, cfg)
        code = cli.main(["rates", "--config", str(path),
                         "--out", str(tmp_path / "m1")])
        assert code == 4

    @pytest.mark.parametrize("keys, named", BAD_INPUTS,
                             ids=[" ".join(f"{k}={v}" for k, v in keys.items())
                                  for keys, _ in BAD_INPUTS])
    def test_bad_input_exit_2(self, tmp_path, capsys, keys, named):
        (tmp_path / "text.csv").write_text("x,v\n0.5,abc\n")
        (tmp_path / "negative.csv").write_text("x,v\n" + "0.5,-1.0\n" * 129)
        cfg = BASE_CFG
        for key, value in keys.items():
            cfg = set_key(cfg, key, value.format(tmp=tmp_path))
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["evolve", "--config", str(path),
                         "--out", str(tmp_path / "m5")]) == 2
        assert named in capsys.readouterr().err
        assert not list((tmp_path / "m5").glob("*"))   # nothing written

    def test_linear_step_at_half_T_exit_2(self, tmp_path, capsys):
        # T = 2: march never steps beyond min(flow.dt, sampler.cadence) = 1.5,
        # but that is past T/2, where the linear step refuses to go
        cfg = set_key(set_key(BASE_CFG, "flow.dt", "1.5"), "sampler.cadence", "1.5")
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["linear-evolve", "--config", str(path),
                         "--out", str(tmp_path / "m7")]) == 2
        assert "flow.dt" in capsys.readouterr().err
        assert not list((tmp_path / "m7").glob("*"))   # nothing written
        # a step below T/2 runs
        cfg = set_key(set_key(BASE_CFG, "flow.dt", "1.5"), "sampler.cadence", "0.9")
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["linear-evolve", "--config", str(path),
                         "--out", str(tmp_path / "m8")]) == 0

    def test_clock_matched_step_at_T_exit_2(self, tmp_path, capsys):
        # the rates stage is refused like evolve (BAD_INPUTS); an uncalibrated
        # run has no unstable-mode factor and steps at T
        cfg = set_key(set_key(BASE_CFG, "flow.dt", "2.0"), "sampler.cadence", "2.0")
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["rates", "--config", str(path),
                         "--out", str(tmp_path / "m9")]) == 2
        assert "flow.dt" in capsys.readouterr().err
        assert not list((tmp_path / "m9").glob("*"))   # nothing written
        path = write_cfg(tmp_path, set_key(cfg, "initial.match_clock", "false"))
        assert cli.main(["evolve", "--config", str(path),
                         "--out", str(tmp_path / "m10")]) == 0

    def test_bug_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        def prepare(*args, **kwargs):
            raise ValueError("a programming error")

        monkeypatch.setattr(cli, "prepare", prepare)
        path = write_cfg(tmp_path, BASE_CFG)
        with pytest.raises(ValueError, match="a programming error"):
            cli.main(["stationary", "--config", str(path),
                      "--out", str(tmp_path / "m6")])

    def test_numerical_failure_exit_3(self, tmp_path):
        # one computed mode cannot reach past c p
        cfg = BASE_CFG + "spectrum.modes = 1\n"
        path = write_cfg(tmp_path, cfg)
        code = cli.main(["spectrum", "--config", str(path),
                         "--out", str(tmp_path / "m2")])
        assert code == 3

    def test_scaled_stationary_datum_is_matched_at_once(self, tmp_path):
        # 100 V lies on V's ray: the first sigma is 0.01, and every later
        # one is 1 to rounding (the shooting could not bracket this scale)
        cfg = set_key(set_key(BASE_CFG, "initial.kind", "scaled_stationary"),
                      "initial.factor", "100.0")
        path, out = write_cfg(tmp_path, cfg), tmp_path / "m7"
        assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "trajectory.json").read_text())
        assert meta["clock_scale"] == pytest.approx(0.01, rel=1e-12)
        assert meta["clock_max_shift"] <= 1e-12
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[3]) <= 1e-20 for r in rows)   # E_nl

    def test_nonpositive_perturbed_datum_is_config_error(self, tmp_path, capsys):
        cfg = BASE_CFG.replace("initial.modes     = 2:1:0.1",
                               "initial.modes     = 2:1:50.0")
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["evolve", "--config", str(path),
                         "--out", str(tmp_path / "m4")]) == 2
        assert "initial.modes" in capsys.readouterr().err

    def test_supercritical_ball_is_config_error(self, tmp_path):
        cfg = BASE_CFG.replace("domain.geometry   = interval",
                               "domain.geometry   = ball")
        cfg = cfg.replace("exponents.p       = 2.0", "exponents.p       = 6.0")
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["stationary", "--config", str(path),
                         "--out", str(tmp_path / "m3")]) == 2
