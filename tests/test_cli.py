import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from logdrift import cli, coefficients
from logdrift.cli import (
    ConfigError,
    list_scenarios,
    parse_config_file,
    parse_u0,
    resolve_config,
    write_csv,
)
from logdrift.coefficients import MAX_MOLLIFIER_LEVEL


class _Args:
    scenario = None
    config = None
    seed = None
    output_dir = None
    threads = None

    def __init__(self, **kv):
        for k, v in kv.items():
            setattr(self, k, v)


def test_listing_is_sorted_and_annotated(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    names = [line.split(":")[0] for line in out.splitlines()
             if line and not line.startswith(" ")]
    assert len(names) == 8
    assert names == sorted(names)
    assert out.count("claim:") == 8
    assert list_scenarios() in out


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n_mode=64\n")
    assert cli.main(["--scenario", "isometry", "--config", str(bad),
                     "--output-dir", str(tmp_path / "out")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_unknown_scenario_exits_2(tmp_path, capsys):
    assert cli.main(["--scenario", "bogus",
                     "--output-dir", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\ngrid.n_modes = 32\ngrid.T=2.5\nu0=mode:1,3\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"grid.n_modes": 32, "grid.T": 2.5, "u0": "mode:1,3"}
    cfg.write_text("grid.n_modes=abc\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_u0_grammar():
    assert parse_u0("zero", 8).l2_norm() == 0.0
    m = parse_u0("mode:2,1.5", 8)
    assert m.coeffs[1] == 1.5 and m.l2_norm() == 1.5
    r = parse_u0("random:4,7", 8)
    assert r.l2_norm() == pytest.approx(4.0)
    for bad in ("gauss", "mode:1", "mode:a,b", "random:1"):
        with pytest.raises(ConfigError):
            parse_u0(bad, 8)


def test_seed_precedence(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("master_seed=11\n")
    # default
    cfg = resolve_config(_Args(scenario="isometry"), {})
    assert cfg["master_seed"] == 0
    # env beats default
    cfg = resolve_config(_Args(scenario="isometry"), {"LOGDRIFT_SEED": "777"})
    assert cfg["master_seed"] == 777
    # file beats env
    cfg = resolve_config(_Args(scenario="isometry", config=str(cfgfile)),
                         {"LOGDRIFT_SEED": "777"})
    assert cfg["master_seed"] == 11
    # flag beats file
    cfg = resolve_config(_Args(scenario="isometry", config=str(cfgfile),
                               seed=42), {"LOGDRIFT_SEED": "777"})
    assert cfg["master_seed"] == 42


def test_scenario_from_file_and_flag_priority(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("scenario=factorization\n")
    cfg = resolve_config(_Args(config=str(cfgfile)), {})
    assert cfg["scenario"] == "factorization"
    cfg = resolve_config(_Args(scenario="isometry", config=str(cfgfile)), {})
    assert cfg["scenario"] == "isometry"


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config(_Args(scenario="isometry", threads=0), {})
    bad = tmp_path / "b.cfg"
    bad.write_text("u0=gauss:1\n")
    with pytest.raises(ConfigError):
        resolve_config(_Args(scenario="isometry", config=str(bad)), {})
    bad.write_text("drift.family=cubic\n")
    with pytest.raises(ConfigError):
        resolve_config(_Args(scenario="isometry", config=str(bad)), {})
    with pytest.raises(ConfigError):
        resolve_config(_Args(scenario="isometry"), {"LOGDRIFT_SEED": "x"})


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(1, 1.0 / 3.0, True),
                                      (2, float("nan"), False)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.33333333333333331,true"
    assert lines[2] == "2,nan,false"
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [("x,y",)])


def test_isometry_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "iso"
    code = cli.main(["--scenario", "isometry", "--output-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "scenario=isometry" in stdout
    assert stdout.strip().endswith("isometry: PASS")
    assert (out / "isometry.csv").exists()
    assert (out / "summary.txt").read_text().strip().endswith("status=PASS")
    resolved = (out / "resolved-config.txt").read_text()
    assert "master_seed=0" in resolved and "grid.n_modes=16" in resolved


def test_env_seed_used_by_main(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOGDRIFT_SEED", "90210")
    out = tmp_path / "iso"
    assert cli.main(["--scenario", "isometry",
                     "--output-dir", str(out)]) == 0
    assert "master_seed=90210" in (out / "resolved-config.txt").read_text()


@pytest.mark.parametrize("scenario,flags,env", [
    ("isometry", ["--seed", "-1"], {}),
    ("factorization", [], {"LOGDRIFT_SEED": "-1"})], ids=["flag", "env"])
def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys, scenario,
                               flags, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "run"
    assert cli.main(["--scenario", scenario, *flags,
                     "--output-dir", str(out)]) == 2
    assert "master_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_contract_failure_exits_1_and_names_assertion(tmp_path, capsys):
    # a critical drift from moderate data never reaches the threshold, so
    # the blow-up scenario's contract must fail honestly
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("drift.family=log_linear\nu0=mode:1,2\n"
                       "ensemble=40\ngrid.n_steps=256\n")
    out = tmp_path / "run"
    code = cli.main(["--scenario", "blowup-phase", "--config", str(cfgfile),
                     "--output-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "blow-up phase" in err
    assert "FAIL blow-up phase" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("scenario,lines,code,message", [
    ("moments", ["ensemble=10"], 2, "ensemble >= 30"),
    ("moments", ["p=0.5"], 2, "p >= 1.0"),
    ("blowup-phase", ["ensemble=10"], 2, "ensemble >= 30"),
    ("factorization", ["alpha=0.3"], 2, "0 < alpha < 0.25"),
    ("uniqueness", ["levels=8,4"], 2, "strictly increasing"),
    ("uniqueness", ["levels=0,4"], 2, "levels must be >= 1"),
    # no noise and zero data: the mollified odd drift is exactly 0 at 0, so
    # every level estimates exactly 0 and the level spread is 1
    ("moments", ["diffusion.family=none", "u0=zero", "ensemble=30",
                 "grid.n_modes=8", "grid.n_steps=16", "levels=4,8"], 0,
     "status=PASS"),
    # in-report RuntimeErrors end in a named FAIL, not a traceback
    ("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                 "lambdas=1e9"], 1,
     "FAIL moment reports: a pure-convolution path breached the blow-up "
     "threshold"),
    ("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                 "threshold=1e-3"], 1,
     "FAIL moment reports: mollified level n=4 produced blow-ups"),
    # non-finite initial data, a single level and a NaN threshold are
    # config errors, not tracebacks or a switched-off blow-up rule
    ("blowup-phase", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                      "u0=mode:1,nan"], 2, "amplitude must be finite"),
    ("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                 "u0=random:nan,1"], 2, "norm must be finite"),
    ("uniqueness", ["levels=4"], 2, "at least two levels"),
    ("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                 "threshold=nan"], 2, "expects a number, got 'nan'"),
    # a non-positive threshold makes every path "blow up" at step 1, and an
    # infinite diffusion bound turns the hypothesis constants into NaN
    ("blowup-phase", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                      "threshold=-1"], 2, "threshold must be > 0"),
    ("blowup-phase", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                      "threshold=0"], 2, "threshold must be > 0"),
    ("hypothesis-check", ["diffusion.d1=inf"], 2,
     "d1, d2 must be finite and nonnegative"),
    # a non-positive entry would raise inside a report, an infinite epsilon
    # would pass vacuously, and a NaN one would fail a check
] + [("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                  f"{key}={value}"], 2, f"{key} entries must be finite and > 0")
     for key, value in [("lambdas", "-1"), ("lambdas", "0"), ("lambdas", "nan"),
                        ("lambdas", "inf"), ("epsilons", "-0.5"),
                        ("epsilons", "0"), ("epsilons", "nan"),
                        ("epsilons", "inf")]]
    # a negative seed is a config error in every scenario, not a traceback
    # from the noise layer
    + [(scenario, ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                   "master_seed=-1"], 2, "master_seed must be >= 0")
       for scenario in sorted(cli.SCENARIOS)]
    # the moments scenario mollifies the drift, so it needs one
    + [("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                    "drift.family=none"], 2,
        "the moments scenario needs a drift family")]
    # a drift that overflows on the pair sample is a named log-Lipschitz
    # failure, not a traceback from the linear program
    + [("hypothesis-check", lines, 1,
        "FAIL drift log-Lipschitz hypothesis: log-Lipschitz check: a sampled "
        "drift difference is not finite")
       for lines in (["drift.family=polynomial", "drift.degree=400"],
                     ["drift.scale=1e308"],
                     ["drift.family=log_power", "drift.exponent=300"])]
    # an infinite exponent overflowed every path to NaN, which passed
    + [("blowup-phase", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                         "drift.exponent=inf"], 2,
        "log_power exponent must be finite and >= 1")]
    # a mollified table that leaves the float range is a named failure, not
    # an interpolation traceback
    + [(scenario, ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30"]
        + drift, 1,
        f"FAIL {check}: mollified drift at level n=4 is not finite on its "
        "lookup grid")
       for scenario, check in (("moments", "moment reports"),
                               ("uniqueness", "uniqueness experiment"))
       for drift in (["drift.scale=1e308"],
                     ["drift.family=polynomial", "drift.degree=400"])]
    # an infinite p sends every norm below 1 to 0, a vacuous pass
    + [(scenario, ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                   "p=inf"], 2, "a finite p >= 1.0")
       for scenario in ("moments", "blowup-phase")]
    # one path always missed the 3-SE rule, an exit 1 for any noise
    + [("isometry", ["ensemble=1"], 2, "ensemble >= 30")]
    # a level table grows linearly in the level, so a large level ran out of
    # memory instead of exiting
    + [(scenario, ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                   f"levels=4,{MAX_MOLLIFIER_LEVEL + 1}"], 2,
        f"levels must be >= 1 and <= {MAX_MOLLIFIER_LEVEL}")
       for scenario in ("moments", "uniqueness")]
    # a negative norm ran on the field of norm |norm| with its sign flipped,
    # while resolved-config.txt recorded the negative norm
    + [("blowup-phase", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30",
                         "u0=random:-5,9"], 2,
        "norm must be finite and nonnegative")]
    # the fourth powers overflowed to an OverflowError traceback, and an
    # infinite standard error would pass the 3-SE rule vacuously
    + [("isometry", ["grid.T=1e300", "ensemble=30"], 1,
        "FAIL isometry: a second-moment estimate or its standard error is "
        "not finite")]
    # a threshold below the data's norm 50 made every path breach at step 1,
    # a blow-up fraction of 1 with the noise on or off
    + [("blowup-phase", ["threshold=49"] + noise, 2,
        "threshold must be > 0 and > u0's L2 norm 50")
       for noise in ([], ["diffusion.d1=0", "diffusion.d2=0"])]
    # the scaling report's ratios divided by a moment, a power lam^p or a
    # time integral that underflows to 0, or raised an OverflowError: a
    # traceback with no summary.txt
    + [("moments", ["grid.n_modes=8", "grid.n_steps=16", "ensemble=30"]
        + lines, 1, f"FAIL moment reports: {message}")
       for lines, message in (
           (["lambdas=1e-300"], "lam^p or int_0^T ||lam||^p dt at "
            "lam = 1e-300 is 0 or overflows"),
           (["grid.T=1e-300"], "the pure-convolution moment at lam = 1 "
            "is 0"),
           (["lambdas=1e35", "grid.T=1e-60"], "lam^p or int_0^T ||lam||^p dt "
            "at lam = 1e+35 is 0 or overflows"))])
# the configs are built to overflow, underflow or divide on the way to
# their named failures
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scenario_limits_hold_for_accepted_configs(tmp_path, capsys, scenario,
                                                   lines, code, message):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert cli.main(["--scenario", scenario, "--config", str(cfgfile),
                     "--output-dir", str(out)]) == code
    if code == 2:
        assert message in capsys.readouterr().err
        assert not out.exists()
    else:
        assert message in (out / "summary.txt").read_text()


@pytest.mark.parametrize("key", [
    "tol.kernel_rel", "tol.slope_lo", "tol.slope_hi", "tol.shape_spread",
    "tol.uniqueness_final", "tol.scaling_rel", "tol.scaling_spread",
    "tol.uniformity_spread", "tol.oracle_stability"])
def test_tolerances_are_not_config_keys(tmp_path, capsys, key):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"{key}=1.0\n")
    out = tmp_path / "run"
    assert cli.main(["--scenario", "kernel-estimates", "--config",
                     str(cfgfile), "--output-dir", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["moments", "uniqueness"])
def test_a_level_sweep_too_large_to_hold_exits_before_a_table(
        tmp_path, capsys, monkeypatch, scenario):
    # every level of 1, 2, ..., 1024 is accepted alone, but their tables
    # together would need about 6.7 GB
    def build(*args):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(coefficients.MollifiedDrift, "__init__", build)
    cfgfile = tmp_path / "c.cfg"
    levels = ",".join(str(n) for n in range(1, MAX_MOLLIFIER_LEVEL + 1))
    cfgfile.write_text(f"levels={levels}\n")
    out = tmp_path / "run"
    assert cli.main(["--scenario", scenario, "--config", str(cfgfile),
                     "--output-dir", str(out)]) == 2
    assert (f"levels must sum to at most {2 * MAX_MOLLIFIER_LEVEL}"
            in capsys.readouterr().err)
    assert not out.exists()


_EDGE_FLOATS = ("nan", "inf", "-inf", "-1.0", "0.0")
_EDGE_VALUES = {
    "grid.T": _EDGE_FLOATS,
    "threshold": _EDGE_FLOATS + ("1e-3",),
    "p": _EDGE_FLOATS + ("0.5",),
    "alpha": _EDGE_FLOATS + ("0.3",),
    "drift.scale": _EDGE_FLOATS,
    "drift.exponent": _EDGE_FLOATS,
    "diffusion.d1": _EDGE_FLOATS,
    "u0": ("mode:1,nan", "mode:1,inf", "mode:1,-3", "random:nan,1",
           "random:-1,3", "zero"),
    "levels": ("4", "8,4", "4,4", "0,4"),
    "ensemble": ("-1", "10"),
    "master_seed": ("-1", "0"),
    "drift.family": ("none", "log_linear"),
    "lambdas": _EDGE_FLOATS,
    "epsilons": _EDGE_FLOATS,
}


@st.composite
def _edge_configs(draw):
    scenario = draw(st.sampled_from(["moments", "blowup-phase", "uniqueness",
                                     "hypothesis-check", "factorization",
                                     "isometry"]))
    lines = [f"grid.n_modes={draw(st.sampled_from([4, 8]))}",
             f"grid.n_steps={draw(st.sampled_from([8, 16]))}",
             "ensemble=30"]
    edge = st.sampled_from(sorted(_EDGE_VALUES)).flatmap(
        lambda k: st.sampled_from(_EDGE_VALUES[k]).map(lambda v: f"{k}={v}"))
    lines += draw(st.lists(edge, max_size=2,
                           unique_by=lambda line: line.split("=")[0]))
    return scenario, lines


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_edge_configs())
def test_every_accepted_config_exits_0_1_or_2(case):
    # exit 1 names a failed check in summary.txt; exit 2 writes nothing
    scenario, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "c.cfg"
        cfgfile.write_text("\n".join(lines) + "\n")
        out = Path(tmp) / "run"
        code = cli.main(["--scenario", scenario, "--config", str(cfgfile),
                         "--output-dir", str(out)])
        assert code in (0, 1, 2)
        summary = out / "summary.txt"
        if code == 1:
            assert "\nFAIL " in summary.read_text()
        if code == 2:
            assert not summary.exists()


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_CONFIG_VALUES = {
    "grid.n_modes": _ints(4, 128),
    "grid.T": _floats(1e-3, 10.0),
    "grid.n_steps": _ints(1, 4096),
    "drift.family": st.sampled_from(["log_linear", "log_power", "linear",
                                     "polynomial", "none"]),
    "drift.scale": _floats(-1e3, 1e3),
    "drift.exponent": _floats(1.0, 5.0),
    "drift.degree": _ints(1, 5),
    "diffusion.family": st.sampled_from(["sublinear_power", "none"]),
    "diffusion.d1": _floats(0.0, 1e3),
    "diffusion.d2": _floats(0.0, 1e3),
    "diffusion.theta": _floats(0.0, 0.99),
    "u0": st.sampled_from(["zero", "mode:3,2.5", "random:1.5,7"]),
    "ensemble": _ints(30, 10 ** 6),
    "master_seed": _ints(0, 2 ** 64),
    "p": _floats(1.0, 10.0),
    "alpha": _floats(1e-3, 0.2),
    "levels": st.sampled_from(["4,8,16", "1,2", "64"]),
    "lambdas": st.sampled_from(["0.5,2,4", "3"]),
    "epsilons": st.sampled_from(["0.5,0.1,0.02", "0.25"]),
    "threshold": _floats(1e-6, math.inf),
    "output_dir": st.sampled_from(["runs", "out dir/a"]),
    "threads": _ints(1, 8),
}


@st.composite
def _drawn_configs(draw):
    lines = [f"scenario={draw(st.sampled_from(sorted(cli.SCENARIOS)))}"]
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)),
                         max_size=6, unique=True))
    lines += [f"{k}={draw(_CONFIG_VALUES[k])}" for k in keys]
    return lines


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_drawn_configs())
def test_resolved_config_round_trips_through_its_echo(lines):
    # resolved-config.txt, parsed as a config file, resolves to the same
    # values of the same types
    with tempfile.TemporaryDirectory() as tmp:
        drawn, echoed = Path(tmp) / "drawn.cfg", Path(tmp) / "echo.cfg"
        drawn.write_text("\n".join(lines) + "\n")
        try:
            first = resolve_config(_Args(config=str(drawn)), {})
        except ConfigError:
            assume(False)
        echoed.write_text(cli._echo(first) + "\n")
        second = resolve_config(_Args(config=str(echoed)), {})
    assert {k: (type(v), repr(v)) for k, v in second.items()} == \
        {k: (type(v), repr(v)) for k, v in first.items()}


def _python(code: str, *args: str) -> str:
    """The last line that a fresh interpreter running code prints."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_signal_interpolate_optimize_integrate_out():
    # the package never needs scipy.signal, scipy.interpolate or
    # scipy.optimize; scipy.integrate loads at its one call site, on first
    # use; the real FFTs are numpy's, whose pocketfft keeps no plan cache
    assert _python("import sys, logdrift.cli; print(sorted(m for m in ("
                   "'scipy.signal', 'scipy.interpolate', 'scipy.optimize', "
                   "'scipy.integrate', 'scipy.fft') if m in sys.modules))") \
        == "[]"


def test_hypothesis_check_leaves_scipy_optimize_out(tmp_path):
    # the log-Lipschitz constants come from a numpy simplex method, so the
    # scenario that fits them loads no solver library
    code = ("import sys; from logdrift import cli; "
            "code = cli.main(['--scenario', 'hypothesis-check', "
            "'--output-dir', sys.argv[1]]); "
            "print(code, 'scipy.optimize' in sys.modules)")
    assert _python(code, str(tmp_path / "run")) == "0 False"


def test_stalled_log_lipschitz_program_is_a_named_failure(tmp_path,
                                                          monkeypatch):
    # a simplex method out of pivots ends in a FAIL line, not an
    # iteration-limit error
    monkeypatch.setattr("logdrift.coefficients._MAX_PIVOTS", 3)
    out = tmp_path / "run"
    assert cli.main(["--scenario", "hypothesis-check",
                     "--output-dir", str(out)]) == 1
    assert ("FAIL drift log-Lipschitz hypothesis: log-Lipschitz check: the "
            "linear program did not converge in 3 pivots"
            in (out / "summary.txt").read_text())


def test_spread_of_equal_and_zero_estimates():
    assert cli._spread([0.0, 0.0, 0.0]) == 1.0
    assert cli._spread([2.0, 4.0]) == 2.0
    assert cli._spread([0.0, 1e-3]) == math.inf


def test_reruns_and_thread_counts_are_byte_identical(tmp_path):
    outs = []
    for name, threads in (("a", None), ("b", None), ("c", "3")):
        out = tmp_path / name
        argv = ["--scenario", "factorization", "--output-dir", str(out)]
        if threads:
            argv += ["--threads", threads]
        assert cli.main(argv) == 0
        outs.append(out)
    ref = (outs[0] / "factorization.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "factorization.csv").read_bytes() == ref
    ref_sum = (outs[0] / "summary.txt").read_bytes()
    assert (outs[2] / "summary.txt").read_bytes() == ref_sum
