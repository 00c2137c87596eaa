"""The benchmark's tracer must see every layer call and change no output."""

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import logdrift  # noqa: E402
from logdrift import cli  # noqa: E402
from layers import accounted_s, layer_metrics  # noqa: E402
from tracer import LAYERS, Tracer, public_functions  # noqa: E402

ENSEMBLE = 30


def _layer_functions():
    return {id(fn): fn for layer in LAYERS
            for fn in public_functions(getattr(logdrift, layer)).values()}


def _run_moments(tmp: Path, name: str) -> tuple:
    cfg = tmp / "small.cfg"
    cfg.write_text(f"grid.n_modes = 8\ngrid.n_steps = 16\n"
                   f"ensemble = {ENSEMBLE}\n")
    out = tmp / name
    t0 = perf_counter()
    rc = cli.main(["--scenario", "moments", "--config", str(cfg),
                   "--seed", "5", "--threads", "2", "--output-dir", str(out)])
    wall = perf_counter() - t0
    assert rc in (0, 1)
    return wall, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def test_traced_noise_calls_match_config_and_csvs_unchanged(tmp_path):
    _, plain = _run_moments(tmp_path, "plain")
    originals = _layer_functions()
    tracer = Tracer()
    tracer.install()
    try:
        # no layer function may stay reachable under its original object
        for modname, module in sys.modules.items():
            if modname == "logdrift" or modname.startswith("logdrift."):
                escaped = [name for name, v in vars(module).items()
                           if id(v) in originals and originals[id(v)] is v]
                assert not escaped, f"{modname} still binds {escaped}"
        tracer.scenario = "moments"
        wall, traced = _run_moments(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain

    # one ensemble each for the full-horizon report, the restart windows,
    # the scaling base and each scaling factor other than 1, the epsilon
    # split, and every mollification level
    lambdas = [float(x) for x in cli.BASE_DEFAULTS["lambdas"].split(",")]
    levels = cli.BASE_DEFAULTS["levels"].split(",")
    per_path = 1 + 1 + 1 + sum(lam != 1.0 for lam in lambdas) + 1 \
        + len(levels)
    assert per_path == 12
    m = layer_metrics(tracer.spans, wall)
    assert m["noise.calls"] == per_path * ENSEMBLE
    # n_steps and the restart run's doubled horizon
    assert m["noise.distinct_realizations"] == 2 * ENSEMBLE
    assert m["moments.paths_requested"] == m["noise.calls"]
    assert m["moments.reports"] == 5
    # two worker threads overlap, so busy time can exceed the wall time
    assert accounted_s(m) >= wall * (1 - 1e-9)


def test_uninstall_restores_every_binding():
    before = {name: getattr(cli, name) for name in ("sample_noise",
                                                    "mc_sup_moment")}
    tracer = Tracer()
    assert tracer.install() > len(_layer_functions())
    assert cli.sample_noise is not before["sample_noise"]
    tracer.uninstall()
    assert {name: getattr(cli, name) for name in before} == before
