"""One cold run of a workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json        (one workload run)
       python3 bench/child.py --setup-only      (time the import and exit)

SPEC names the workload, seed, output directory and whether to trace. The
run imports ``logdrift.cli`` (timed as setup), drives each scenario through
``logdrift.cli.main``, runs the workload's log-Jensen draws, and writes
``result.json`` (and ``spans.json`` when traced) into the output directory.
"""

from time import perf_counter

_t0 = perf_counter()
import logdrift.cli  # noqa: E402  (the import is the timed setup)
SETUP_S = perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _run_scenarios(spec: dict, out: Path, tracer) -> list:
    results = []
    for name in spec["scenarios"]:
        dest = out / name
        dest.mkdir(parents=True)
        argv = ["--scenario", name, "--seed", str(spec["seed"]),
                "--threads", str(spec["threads"]), "--output-dir", str(dest)]
        if spec.get("config_file"):
            argv += ["--config", spec["config_file"]]
        if tracer is not None:
            tracer.scenario = name
        with open(dest / "stdout.txt", "w") as log, \
                contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            t0 = perf_counter()
            rc = logdrift.cli.main(argv)
            t1 = perf_counter()
        results.append({"name": name, "rc": rc, "t0": t0, "t1": t1})
    return results


def _run_log_jensen(spec: dict, tracer) -> dict:
    from logdrift import Field, log_jensen_bound_check
    from workloads import log_jensen_draws
    draws = log_jensen_draws(spec["seed"], spec["log_jensen_draws"])
    if tracer is not None:
        tracer.scenario = "log-jensen"
    digest = hashlib.sha256()
    failed = 0
    t0 = perf_counter()
    for dt, n, amp, field_seed in draws:
        lhs, rhs = log_jensen_bound_check(dt, Field.random_l2(n, amp,
                                                              field_seed))
        failed += lhs > rhs
        digest.update(f"{lhs!r},{rhs!r}\n".encode())
    t1 = perf_counter()
    return {"name": "log-jensen", "attempted": len(draws), "failed": failed,
            "digest": digest.hexdigest(), "t0": t0, "t1": t1}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    scenarios = _run_scenarios(spec, out, tracer)
    draws = None
    if spec["log_jensen_draws"]:
        draws = _run_log_jensen(spec, tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(out / "spans.json")
    end = (draws or scenarios[-1])["t1"]
    result = {
        "setup_t0": _t0,
        "setup_s": SETUP_S,
        "wall_s": end - scenarios[0]["t0"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "scenarios": scenarios,
        "log_jensen": draws,
    }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"setup_t0": _t0, "setup_s": SETUP_S}))
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
