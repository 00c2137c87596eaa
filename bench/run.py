"""logdrift benchmark: cold-process runs of one workload.

Usage (from the repository root):

    python3 bench/run.py --workload mc-ensemble --seed 1 --seconds 20 --trace 0

A run starts the workload in fresh interpreters (``child.py``), at least
three times and then for as long as the next one still fits in ``--seconds``.
Every child is a cold process, as every CLI invocation is, with BLAS pinned
to one thread and pinned, with the runner, to one CPU. Set-up is the time to
``import logdrift.cli`` in a fresh interpreter: each child measures it, and
import-only interpreters top the samples up to ``SETUP_SAMPLES``. A thread
on the same CPU times a reference kernel while the children run
(``speed.py``); ``wall_norm_s`` and ``setup_s`` are scaled to the kernel's
reference speed. ``--trace 1`` adds one traced child and
reports per-layer metrics instead of end-to-end ones. The last line of
standard output is the result as one JSON object.

Correctness gate: every scenario must exit 0, every log-Jensen draw must
have lhs <= rhs, and every CSV (and the draws' results) must hash the same in
every child of the run, traced or not, and as in the first run of this
workload and seed in this checkout (kept under .bench_work/reference).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from layers import (  # noqa: E402
    UNITS as LAYER_UNITS, accounted_s, layer_metrics)
from speed import SpeedProbe, normalize, pin_to_one_cpu  # noqa: E402
from workloads import VERDICT_SCENARIOS, WORKLOADS  # noqa: E402

MIN_CHILDREN = 3
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = dict(LAYER_UNITS, **{
    "wall_s": "s",
    "setup_raw_s": "s",
    "host.kernel_ms": "ms",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
    "failed_frac": "ratio",
}, **{f"verdict_s.{name}": "s" for name in VERDICT_SCENARIOS})


class BenchError(RuntimeError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "logdrift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(root: Path, src: Path, seed: int, env: dict) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: env.get(k) for k in sorted(THREAD_ENV)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
    }


def _child(argv: list, env: dict) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")] + argv,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc


def setup_probe(env: dict) -> dict:
    proc = _child(["--setup-only"], env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalize_setup(sample: dict, probe: SpeedProbe) -> float:
    t0 = sample["setup_t0"]
    return normalize(sample["setup_s"],
                     probe.kernel_s(t0, t0 + sample["setup_s"]))


def run_child(work: Path, index: int, spec: dict, trace: bool,
              env: dict, probe: SpeedProbe) -> dict:
    out = work / f"child-{index}"
    out.mkdir()
    spec = dict(spec, out=str(out), trace=trace)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    _child([str(spec_path)], env)
    result = json.loads((out / "result.json").read_text())
    result["csv"] = {str(p.relative_to(out)): _sha256(p)
                     for p in sorted(out.rglob("*.csv"))}
    result["csv_bytes"] = sum(p.stat().st_size for p in out.rglob("*.csv"))
    result["trace"] = trace
    result["out"] = out
    end = (result["log_jensen"] or result["scenarios"][-1])["t1"]
    result["kernel_s"] = probe.kernel_s(result["scenarios"][0]["t0"], end)
    result["wall_norm_s"] = normalize(result["wall_s"], result["kernel_s"])
    return result


def digests(child: dict) -> dict:
    d = dict(child["csv"])
    if child["log_jensen"] is not None:
        d["log-jensen"] = child["log_jensen"]["digest"]
    return d


def gate(children: list, reference: dict) -> tuple:
    """(attempted, failed) over every scenario verdict and log-Jensen draw
    of every child. A scenario fails on a non-zero exit or when one of its
    CSVs is missing or hashes differently from the reference."""
    attempted = failed = 0
    for child in children:
        got = digests(child)
        bad = {k for k in set(got) | set(reference)
               if got.get(k) != reference.get(k)}
        for sc in child["scenarios"]:
            attempted += 1
            failed += sc["rc"] != 0 or any(
                k.startswith(sc["name"] + "/") for k in bad)
        lj = child["log_jensen"]
        if lj is not None:
            attempted += lj["attempted"]
            failed += (lj["attempted"] if "log-jensen" in bad
                       else lj["failed"])
    return attempted, failed


def verdict_times(child: dict) -> dict:
    times = {sc["name"]: sc["t1"] - sc["t0"] for sc in child["scenarios"]}
    if child["log_jensen"] is not None:
        lj = child["log_jensen"]
        times["log-jensen"] = lj["t1"] - lj["t0"]
    return times


def end_to_end_metrics(setups: list, runs: list, probe: SpeedProbe) -> dict:
    return {
        "setup_s": median(normalize_setup(s, probe) for s in setups),
        "wall_norm_s": median(c["wall_norm_s"] for c in runs),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in runs),
    }


def trace_metrics(setups: list, runs: list, traced: dict, attempted: int,
                  failed: int) -> dict:
    spans = json.loads((traced["out"] / "spans.json").read_text())
    m = layer_metrics(spans, traced["wall_s"])
    m["wall_s"] = median(c["wall_s"] for c in runs)
    m["setup_raw_s"] = median(s["setup_s"] for s in setups)
    m["host.kernel_ms"] = 1e3 * median(c["kernel_s"] for c in runs)
    m["cli.csv_bytes"] = traced["csv_bytes"]
    m["trace.overhead_s"] = traced["wall_s"] - median(
        c["wall_s"] for c in runs)
    m["trace.accounted_ratio"] = accounted_s(m) / traced["wall_s"]
    m["failed_frac"] = failed / attempted
    times = [verdict_times(c) for c in runs]
    for name in VERDICT_SCENARIOS:
        present = [t[name] for t in times if name in t]
        m[f"verdict_s.{name}"] = median(present) if present else 0.0
    return m


def _reference(root: Path, definition: dict, first: dict) -> dict:
    """Digests of the first run of this workload definition and seed in
    the checkout."""
    key = hashlib.sha256(json.dumps(definition, sort_keys=True).encode())
    path = root / ".bench_work" / "reference" / f"{key.hexdigest()[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    ref = digests(first)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True))
    return ref


def run(args, root: Path, src: Path) -> dict:
    wl = WORKLOADS[args.workload]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    info = manifest(root, src, args.seed, env)
    info["pinned_cpu"] = pin_to_one_cpu()
    print("manifest " + json.dumps(info, sort_keys=True))

    work = root / ".bench_work" / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    probe = SpeedProbe()
    probe.start()
    try:
        spec = {"scenarios": wl["scenarios"], "seed": args.seed,
                "threads": wl["threads"],
                "log_jensen_draws": wl["log_jensen_draws"]}
        if wl["config"]:
            cfg = work / "workload.cfg"
            cfg.write_text("".join(f"{k} = {v}\n"
                                   for k, v in wl["config"].items()))
            spec["config_file"] = str(cfg)

        runs = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            runs.append(run_child(work, len(runs), spec, False, env, probe))
            last = time.monotonic() - t0
            if len(runs) >= MIN_CHILDREN and \
                    time.monotonic() - start + last > args.seconds:
                break
        setups = list(runs)
        setups += [setup_probe(env)
                   for _ in range(SETUP_SAMPLES - len(setups))]
        children = list(runs)
        traced = None
        if args.trace:
            traced = run_child(work, len(runs), spec, True, env, probe)
            children.append(traced)

        reference = _reference(
            root, dict(wl, workload=args.workload, seed=args.seed), runs[0])
        attempted, failed = gate(children, reference)

        for c in children:
            times = " ".join(f"{k}={v:.3f}"
                             for k, v in verdict_times(c).items())
            print(f"child{' traced' if c['trace'] else ''}: "
                  f"setup_s={c['setup_s']:.3f} wall_s={c['wall_s']:.3f} "
                  f"kernel_ms={1e3 * c['kernel_s']:.4f} "
                  f"wall_norm_s={c['wall_norm_s']:.3f} "
                  f"peak_rss_mb={c['peak_rss_mb']:.1f} {times}")
        print("setup samples (raw/normalized): " + " ".join(
            f"{s['setup_s']:.3f}/{normalize_setup(s, probe):.3f}"
            for s in setups))
        print(f"failed/attempted = {failed}/{attempted} "
              f"(failed_frac = {failed / attempted:.6g})")

        if args.trace:
            values = trace_metrics(setups, runs, traced, attempted, failed)
            units = TRACE_UNITS
        else:
            values = end_to_end_metrics(setups, runs, probe)
            units = END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "logdrift" / "cli.py").is_file():
        print(f"no logdrift sources under {src}; run from the repository "
              "root", file=sys.stderr)
        return 2
    try:
        result = run(args, root, src)
    except RuntimeError as e:  # BenchError, or no speed sample
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
