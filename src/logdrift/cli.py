"""Batch front-end: scenario registry, flat key=value configuration,
deterministic execution, CSV artifacts.

Every run resolves one configuration (defaults, then the config file, then
flags; LOGDRIFT_SEED sits between defaults and the file), echoes it verbatim,
executes one scenario, and writes CSV tables plus a summary into the output
directory. The checks that reject a configuration are the ones that build
its grid, coefficients, initial field and lists, and the scenario runs on
what they built. Exit status 0 means every contract in the scenario held, 1
names the failed assertions, 2 means the configuration itself was rejected.
Floats are written with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .coefficients import (
    DiffusionSpec, DriftSpec, HypothesisViolation, growth_check,
    lipschitz_check, loglip_check, mollifier_levels, sublinear_check,
    uniform_growth_check,
)
from .fields import Field
from .gronwall import STABILITY_REFERENCE, check_domination, \
    make_problem_corpus, oracle_pair
from .heat_kernel import (
    kernel_images, kernel_series, spatial_modulus_estimate,
    time_increment_estimate,
)
from .moments import (
    MIN_ENSEMBLE, MIN_ORDER, convolution_scaling_report, epsilon_split_report,
    mc_sup_moment, mollified_uniformity_report, restart_window_report,
)
from .noise import ito_isometry_convergence_check, sample_noise
from .solver import (
    MAX_FACTORIZATION_ALPHA, Grid, coupled_uniqueness_experiment,
    factorization_check,
)

__all__ = ["main", "run", "list_scenarios", "ConfigError"]


class ConfigError(ValueError):
    pass


# defaults shared by all scenarios; scenario-specific overrides follow
BASE_DEFAULTS = {
    "scenario": "kernel-estimates",
    "grid.n_modes": 64,
    "grid.T": 1.0,
    "grid.n_steps": 256,
    "drift.family": "log_linear",
    "drift.scale": 1.0,
    "drift.exponent": 2.0,
    "drift.degree": 2,
    "diffusion.family": "sublinear_power",
    "diffusion.d1": 1.0,
    "diffusion.d2": 0.5,
    "diffusion.theta": 0.5,
    "u0": "zero",
    "ensemble": 200,
    "master_seed": 0,
    "p": 2.0,
    "alpha": 0.1,
    "levels": "4,8,16,32,64",
    "lambdas": "0.5,2,4",
    "epsilons": "0.5,0.1,0.02",
    "threshold": 1.0e8,
    "output_dir": "runs",
    "threads": 1,
}

# Scenario tolerances. They are part of each claim's definition, so no
# configuration moves them.
KERNEL_REL_TOL = 1.0e-10
SLOPE_LO = 0.4
SLOPE_HI = 0.6
SHAPE_SPREAD_TOL = 10.0
UNIQUENESS_FINAL_TOL = 1.0e-2
SCALING_REL_TOL = 1.0e-12
SCALING_SPREAD_TOL = 3.0
UNIFORMITY_SPREAD_TOL = 2.0
ORACLE_STABILITY_TOL = 1.0e-6

SCENARIO_DEFAULTS = {
    "kernel-estimates": {},
    "gronwall-suite": {"ensemble": 100},
    "hypothesis-check": {},
    "uniqueness": {"grid.n_modes": 32, "grid.n_steps": 2048,
                   "diffusion.family": "bounded", "diffusion.d1": 1.0,
                   "diffusion.d2": 0.0, "diffusion.theta": 0.0,
                   "u0": "random:5,9", "master_seed": 314},
    "blowup-phase": {"drift.family": "log_power", "grid.n_modes": 16,
                     "grid.T": 4.0, "grid.n_steps": 2048,
                     "diffusion.family": "bounded", "diffusion.d1": 0.0,
                     "diffusion.d2": 1.0, "diffusion.theta": 0.0,
                     "u0": "mode:1,50"},
    "moments": {"master_seed": 2024},
    "factorization": {"grid.n_modes": 32, "grid.n_steps": 128,
                      "master_seed": 909},
    "isometry": {"grid.n_modes": 16, "grid.n_steps": 32},
}


def _coerce(key: str, text: str):
    """The value of key parsed as its default's type; NaN is no number."""
    default = BASE_DEFAULTS[key]
    if not isinstance(default, (int, float)):
        return text
    try:
        value = type(default)(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ConfigError(f"config key {key!r} expects a number, got {text!r}")
    return value


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped."""
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in BASE_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def _parse_list(text: str, kind, key: str) -> list:
    try:
        items = [kind(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"config key {key!r} expects comma-separated "
                          f"{kind.__name__}s, got {text!r}")
    if not items:
        raise ConfigError(f"config key {key!r} must not be empty")
    return items


def parse_u0(text: str, n_modes: int) -> Field:
    """u0 grammar: zero | mode:k,amp | random:norm,seed."""
    try:
        if text == "zero":
            return Field.zero(n_modes)
        if text.startswith("mode:"):
            k, amp = text[len("mode:"):].split(",")
            return Field.mode(n_modes, int(k), float(amp))
        if text.startswith("random:"):
            norm, seed = text[len("random:"):].split(",")
            return Field.random_l2(n_modes, float(norm), int(seed))
    except (ValueError, IndexError) as e:
        raise ConfigError(f"bad u0 {text!r}: {e}")
    raise ConfigError(f"unrecognized u0 form {text!r} "
                      "(use zero | mode:k,amp | random:norm,seed)")


class _Inputs(NamedTuple):
    """The configuration's parsed objects, built once per run."""
    grid: Grid
    drift: Optional[DriftSpec]
    diffusion: Optional[DiffusionSpec]
    u0: Field
    levels: list
    lambdas: list
    epsilons: list


def _inputs(cfg: dict) -> _Inputs:
    """The parsed objects of cfg; raises ConfigError for any value the
    scenario cannot run with."""
    if cfg["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    if cfg["ensemble"] < 1:
        raise ConfigError("ensemble must be >= 1")
    if cfg["master_seed"] < 0:
        # noise seeds are nonnegative integers
        raise ConfigError("master_seed must be >= 0")
    scenario = cfg["scenario"]
    try:
        grid = Grid(n_modes=cfg["grid.n_modes"], T=cfg["grid.T"],
                    n_steps=cfg["grid.n_steps"])
        drift = None if cfg["drift.family"] == "none" else DriftSpec(
            family=cfg["drift.family"], scale=cfg["drift.scale"],
            exponent=cfg["drift.exponent"], degree=cfg["drift.degree"])
        diffusion = None if cfg["diffusion.family"] == "none" else \
            DiffusionSpec(family=cfg["diffusion.family"],
                          d1=cfg["diffusion.d1"], d2=cfg["diffusion.d2"],
                          theta=cfg["diffusion.theta"])
        u0 = parse_u0(cfg["u0"], grid.n_modes)
        levels = _parse_list(cfg["levels"], int, "levels")
        if scenario in ("moments", "uniqueness"):
            mollifier_levels(levels)
    except (ValueError, HypothesisViolation) as e:
        raise ConfigError(str(e))
    norm = u0.l2_norm()
    if not cfg["threshold"] > norm:
        # the data's norm would exceed it, so each path "blows up" at step 1
        raise ConfigError("threshold must be > 0 and > u0's L2 norm "
                          f"{norm:.6g}")
    positive = []
    for key in ("lambdas", "epsilons"):
        values = _parse_list(cfg[key], float, key)
        # a zero or negative entry raises inside the report, and an infinite
        # epsilon makes every split trivially feasible
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            raise ConfigError(f"{key} entries must be finite and > 0")
        positive.append(values)
    if scenario in ("moments", "uniqueness") and drift is None:
        # both mollify the drift
        raise ConfigError(f"the {scenario} scenario needs a drift family")
    if scenario == "uniqueness" and len(levels) < 2:
        raise ConfigError("the uniqueness scenario needs at least two levels")
    if scenario in ("moments", "blowup-phase") and \
            (cfg["ensemble"] < MIN_ENSEMBLE
             or not MIN_ORDER <= cfg["p"] < math.inf):
        # an infinite p sends every norm below 1 to 0, a vacuous pass
        raise ConfigError(f"the {scenario} scenario needs ensemble >= "
                          f"{MIN_ENSEMBLE} and a finite p >= {MIN_ORDER}")
    if scenario == "isometry" and cfg["ensemble"] < MIN_ENSEMBLE:
        # too few paths can collapse the sample standard error (about 5e-9
        # at one path), and no estimate is then within 3 of them
        raise ConfigError(f"the isometry scenario needs ensemble >= "
                          f"{MIN_ENSEMBLE}")
    if scenario == "factorization" and \
            not 0.0 < cfg["alpha"] < MAX_FACTORIZATION_ALPHA:
        raise ConfigError("the factorization scenario needs 0 < alpha < "
                          f"{MAX_FACTORIZATION_ALPHA}")
    return _Inputs(grid, drift, diffusion, u0, levels, *positive)


def resolve_config(args, env) -> dict:
    file_cfg = parse_config_file(args.config) if args.config else {}
    scenario = args.scenario or file_cfg.get("scenario") \
        or BASE_DEFAULTS["scenario"]
    if scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {scenario!r} (known: {known})")
    cfg = dict(BASE_DEFAULTS)
    cfg.update(SCENARIO_DEFAULTS[scenario])
    if "LOGDRIFT_SEED" in env:
        cfg["master_seed"] = _coerce("master_seed", env["LOGDRIFT_SEED"])
    cfg.update(file_cfg)
    cfg["scenario"] = scenario
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.output_dir is not None:
        cfg["output_dir"] = args.output_dir
    if args.threads is not None:
        cfg["threads"] = args.threads
    _inputs(cfg)
    return cfg


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    s = str(v)
    if "," in s or "\n" in s or '"' in s:
        raise ValueError(f"CSV cell {s!r} would need quoting")
    return s


def write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_records(path: Path, records: list) -> None:
    """Dicts whose keys, in order, are the CSV columns: one row each."""
    write_csv(path, list(records[0]), [r.values() for r in records])


def _spread(values) -> float:
    """max/min of nonnegative values: 1 when all are equal, inf when only
    the smallest is 0."""
    lo, hi = min(values), max(values)
    if lo == hi:
        return 1.0
    return hi / lo if lo > 0.0 else math.inf


def _ordered_map(fn: Callable, items, threads: int) -> list:
    """Map preserving item order; thread count never changes the results."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _run_kernel_estimates(cfg: dict, inputs: _Inputs, out: Path) -> list:
    failures = []
    threads = cfg["threads"]
    xs = np.linspace(0.0, 1.0, 19)[1:-1]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ts = np.logspace(-4, 0, 17)

    def agreement(t: float) -> float:
        a = kernel_series(t, X.ravel(), Y.ravel())
        b = kernel_images(t, X.ravel(), Y.ravel())
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        return float(np.max(np.abs(a - b) / scale))

    errs = _ordered_map(agreement, ts, threads)
    write_csv(out / "kernel_agreement.csv", ["t", "max_rel_err"],
              list(zip(ts, errs)))
    worst = max(errs)
    if worst > KERNEL_REL_TOL:
        failures.append(f"kernel dual-form agreement: max scaled error "
                        f"{worst:.3e} > {KERNEL_REL_TOL:.1e}")

    hs = [0.1 * 2.0 ** -k for k in range(7)]
    vals = _ordered_map(time_increment_estimate, hs, threads)
    write_csv(out / "time_increment.csv", ["h", "estimate"],
              list(zip(hs, vals)))
    slope = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    if not SLOPE_LO <= slope <= SLOPE_HI:
        failures.append(f"time-increment exponent: slope {slope:.4f} outside "
                        f"[{SLOPE_LO}, {SLOPE_HI}]")

    seps = [2.0 ** -k for k in range(3, 13)]

    def modulus_ratio(sep: float) -> float:
        est = spatial_modulus_estimate(0.5 - sep / 2.0, 0.5 + sep / 2.0)
        return est / (sep * (1.0 + math.log(1.0 / sep)))

    ratios = _ordered_map(modulus_ratio, seps, threads)
    write_csv(out / "spatial_modulus.csv", ["separation", "shape_ratio"],
              list(zip(seps, ratios)))
    spread = _spread(ratios)
    if spread >= SHAPE_SPREAD_TOL:
        failures.append(f"spatial modulus shape: ratio spread {spread:.3f} "
                        f">= {SHAPE_SPREAD_TOL}")
    return failures


def _run_gronwall_suite(cfg: dict, inputs: _Inputs, out: Path) -> list:
    failures = []
    count = cfg["ensemble"]
    rows = []
    for kind in ("superlinear", "vanishing", "singular"):
        problems = make_problem_corpus(kind, count, cfg["master_seed"])
        reports = check_domination(kind, problems)
        bad = 0
        for i, rep in enumerate(reports):
            rows.append((kind, i, rep.passed, rep.min_gap, rep.max_tolerance,
                         rep.oracle_max, rep.bound_max))
            bad += not rep.passed
        if bad:
            failures.append(f"gronwall domination: {bad}/{count} {kind} "
                            "problems exceeded their bound")
    write_csv(out / "gronwall_domination.csv",
              ["kind", "index", "passed", "min_gap", "max_tolerance",
               "oracle_max", "bound_max"], rows)

    stab_rows = []
    for label, prob in STABILITY_REFERENCE:
        coarse, fine = oracle_pair(prob, label)
        drift = float(np.max(np.abs(coarse - fine[::2])))
        stab_rows.append((label, prob.alpha, prob.grid_dt, drift))
        if drift >= ORACLE_STABILITY_TOL:
            failures.append(f"oracle stability: sup drift {drift:.3e} >= "
                            f"{ORACLE_STABILITY_TOL:.1e} under dt halving")
    write_csv(out / "oracle_stability.csv",
              ["kind", "alpha", "grid_dt", "sup_drift"], stab_rows)
    return failures


def _run_hypothesis_check(cfg: dict, inputs: _Inputs, out: Path) -> list:
    failures = []
    rows = []
    drift, diffusion = inputs.drift, inputs.diffusion
    if drift is not None:
        try:
            c1, c2 = growth_check(drift)
            rows += [("drift_growth_c1", c1), ("drift_growth_c2", c2)]
        except HypothesisViolation as e:
            failures.append(f"drift growth hypothesis: {e}")
        try:
            c3, c4, c5 = loglip_check(drift)
            rows += [("drift_loglip_c3", c3), ("drift_loglip_c4", c4),
                     ("drift_loglip_c5", c5)]
        except HypothesisViolation as e:
            failures.append(f"drift log-Lipschitz hypothesis: {e}")
        if not failures:
            L = uniform_growth_check(drift)
            rows.append(("mollified_uniform_growth", L))
    if diffusion is not None:
        try:
            d1, d2 = sublinear_check(diffusion)
            rows += [("diffusion_sublinear_d1", d1),
                     ("diffusion_sublinear_d2", d2)]
            rows.append(("diffusion_lipschitz_d3", lipschitz_check(diffusion)))
        except HypothesisViolation as e:
            failures.append(f"diffusion hypothesis: {e}")
    write_csv(out / "hypothesis_constants.csv", ["constant", "value"], rows)
    return failures


def _run_uniqueness(cfg: dict, inputs: _Inputs, out: Path) -> list:
    failures = []
    try:
        res = coupled_uniqueness_experiment(
            inputs.u0, inputs.drift, inputs.diffusion, inputs.grid,
            cfg["master_seed"], inputs.levels, threshold=cfg["threshold"])
    except (RuntimeError, HypothesisViolation) as e:
        failures.append(f"uniqueness experiment: {e}")
        res = {"pairs": [], "sup_diffs": []}
    rows = [(a, b, d) for (a, b), d in zip(res["pairs"], res["sup_diffs"])]
    write_csv(out / "uniqueness.csv",
              ["level_lo", "level_hi", "sup_diff"], rows)
    if failures:
        return failures
    diffs = res["sup_diffs"]
    tail = diffs[-3:] if len(diffs) >= 3 else diffs
    if any(b >= a for a, b in zip(tail, tail[1:])):
        failures.append("uniqueness convergence: consecutive level "
                        f"differences not eventually decreasing ({diffs})")
    if diffs[-1] >= UNIQUENESS_FINAL_TOL:
        failures.append(f"uniqueness convergence: finest gap {diffs[-1]:.3e} "
                        f">= {UNIQUENESS_FINAL_TOL:.1e}")
    return failures


def _run_blowup_phase(cfg: dict, inputs: _Inputs, out: Path) -> list:
    rep = mc_sup_moment(cfg["p"], inputs.drift, inputs.diffusion, inputs.u0,
                        inputs.grid, cfg["ensemble"], cfg["master_seed"],
                        threshold=cfg["threshold"])
    write_csv(out / "blowup_phase.csv",
              ["p", "T", "ensemble", "blowup_fraction", "estimate",
               "std_error", "fingerprint"],
              [(rep.p, rep.T, rep.ensemble, rep.blowup_fraction, rep.estimate,
                rep.std_error, rep.fingerprint)])
    if rep.blowup_fraction <= 0.0:
        return ["blow-up phase: no path reached the threshold "
                f"{cfg['threshold']:.1e} (fraction 0)"]
    return []


def _run_moments(cfg: dict, inputs: _Inputs, out: Path) -> list:
    failures = []
    grid, u0 = inputs.grid, inputs.u0
    drift, diffusion = inputs.drift, inputs.diffusion
    seed = cfg["master_seed"]
    ens = cfg["ensemble"]

    # the amplitude-scaling law lives at p > 8 and the epsilon split at
    # p <= 8; those windows are structural, not configuration
    jobs = [
        lambda: mc_sup_moment(cfg["p"], drift, diffusion, u0, grid, ens, seed,
                              threshold=cfg["threshold"]),
        lambda: restart_window_report(cfg["p"], drift, diffusion, u0, grid,
                                      ens, seed, threshold=cfg["threshold"]),
        lambda: convolution_scaling_report(10.0, inputs.lambdas, grid, ens,
                                           seed),
        lambda: epsilon_split_report(2.0, inputs.epsilons, grid, ens, seed),
        lambda: mollified_uniformity_report(inputs.levels, cfg["p"], drift,
                                            diffusion, u0, grid, ens, seed,
                                            threshold=cfg["threshold"]),
    ]
    try:
        base, (first, second), scaling, split, uniformity = \
            _ordered_map(lambda job: job(), jobs, cfg["threads"])
    except (RuntimeError, HypothesisViolation) as e:
        return [f"moment reports: {e}"]

    windows = (("full_horizon", "full-horizon", base),
               ("restart_first", "restart first window", first),
               ("restart_second", "restart second window", second))
    write_csv(out / "moments.csv",
              ["window", "p", "T", "ensemble", "estimate", "std_error",
               "blowup_fraction", "fingerprint"],
              [(window, r.p, r.T, r.ensemble, r.estimate, r.std_error,
                r.blowup_fraction, r.fingerprint) for window, _, r in windows])
    for _, name, rep in windows:
        if rep.blowup_fraction > 0.0 or not rep.valid:
            failures.append(f"moment finiteness: {name} report invalid "
                            f"(blowup fraction {rep.blowup_fraction})")

    _write_records(out / "moment_scaling.csv", scaling)
    worst = max(r["power_rel_err"] for r in scaling)
    if worst > SCALING_REL_TOL:
        failures.append(f"moment scaling: power-law error {worst:.3e} > "
                        f"{SCALING_REL_TOL:.1e}")
    spread = _spread([r["ratio"] for r in scaling])
    if spread >= SCALING_SPREAD_TOL:
        failures.append(f"moment scaling: constant spread {spread:.3f} >= "
                        f"{SCALING_SPREAD_TOL}")

    _write_records(out / "moment_epsilon_split.csv", split)
    if not all(r["feasible"] for r in split):
        failures.append("moment epsilon split: no feasible constant under "
                        "the cap for some epsilon")

    _write_records(out / "moment_uniformity.csv", uniformity)
    spread = _spread([r["estimate"] for r in uniformity])
    if spread > UNIFORMITY_SPREAD_TOL:
        failures.append(f"moment uniformity: level spread {spread:.3f} > "
                        f"{UNIFORMITY_SPREAD_TOL}")
    return failures


def _run_factorization(cfg: dict, inputs: _Inputs, out: Path) -> list:
    base = inputs.grid

    def level_error(doubling: int) -> tuple:
        n_steps = base.n_steps * 2 ** doubling
        g = Grid(base.n_modes, base.T, n_steps)
        noise = sample_noise(cfg["master_seed"], g.n_modes, n_steps, g.dt)
        return n_steps, g.dt, factorization_check(cfg["alpha"], g, noise)

    rows = _ordered_map(level_error, range(5), cfg["threads"])
    write_csv(out / "factorization.csv", ["n_steps", "dt", "rel_sup_error"],
              rows)
    errs = [r[2] for r in rows]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return [f"factorization identity: errors not monotone under dt "
                f"halving ({errs})"]
    return []


def _run_isometry(cfg: dict, inputs: _Inputs, out: Path) -> list:
    grid = inputs.grid
    N, K = grid.n_modes, grid.n_steps
    js = np.arange(1, N + 1) * math.pi
    t = grid.times()[:-1][:, None]
    profile = np.exp(-0.5 * js[None, :] ** 2 * t) / js[None, :]
    gap = np.exp(-0.5 * js[None, :] ** 2 * t)
    members = [1, 2, 4, 8]
    f_seq = [profile + gap / n for n in members]
    report = ito_isometry_convergence_check(f_seq, profile, cfg["ensemble"],
                                            grid.dt, seed=cfg["master_seed"])
    write_csv(out / "isometry.csv",
              ["member", "target", "estimate", "std_error"],
              list(zip(members, report.targets, report.estimates,
                       report.std_errors)))
    if not np.all(np.isfinite(report.estimates + report.std_errors)):
        return ["isometry: a second-moment estimate or its standard error is "
                "not finite"]
    failures = []
    if not report.within_3se:
        failures.append("isometry: some member's second moment missed its "
                        "target by more than 3 standard errors")
    if not report.decreasing:
        failures.append("isometry: squared gaps do not decrease along the "
                        "sequence")
    return failures


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    claim: str
    run: Callable


SCENARIOS = {s.name: s for s in (
    Scenario("kernel-estimates",
             "Dual-form kernel agreement, time-increment exponent, and "
             "spatial-modulus shape sweeps.",
             "the Dirichlet kernel's time increments scale like sqrt(h) and "
             "its spatial modulus like |x-y|(1+log(1/|x-y|))",
             _run_kernel_estimates),
    Scenario("gronwall-suite",
             "Volterra oracle vs closed-form bounds on randomized problem "
             "corpora plus oracle grid stability.",
             "log-type integral inequalities admit the stated closed-form "
             "majorants",
             _run_gronwall_suite),
    Scenario("hypothesis-check",
             "Minimal growth, log-Lipschitz, and diffusion constants for "
             "the configured coefficients.",
             "the configured coefficients satisfy the standing growth and "
             "regularity hypotheses",
             _run_hypothesis_check),
    Scenario("uniqueness",
             "Coupled solves across mollification levels under one noise "
             "path.",
             "solutions driven by the same noise converge as the mollified "
             "drift approaches its limit",
             _run_uniqueness),
    Scenario("blowup-phase",
             "Blow-up frequency for a fast-log drift started from large "
             "data.",
             "drifts growing faster than z log z push trajectories to "
             "finite-time blow-up",
             _run_blowup_phase),
    Scenario("moments",
             "Sup-moment estimate, restart windows, amplitude scaling, "
             "epsilon split, and mollified uniformity.",
             "sup moments of solutions stay finite and scale as the "
             "convolution inequalities dictate",
             _run_moments),
    Scenario("factorization",
             "Direct stochastic convolution vs its two-stage fractional "
             "form under dt halving.",
             "the factorization identity reproduces the stochastic "
             "convolution as the time step shrinks",
             _run_factorization),
    Scenario("isometry",
             "Monte Carlo second moments of modal stochastic integrals "
             "along a converging integrand sequence.",
             "stochastic integrals of L2-converging integrands converge in "
             "mean square at the isometry rate",
             _run_isometry),
)}


def list_scenarios() -> str:
    lines = []
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        lines.append(f"{name}: {s.description}")
        lines.append(f"    claim: {s.claim}")
    return "\n".join(lines)


def _fmt_cfg(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _echo(cfg: dict) -> str:
    """The resolved configuration as key=value lines, in the config-file
    grammar."""
    return "\n".join(f"{k}={_fmt_cfg(v)}" for k, v in sorted(cfg.items()))


def run(cfg: dict) -> int:
    """Execute the resolved configuration; returns the process exit code."""
    inputs = _inputs(cfg)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    echo = _echo(cfg)
    print(echo)
    (out / "resolved-config.txt").write_text(echo + "\n")
    failures = SCENARIOS[cfg["scenario"]].run(cfg, inputs, out)
    lines = [f"scenario={cfg['scenario']}", f"failures={len(failures)}"]
    lines += [f"FAIL {f}" for f in failures]
    lines.append("status=" + ("FAIL" if failures else "PASS"))
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"{cfg['scenario']}: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="logdrift",
        description="Deterministic batch experiments for a stochastic "
                    "reaction-diffusion lab.")
    parser.add_argument("--scenario", help="scenario name (see --list)")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--output-dir", help="artifact directory")
    parser.add_argument("--threads", type=int, help="worker cap (results "
                        "are independent of this)")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    args = parser.parse_args(argv)
    if args.list:
        print(list_scenarios())
        return 0
    try:
        cfg = resolve_config(args, os.environ)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
