"""Per-layer metrics from one traced run's spans.

A layer's self time is the time its spans cover minus the time covered by
their child spans (children run on the caller's thread). Busy time is the
inclusive time of a function's calls. Counters come from each span's
``info`` (see ``tracer.PROBES``), computed from arguments and results.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import FIELDS, LAYERS

# per-layer metric name -> unit, in report order
UNITS = {
    "noise.calls": "count",
    "noise.busy_s": "s",
    "noise.self_s": "s",
    "noise.distinct_realizations": "count",
    "noise.reuse_ratio": "ratio",
    "noise.streams": "count",
    "noise.draws": "count",
    "noise.bytes_out": "bytes",
    "noise.ns_per_draw": "ns",
    "noise.steps_used_ratio": "ratio",
    "solver.ensemble_calls": "count",
    "solver.ensemble_busy_s": "s",
    "solver.path_calls": "count",
    "solver.path_busy_s": "s",
    "solver.factorization_busy_s": "s",
    "solver.self_s": "s",
    "solver.path_steps": "count",
    "solver.us_per_path_step": "us",
    "solver.matmul_flops": "flop",
    "solver.blown_paths": "count",
    "moments.self_s": "s",
    "moments.reports": "count",
    "moments.paths_requested": "count",
    "coefficients.mollify_calls": "count",
    "coefficients.mollify_s": "s",
    "coefficients.checks_s": "s",
    "coefficients.self_s": "s",
    "heat_kernel.time_increment_s": "s",
    "heat_kernel.spatial_modulus_s": "s",
    "heat_kernel.series_terms": "count",
    "heat_kernel.kernel_form_s": "s",
    "heat_kernel.log_jensen_s": "s",
    "heat_kernel.self_s": "s",
    "gronwall.oracle_calls": "count",
    "gronwall.oracle_s": "s",
    "gronwall.oracle_grid_points": "count",
    "gronwall.domination_self_s": "s",
    "gronwall.self_s": "s",
    "cli.self_s": "s",
}


class _Span:
    __slots__ = FIELDS + ("children",)

    def __init__(self, row):
        for name, value in zip(FIELDS, row):
            setattr(self, name, value)
        self.children = []

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - sum(c.dur for c in self.children)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rows: list, wall_s: float) -> dict:
    """Per-layer metric values from the span rows of one traced run whose
    scenarios took wall_s from first start to last verdict."""
    spans = {row[0]: _Span(row) for row in rows}
    top = []
    for s in spans.values():
        parent = spans.get(s.parent)
        if parent is None:
            top.append(s)
        else:
            parent.children.append(s)

    def ancestors(s):
        while s.parent in spans:
            s = spans[s.parent]
            yield s

    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for s in spans.values():
        by_name[s.layer, s.name].append(s)
        self_s[s.layer] += s.self_s

    def calls(layer, name):
        return by_name[layer, name]

    def busy(layer, *names):
        # outermost calls only, so a function nested in another listed one
        # is not counted twice
        return sum(s.dur for n in names for s in calls(layer, n)
                   if not any(a.layer == layer and a.name in names
                              for a in ancestors(s)))

    def info_sum(layer, names, key):
        return sum(s.info[key] for n in names for s in calls(layer, n))

    m = {}
    noise = calls("noise", "sample_noise")
    noise_busy = busy("noise", "sample_noise")
    m["noise.calls"] = len(noise)
    m["noise.busy_s"] = noise_busy
    m["noise.self_s"] = self_s["noise"]
    distinct = len({tuple(s.info["key"]) for s in noise})
    m["noise.distinct_realizations"] = distinct
    m["noise.reuse_ratio"] = _ratio(distinct, len(noise))
    m["noise.streams"] = sum(s.info["n_modes"] for s in noise)
    draws = sum(s.info["n_modes"] * s.info["n_steps"] for s in noise)
    m["noise.draws"] = draws
    m["noise.bytes_out"] = 8 * draws
    m["noise.ns_per_draw"] = 1e9 * _ratio(noise_busy, draws)

    stepping = ("solve_l2_ensemble", "solve_path")
    path_steps = info_sum("solver", stepping, "steps")
    m["noise.steps_used_ratio"] = _ratio(
        path_steps, sum(s.info["n_steps"] for s in noise))
    m["solver.ensemble_calls"] = len(calls("solver", "solve_l2_ensemble"))
    m["solver.ensemble_busy_s"] = busy("solver", "solve_l2_ensemble")
    m["solver.path_calls"] = len(calls("solver", "solve_path"))
    m["solver.path_busy_s"] = busy("solver", "solve_path")
    m["solver.factorization_busy_s"] = busy("solver", "factorization_check")
    m["solver.self_s"] = self_s["solver"]
    m["solver.path_steps"] = path_steps
    m["solver.us_per_path_step"] = 1e6 * _ratio(
        busy("solver", *stepping), path_steps)
    m["solver.matmul_flops"] = sum(
        s.info["steps"] * s.info["matmuls"] * 2 * s.info["n_modes"] ** 2
        for n in stepping for s in calls("solver", n))
    m["solver.blown_paths"] = info_sum("solver", stepping, "blown")

    m["moments.self_s"] = self_s["moments"]
    m["moments.reports"] = sum(
        1 for s in spans.values() if s.layer == "moments"
        and not any(a.layer == "moments" for a in ancestors(s)))
    m["moments.paths_requested"] = sum(
        s.info["paths"] for s in calls("solver", "solve_l2_ensemble")
        if any(a.layer == "moments" for a in ancestors(s)))

    mollify = calls("coefficients", "mollify")
    m["coefficients.mollify_calls"] = len(mollify)
    m["coefficients.mollify_s"] = busy("coefficients", "mollify")
    checks = [n for (layer, n) in by_name
              if layer == "coefficients" and n.endswith("_check")]
    m["coefficients.checks_s"] = busy("coefficients", *checks) - sum(
        s.dur for s in mollify
        if any(a.layer == "coefficients" and a.name in checks
               for a in ancestors(s)))
    m["coefficients.self_s"] = self_s["coefficients"]

    m["heat_kernel.time_increment_s"] = busy("heat_kernel",
                                             "time_increment_estimate")
    m["heat_kernel.spatial_modulus_s"] = busy("heat_kernel",
                                              "spatial_modulus_estimate")
    m["heat_kernel.series_terms"] = info_sum(
        "heat_kernel", ("kernel_series", "spatial_modulus_estimate",
                        "log_jensen_bound_check"), "terms")
    m["heat_kernel.kernel_form_s"] = busy("heat_kernel", "kernel_series",
                                          "kernel_images", "kernel_eval")
    m["heat_kernel.log_jensen_s"] = busy("heat_kernel",
                                         "log_jensen_bound_check")
    m["heat_kernel.self_s"] = self_s["heat_kernel"]

    m["gronwall.oracle_calls"] = len(calls("gronwall", "volterra_oracle"))
    m["gronwall.oracle_s"] = busy("gronwall", "volterra_oracle")
    m["gronwall.oracle_grid_points"] = info_sum(
        "gronwall", ("volterra_oracle",), "grid_points")
    m["gronwall.domination_self_s"] = sum(
        s.self_s for s in calls("gronwall", "check_domination"))
    m["gronwall.self_s"] = self_s["gronwall"]

    # time no traced layer covers, on any thread
    m["cli.self_s"] = wall_s - _union_length((s.t0, s.t1) for s in top)
    return m


def accounted_s(m: dict) -> float:
    """Layer self times plus cli.self_s: equals wall_s when one thread
    runs at a time, and exceeds it by the time threads overlapped."""
    return m["cli.self_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
