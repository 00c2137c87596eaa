"""Outside-in span tracer for the logdrift layers.

Every public module-level function of each layer module is wrapped, and the
wrapper is rebound under every name in every ``logdrift`` module whose
globals hold the original, so ``from .noise import sample_noise`` in another
module is traced too. Nothing inside the package changes.

A span is one call: (id, parent id, scenario, layer, function, start, end,
info). The parent is the innermost open span on the calling thread, or 0
when there is none, as for the first call on a worker thread. ``info`` holds
counters computed from the call's arguments and result (see ``PROBES``).
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

import numpy as np

LAYERS = ("noise", "solver", "moments", "coefficients", "heat_kernel",
          "gronwall")

# span tuple fields, in order
FIELDS = ("id", "parent", "scenario", "layer", "name", "t0", "t1", "info")


def _noise_info(a, result):
    return {"key": [int(a["seed"]), int(a["n_modes"]), int(a["n_steps"]),
                    float(a["dt"])],
            "n_modes": int(a["n_modes"]), "n_steps": int(a["n_steps"])}


def _matmuls(drift) -> int:
    # _step_batch does U @ B, xi @ B and (sigma * w) @ B, plus
    # drift(vals) @ B when there is a drift
    return 3 if drift is None else 4


def _ensemble_info(a, result):
    _, blown, blow_steps = result
    n_steps = a["grid"].n_steps
    steps = sum(int(s) if b else n_steps for b, s in zip(blown, blow_steps))
    return {"paths": int(len(blown)), "steps": steps,
            "blown": int(sum(bool(b) for b in blown)),
            "n_modes": a["grid"].n_modes, "matmuls": _matmuls(a["drift"])}


def _path_info(a, result):
    return {"paths": 1, "steps": int(len(result.l2_series)) - 1,
            "blown": int(bool(result.blown_up)),
            "n_modes": a["grid"].n_modes, "matmuls": _matmuls(a["drift"])}


def _kernel_series_info(a, result):
    from logdrift import heat_kernel
    n_points = np.broadcast(np.asarray(a["x"]), np.asarray(a["y"])).size
    modes = heat_kernel._series_mode_count(float(a["t"]), a["params"])
    return {"terms": int(modes * n_points)}


def _modulus_info(a, result):
    return {"terms": 0 if a["x"] == a["y"] else int(a["n_terms"])}


def _log_jensen_info(a, result):
    # _kernel_matrix takes the separable series form from switch_time on
    from logdrift import heat_kernel
    dt, params, n = float(a["dt"]), a["params"], a["u"].n
    if dt < params.switch_time:
        return {"terms": 0}
    return {"terms": heat_kernel._series_mode_count(dt, params) * n * (n + 2)}


def _oracle_info(a, result):
    return {"grid_points": int(result.size)}


# (layer, function) -> counters from the bound arguments and the result
PROBES = {
    ("noise", "sample_noise"): _noise_info,
    ("solver", "solve_l2_ensemble"): _ensemble_info,
    ("solver", "solve_path"): _path_info,
    ("heat_kernel", "kernel_series"): _kernel_series_info,
    ("heat_kernel", "spatial_modulus_estimate"): _modulus_info,
    ("heat_kernel", "log_jensen_bound_check"): _log_jensen_info,
    ("gronwall", "volterra_oracle"): _oracle_info,
}


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Records a span per call into a layer function while installed."""

    def __init__(self):
        self.spans = []
        self.scenario = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rebound = []     # (module, name, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        probe = PROBES.get((layer, fn.__name__))
        signature = inspect.signature(fn)
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            info = None
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = probe(bound.arguments, result)
            self.spans.append((sid, parent, self.scenario, layer, name, t0,
                               t1, info))
            return result

        return traced

    def install(self) -> int:
        """Wrap every layer function; returns the number of names rebound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"logdrift.{layer}")
            for fn in public_functions(module).values():
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "logdrift"
                                      or modname.startswith("logdrift.")):
                continue
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._rebound.append((module, name, value))
        return len(self._rebound)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._rebound):
            setattr(module, name, original)
        self._rebound.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
