"""The benchmark's workloads: which CLI scenarios run, with what settings.

Each workload is a list of scenarios driven through ``logdrift.cli.main`` in
one cold interpreter, with the benchmark seed passed as ``--seed``. Why each
one exists:

- mc-ensemble: the Monte Carlo path users wait on longest. Noise generation
  is most of it and every distinct realization is generated several times,
  so ensemble batching and noise reuse show here. ``blowup-phase`` adds
  early-stopped paths. It runs on one worker thread: with two, the
  ``moments`` jobs hold the interpreter lock for most of their time, so the
  run is no faster (19.4 s on one thread, 21.0 s on two), and its wall time
  and peak memory then depend on which jobs the pool happens to overlap.
- serial: everything that runs one path at a time or no paths, on one
  thread. ``uniqueness`` and ``factorization`` use the noise and solver
  layers at P = 1 (per-step overhead, mollified-drift evaluation, long
  dyadically refined streams); ``kernel-estimates``, ``gronwall-suite``,
  ``hypothesis-check`` and the log-Jensen draws exercise the deterministic
  analytic layers. Ensemble batching, noise reuse and threads are all
  bypassed, so a Monte Carlo gain that costs single paths shows here.
"""

from __future__ import annotations

import numpy as np

# The smallest ensemble above the moments module's 128-path chunk, so every
# report still runs a second chunk while three cold runs of the workload fit
# in one benchmark run.
MC_ENSEMBLE = 129

# log_jensen_bound_check draws per serial run
LOG_JENSEN_DRAWS = 100

WORKLOADS = {
    "mc-ensemble": {
        "scenarios": ["moments", "blowup-phase"],
        "threads": 1,
        "config": {"ensemble": MC_ENSEMBLE},
        "log_jensen_draws": 0,
    },
    "serial": {
        "scenarios": ["uniqueness", "factorization", "kernel-estimates",
                      "gronwall-suite", "hypothesis-check"],
        "threads": 1,
        "config": {},
        "log_jensen_draws": LOG_JENSEN_DRAWS,
    },
}

# Scenarios whose time to verdict is reported on its own; the rest are
# sub-second and count only toward wall_s.
VERDICT_SCENARIOS = ("moments", "blowup-phase", "uniqueness",
                     "kernel-estimates", "gronwall-suite", "log-jensen")


def log_jensen_draws(seed: int, count: int):
    """(dt, n, amplitude, field seed) draws, sampled as acceptance
    criterion 04 samples them, from the benchmark seed."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        dt = 10.0 ** rng.uniform(-5.0, -1.0)
        n = int(rng.choice([63, 127, 255]))
        amp = 10.0 ** rng.uniform(-1.0, 2.0)
        draws.append((dt, n, amp, int(rng.integers(0, 2 ** 31))))
    return draws
