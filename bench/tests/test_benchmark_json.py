"""BENCHMARK.json must declare exactly what bench/run.py reports."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS, TRACE_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_declared_metrics_and_workloads_match_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == TRACE_UNITS
