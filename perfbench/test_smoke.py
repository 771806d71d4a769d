"""Smoke test of the benchmark: one tiny pass per workload reports every metric.

Run with ``python3 -m pytest perfbench/test_smoke.py``; it is not part of
the tier-1 suite under tests/.
"""

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_one_pass_reports_every_metric(workload, trace):
    result, record = run.run(
        workload, 1, 0, trace, min_passes=1, setups=1,
        probe_sizes={"growth_ns": (3, 4), "seesaw_ns": (3, 4)},
    )
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 1
    assert record["env"]["seed"] == 1
