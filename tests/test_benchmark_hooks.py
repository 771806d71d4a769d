"""The benchmark's hooks into the package still resolve.

``perfbench/tracing.py`` patches package functions and methods by name,
and ``perfbench/probe.py`` calls a few package functions directly.  One
small traced probe run fails here as soon as a name either of them needs
is renamed or removed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probe
    import tracing

    yield probe, tracing
    for name in ("probe", "tracing"):
        sys.modules.pop(name, None)


def test_traced_probe_runs(perfbench_modules, tmp_path):
    probe, tracing = perfbench_modules
    tracer = tracing.Tracer()
    try:
        tracer.install()  # undone by uninstall even when it stops halfway
        metrics = probe.run_probe(tracer, tmp_path, seed=1, growth_ns=(3, 4), seesaw_ns=(3, 4))
    finally:
        tracer.uninstall()
    # install() looks every patched method up by name; the spans show the
    # patches took effect (stage counters are reset between probe sizes)
    traced = {name for _, _, name, _, _ in tracer.spans}
    assert {"linalg.validate", "witness.check", "measurements.weighted_sum"} <= traced
    assert {"measurements.ghz_decomposition", "oracle.min_over_products"} <= traced
    assert metrics["ref.seesaw_ghz8_s"] > 0
