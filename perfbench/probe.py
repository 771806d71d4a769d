"""Traced-run probes outside the timed loop.

* Growth exponents: log-log slopes of stage time against the Hilbert
  space size N = 2^n, over ghz_decomposition plus one witness save and
  load for n = 6..10, and over the 32-restart see-saw and the PPT report
  for n = 6..8.  They are reported, not gated.
* Reference points: the roadmap's quantities at ghz 10 (decomposition,
  witness JSON save, load and size) and at ghz 8 (see-saw), so they sit
  beside its recorded figures.
* Known defects, each probed once and counted while it shows: the
  see-saw's party limit (one call on a 9-party operator raises), and the
  CLI's z-score of a zero-variance estimate (``estimate qudit 3`` on rho0
  reports |z| in the thousands for an estimate exact to rounding).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

GROWTH_NS = tuple(range(6, 11))
SEESAW_NS = tuple(range(6, 9))
SEESAW_RESTARTS = 32
DEFECT_PARTIES = 9


def slope(ns, times) -> float:
    """Exponent k in time ~ N^k with N = 2^n, by least squares in log-log."""
    return float(np.polyfit([n * math.log(2) for n in ns], np.log(times), 1)[0])


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _seesaw_party_limit(seed: int) -> str | None:
    """The see-saw on a 9-party operator; the exception it raises, if any."""
    from witgeo import oracle, states

    h = states.ghz_dephased(DEFECT_PARTIES).mat
    try:
        oracle.min_over_products(h, (2,) * DEFECT_PARTIES, oracle.SeeSawConfig(restarts=1, seed=seed))
    except Exception as exc:  # any failure here means the party limit still holds
        return repr(exc)
    return None


def _zero_variance_z_score(seed: int) -> str | None:
    """estimate qudit 3 on rho0: every draw has one weight, so |z| must not exceed 5."""
    from witgeo import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["estimate", "qudit", "3", "--shots", "1000", "--seed", str(seed), "--state", "rho0"])
    outputs = json.loads(stdout.getvalue())["outputs"]
    z, stderr = outputs["z_score"]["value"], outputs["estimate"]["stderr"]
    return f"z_score {z!r} at stderr {stderr!r}" if abs(z) > 5 else None


def known_defects(seed: int) -> dict[str, str | None]:
    """Each known defect with what it did on this run (None once fixed)."""
    return {
        "seesaw_party_limit": _seesaw_party_limit(seed),
        "zero_variance_z_score": _zero_variance_z_score(seed),
    }


def run_probe(tracer, out: Path, seed: int, growth_ns=GROWTH_NS, seesaw_ns=SEESAW_NS) -> dict:
    """Growth exponents and reference points; ``tracer`` must be installed."""
    from witgeo import io as wio
    from witgeo import measurements, oracle

    metrics = {}
    growth = {"linalg.validate": [], "measurements.weighted_sum": [], "io.save": [], "io.load": []}
    for n in growth_ns:
        tracer.reset()
        path = out / f"probe_ghz{n}_witness.json"
        ghz, build_s = _timed(measurements.ghz_decomposition, n)
        _, save_s = _timed(wio.save_witness, path, ghz.witness)
        _, load_s = _timed(wio.load_witness_matrix, path)
        for stage, times in growth.items():
            times.append(tracer.stage_time[stage])
    metrics["ref.ghz_decomposition_10_s"] = build_s
    metrics["ref.save_ghz10_s"] = save_s
    metrics["ref.load_ghz10_s"] = load_s
    metrics["ref.ghz10_witness_mb"] = path.stat().st_size / 1e6
    for stage, times in growth.items():
        metrics[f"{stage}.exp"] = slope(growth_ns, times)

    seesaw, ppt = [], []
    for n in seesaw_ns:
        witness = measurements.ghz_decomposition(n).witness
        tracer.reset()
        cfg = oracle.SeeSawConfig(restarts=SEESAW_RESTARTS, seed=seed)
        _, seesaw_s = _timed(oracle.min_over_products, witness.matrix, witness.dims, cfg)
        oracle.ppt_report(witness.rho0)
        seesaw.append(tracer.stage_time["oracle.seesaw"])
        ppt.append(tracer.stage_time["oracle.ppt"])
    metrics["ref.seesaw_ghz8_s"] = seesaw_s
    metrics["oracle.seesaw.exp"] = slope(seesaw_ns, seesaw)
    metrics["oracle.ppt.exp"] = slope(seesaw_ns, ppt)
    return metrics
