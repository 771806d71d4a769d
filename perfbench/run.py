"""witgeo benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload build-ladder --seed 1 --seconds 40 --trace 0

One client drives the unchanged CLI in-process (``witgeo.cli.main(argv)``,
stdout captured), starting each command only after the previous one
returned, and checks every command's report (see workloads.py).  Passes
over the workload's fixed command list repeat for about ``--seconds``
(at least MIN_PASSES passes), with the fresh-interpreter set-ups timed
between them.  Each command's time is
its fastest over the passes; ``wall_s`` sums them, and ``cmd_p50_s`` and
``cmd_p90_s`` are percentiles over the commands.  All three are scaled by
the run's machine speed (see SpeedProbe).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports per-layer stage times and counts per
traced pass (see tracing.py), the tracing overhead, and the probes of
probe.py.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and every metric with its unit.  A fuller record, with the
recorded spans in trace mode, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from probe import known_defects, run_probe
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_PASSES = 5      # repeats behind each command's fastest time
MAX_LOOP_S = 120.0  # stop starting passes after this, whatever the counts
SETUPS = 5          # fresh interpreters timed per run for setup_s

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import witgeo.cli; witgeo.cli.build_parser()"

def load_witgeo():
    """Import witgeo.cli from this checkout's src/, or exit 2 when it is missing."""
    if not (SRC / "witgeo" / "cli.py").is_file():
        print(f"error: no witgeo sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import witgeo.cli

    return witgeo.cli


# -- environment ---------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its C API."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _git_commit(),
    }


# -- running commands ----------------------------------------------------------


def setup_seconds() -> float:
    """Wall time for a fresh interpreter to import witgeo.cli and build its parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, timeout=120, cwd=ROOT)
    return time.perf_counter() - start


def execute(cli, command) -> tuple[float, str | None]:
    """Run one command; its wall time and a failure reason (None when correct)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(command.argv)
    except (Exception, SystemExit) as exc:  # a traceback or argparse exit fails this command only
        return time.perf_counter() - start, f"raised {exc!r}"
    duration = time.perf_counter() - start
    try:
        return duration, command.check(rc, json.loads(stdout.getvalue()))
    except (ValueError, KeyError, TypeError) as exc:
        return duration, f"exit {rc}, unreadable report ({exc!r}): {stderr.getvalue().strip()[:200]}"


class SpeedProbe:
    """Times a fixed piece of numpy and Python work, unrelated to witgeo.

    On a shared machine, other tenants slow every command by up to 1.8
    times for spells that can outlast a run, and CPU time slows with wall
    time, so no fastest repeat inside the run escapes them.  The probe
    runs before every timed command; its 10th-percentile time over the run
    gives the machine's speed during that run, and the end-to-end times
    are rescaled to the speed at which it takes REFERENCE_S.  The work
    (a small Hermitian eigensolve, a ten-qubit einsum contraction, a
    Python loop and a 4 MB copy) is of the kinds the witgeo commands do.
    """

    REFERENCE_S = 0.002  # near its 10th percentile on an unloaded 2-vCPU Xeon

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.hermitian = a + a.conj().T
        self.tensor = rng.normal(size=(2,) * 10) + 0j
        self.vectors = [rng.normal(size=2) + 0j for _ in range(8)]
        self.block = rng.normal(size=512 * 1024)
        self.times: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(self.hermitian)
            np.einsum("abcdefghij,a,b,c,d,f,g,h,i->ej", self.tensor, *self.vectors, optimize=True)
            sum(j * 0.5 for j in range(300))
        self.block.copy()
        self.times.append(time.perf_counter() - start)

    def speed(self) -> float:
        """REFERENCE_S over the run's 10th-percentile probe time (above 1: a fast machine)."""
        q10 = statistics.quantiles(self.times, n=10)[0] if len(self.times) > 1 else self.times[0]
        return self.REFERENCE_S / q10


def run_pass(cli, commands, failures: list, probe: SpeedProbe | None = None) -> list[float]:
    times = []
    for command in commands:
        if probe is not None:
            probe()
        duration, reason = execute(cli, command)
        times.append(duration)
        if reason is not None:
            failures.append({"argv": command.argv, "reason": reason})
    return times


def floors(passes: list[list[float]]) -> list[float]:
    """Each command's fastest time over the passes of a run.

    Other tenants of a shared machine only ever add time.  On a shared
    2-vCPU machine, over runs a few minutes apart, the sum of these
    minima spread about a third as much as the sum of the medians.
    """
    return [min(column) for column in zip(*passes)]


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# -- the two kinds of run ------------------------------------------------------


def end_to_end(cli, workload, seconds, min_passes, setups, failures) -> tuple[dict, int, dict]:
    """Passes over the command list, with the set-up timings spread between them.

    The machine's speed drifts over tens of seconds, so each command's
    fastest time is steadier the longer the span its repeats cover.  The
    fresh-interpreter set-ups are therefore timed at even steps through
    the window instead of before it, and the last pass is started only
    if its expected end falls nearer the window's end than not.
    """
    passes: list[list[float]] = []
    setup_times: list[float] = []
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup_times) < setups and elapsed >= seconds * len(setup_times) / setups:
            setup_times.append(setup_seconds())
            continue
        pass_s = statistics.median(map(sum, passes)) if passes else 0.0
        if passes and (
            elapsed >= MAX_LOOP_S or (len(passes) >= min_passes and elapsed + pass_s / 2 > seconds)
        ):
            break
        passes.append(run_pass(cli, workload.commands, failures, probe))
    while len(setup_times) < setups:  # only when the window was shorter than the passes
        setup_times.append(setup_seconds())
    best = floors(passes)
    raw = {"wall_s": sum(best), "cmd_p50_s": statistics.median(best), "cmd_p90_s": percentile_90(best)}
    speed = probe.speed()
    metrics = {
        "setup_s": statistics.median(setup_times),
        **{name: value * speed for name, value in raw.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "speed": speed,
        "unscaled": raw,
        "probe_times": probe.times,
        "setup_times": setup_times,
        "commands": [{"argv": c.argv, "best_s": t} for c, t in zip(workload.commands, best)],
    }
    return metrics, sum(map(len, passes)), detail


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass stage times and counts of the traced passes."""
    t, calls, counts = tracer.stage_time, tracer.calls, tracer.counts
    restarts = counts["oracle.restarts"]
    shot_s = t["measurements.shot"]
    per_pass = {
        "linalg.validate_s": t["linalg.validate"],
        "linalg.density_validations": calls["linalg.validate"],
        "linalg.random_density_s": t["linalg.random_density"],
        "states.build_s": t["states.build"],
        "states.calls": sum(n for name, n in calls.items() if name.startswith("states.")),
        "witness.construct_s": t["witness.construct"],
        "witness.evaluate_s": t["witness.evaluate"],
        "witness.evaluate_calls": calls["witness.evaluate"],
        "spin.projection_family_s": t["spin.projection_family"],
        "measurements.decompose_s": t["measurements.decompose"],
        "measurements.weighted_sum_s": t["measurements.weighted_sum"],
        "measurements.weighted_sum_calls": calls["measurements.weighted_sum"],
        "measurements.residual_s": t["measurements.residual"],
        "measurements.joint_prob_s": t["measurements.joint_prob"],
        "measurements.joint_prob_calls": calls["measurements.joint_prob"],
        "measurements.shot_s": shot_s,
        "oracle.seesaw_s": t["oracle.seesaw"],
        "oracle.seesaw_calls": calls["oracle.min_over_products"],
        "oracle.ppt_s": t["oracle.ppt"],
        "oracle.ppt_cuts": counts["oracle.ppt_cuts"],
        "upb.epsilon_s": t["upb.epsilon"],
        "upb.witness_s": t["upb.witness"],
        "io.save_s": t["io.save"],
        "io.bytes_written": counts["io.bytes_written"],
        "io.load_s": t["io.load"],
        "io.bytes_read": counts["io.bytes_read"],
        "cli.self_s": t["cli.self"],
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    # ratios over the whole run; 0 where the stage never ran
    metrics["measurements.shots_per_s"] = counts["measurements.shots"] / shot_s if shot_s else 0.0
    metrics["oracle.seesaw_s_per_restart"] = t["oracle.seesaw"] / restarts if restarts else 0.0
    metrics["oracle.consensus_ratio"] = counts["oracle.consensus"] / restarts if restarts else 0.0
    return metrics


def traced(cli, workload, seconds, failures, out, seed, probe_sizes) -> tuple[dict, int, dict]:
    tracer = Tracer()
    untraced_passes, traced_passes = [], []
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < seconds:
        untraced_passes.append(run_pass(cli, workload.commands, failures))
        tracer.install()
        try:
            traced_passes.append(run_pass(cli, workload.commands, failures))
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced_passes))
    metrics["trace.overhead_s"] = sum(floors(traced_passes)) - sum(floors(untraced_passes))
    attempted = sum(map(len, untraced_passes + traced_passes))
    detail = {"calls": dict(tracer.calls), "counts": dict(tracer.counts)}

    defects = known_defects(seed)
    metrics["known_defects"] = sum(outcome is not None for outcome in defects.values())
    tracer.install()
    try:
        metrics.update(run_probe(tracer, out, seed, **probe_sizes))
    finally:
        tracer.uninstall()
    detail["known_defects"] = defects
    detail["spans"] = tracer.spans
    return metrics, attempted, detail


def run(name, seed, seconds, trace, *, min_passes=MIN_PASSES, setups=SETUPS, probe_sizes=None):
    """One benchmark run; returns (result line, full record)."""
    cli = load_witgeo()
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[name](random.Random(seed), out)
    env = environment(seed)
    failures: list = []
    run_pass(cli, workload.prepare, failures)
    detail = {}
    if trace:
        metrics, attempted, detail = traced(cli, workload, seconds, failures, out, seed, probe_sizes or {})
    else:
        metrics, attempted, detail = end_to_end(cli, workload, seconds, min_passes, setups, failures)
    attempted += len(workload.prepare)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {"workload": name, "trace": trace, "env": env, "result": result, "failures": failures, **detail}
    return result, record


def unit_of(metric: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    if metric.endswith(".exp"):
        return "exponent"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or metric.endswith("_s_per_restart"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.startswith("io.bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print("env " + json.dumps(record["env"]))
    print(f"fail_ratio {result['failed'] / result['attempted']!r} ({result['failed']}/{result['attempted']} commands)")
    for failure in record["failures"][:20]:
        print(f"failed: {' '.join(failure['argv'])}: {failure['reason']}")
    if "speed" in record:
        print(f"speed {record['speed']!r} (times below are scaled by it); unscaled "
              + ", ".join(f"{name} {value!r} s" for name, value in record["unscaled"].items()))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
