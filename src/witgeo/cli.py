# src/witgeo/cli.py

"""Command-line surface: construct, decompose, verify, estimate, threshold.

Every run emits one JSON report (or key,value CSV with --format csv) on
stdout; matrices go to sibling files under --out.  Randomized commands
require an explicit --seed.  Exit codes: 0 success, 1 verification
failure, 2 bad input (BadInput where an argument, option or file enters,
or an OSError), 3 anything else: a fault in the program, in one form.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import io as wio
from .linalg import BadInput, check_size
from .measurements import (
    WitnessDecomposition,
    far_face_decomposition,
    ghz_settings,
    ghz_witness,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_decomposition,
    three_qubit_witness,
)
from .oracle import MAX_RESTARTS, SeeSawConfig, min_over_products, ppt_report
from .spin import is_prime
from .states import completely_random
from .upb import estimate_epsilon, far_face_witness, tiles, uniform_mixture
from .witness import (
    DETECTION_TOL,
    Witness,
    evaluate,
    frustum_predicate,
    identity_deviation,
    qudit_detection_predicate,
    two_qubit_noise_threshold,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


class Target(NamedTuple):
    name: str
    witness: Witness
    # builds the measurement settings; a command that needs them calls it once
    decompose: Callable[[], WitnessDecomposition]
    extras: dict


def _build_target(args) -> Target:
    kind = args.target
    if kind == "bell2":
        return Target("bell2", standard_witness(2), lambda: qudit_decomposition(2), {})
    if kind == "qudit":
        d = _int_param(args.params[0], "d")
        check_size(d * d, f"{d}^2")  # before the primality test
        if not is_prime(d):
            raise BadInput(f"qudit dimension must be prime, got {d}")
        return Target(f"qudit{d}", standard_witness(d), lambda: qudit_decomposition(d), {})
    if kind == "ghz":
        n = _int_param(args.params[0], "n")
        check_size(2 ** min(n, 13), f"2^{n}")  # capped: 2^n of a huge n is itself huge
        g = ghz_witness(n)
        extras = {"a": g.a, "b": g.b, "c": g.c, "mixing": g.mixing}
        return Target(f"ghz{n}", g.witness, lambda: ghz_settings(g), extras)
    if kind == "threeq":
        m = _float_param(args.params[0], "m")
        t = _float_param(args.params[1], "t")
        w = three_qubit_witness(m, t)
        return Target(f"threeq_m{m}_t{t}", w, lambda: three_qubit_decomposition(t), {})
    # upb, the last target the parser admits
    source = args.params[0] if args.params else "tiles"
    upb = tiles() if source == "tiles" else wio.load_upb(source)
    mu0 = uniform_mixture(upb)  # the see-saw, rho0 and the witness share it
    cfg = SeeSawConfig(restarts=args.restarts, seed=args.seed)
    eps, seesaw = estimate_epsilon(upb, mu0, cfg)
    extras = {
        "epsilon": eps,
        "consensus": f"{seesaw.consensus}/{seesaw.restarts}",
        "m": upb.m,
        "N": upb.n,
    }
    w = far_face_witness(upb, mu0, eps)
    return Target("upb", w, lambda: far_face_decomposition(upb, eps), extras)


def _int_param(text, name) -> int:
    """An integer from command-line text; the builders check its range."""
    try:
        return int(text)
    except ValueError:
        raise BadInput(f"invalid integer parameter {name!r}") from None


def _float_param(text, name) -> float:
    """A finite float from command-line text."""
    try:
        value = float(text)
    except ValueError:
        raise BadInput(f"invalid parameter {name!r}") from None
    if not math.isfinite(value):
        raise BadInput(f"parameter {name!r} must be finite, got {value}")
    return value


def _scalar(value, tol=None, stderr=None) -> dict:
    out = {"value": float(value)}
    if tol is not None:
        out["tol"] = float(tol)
    if stderr is not None:
        out["stderr"] = float(stderr)
    return out


def _emit(report: dict, args) -> None:
    if args.quiet:
        print(report.get("headline", ""))
        return
    if args.format == "csv":
        for key, value in _flatten(report):
            print(f"{key},{value}")
        return
    print(json.dumps(report, indent=2))


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def cmd_witness(args) -> tuple:
    target = _build_target(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wfile = out / f"{target.name}_witness.json"
    taufile = out / f"{target.name}_tau0.json"
    rhofile = out / f"{target.name}_rho0.json"
    w = target.witness
    wio.save_witness(wfile, w)
    wio.save_matrix(taufile, w.tau0.mat, w.tau0.dims)
    wio.save_matrix(rhofile, w.rho0.mat, w.rho0.dims)
    outputs = {
        "c0": _scalar(w.c0, tol=1e-12),
        "detection_value": _scalar(w.detection_value, tol=DETECTION_TOL),
        "witness_file": str(wfile),
        "tau0_file": str(taufile),
        "rho0_file": str(rhofile),
    }
    if w.s0 is not None:
        outputs["s0"] = _scalar(w.s0, tol=1e-12)
    for key, value in target.extras.items():
        outputs[key] = _scalar(value, tol=1e-12) if isinstance(value, float) else value
    body = {"target": target.name, "inputs": {"params": args.params}, "outputs": outputs}
    return body, w.c0, EXIT_OK


def cmd_decompose(args) -> tuple:
    target = _build_target(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dfile = out / f"{target.name}_decomposition.json"
    dec = target.decompose()
    wio.save_decomposition(dfile, dec)
    residual = dec.residual(target.witness)
    settings = len(dec.settings)
    outputs = {
        "settings": settings,
        "reconstruction_residual": _scalar(residual, tol=1e-10),
        "decomposition_file": str(dfile),
    }
    code = EXIT_OK if residual <= 1e-10 else EXIT_INTERNAL
    return {"target": target.name, "outputs": outputs}, settings, code


def cmd_verify(args) -> tuple:
    # the upb target set eps by a see-saw on seed; restarts from that stream
    # would land on the same minimum and make this check read 0 by construction
    seesaw = SeeSawConfig(restarts=args.restarts, seed=args.seed + 1)
    target = _build_target(args)
    w = target.witness
    checks = []

    report_ppt = ppt_report(w.rho0)
    ppt_needed = args.target in ("threeq", "upb")
    if ppt_needed:
        checks.append(("ppt_all_cuts", report_ppt.minimum >= -1e-10, report_ppt.minimum))

    identity = identity_deviation(w)
    checks.append(("induced_inner_product_identity", identity <= 1e-10, identity))

    residual = target.decompose().residual(w)
    checks.append(("decomposition_reconstruction", residual <= 1e-10, residual))

    checks.append(("detects_target", w.detection_value < -DETECTION_TOL, w.detection_value))

    oracle = min_over_products(w.matrix, w.dims, seesaw)
    checks.append(("positive_on_products", oracle.value >= -1e-8, oracle.value))

    failed = [name for name, ok, _ in checks if not ok]
    body = {
        "target": target.name,
        "checks": {name: {"passed": ok, "value": val} for name, ok, val in checks},
        "ppt_min_eigenvalues": {
            "+".join(str(p) for p in cut): _scalar(v, tol=1e-10)
            for cut, v in report_ppt.min_eigenvalues.items()
        },
        "confidence": {"seesaw": oracle.summary()},
        "failed": failed,
    }
    if failed:
        return body, f"fail:{','.join(failed)}", EXIT_VERIFY_FAIL
    return body, "pass", EXIT_OK


def cmd_estimate(args) -> tuple:
    target = _build_target(args)
    w = target.witness
    state = completely_random(w.dims) if args.state == "d0" else getattr(w, args.state)
    if args.decomposition is None:
        dec = target.decompose()
    else:
        dec = wio.load_decomposition(args.decomposition)
        if dec.dims != w.dims:
            raise BadInput(f"decomposition shape {dec.dims} does not match target {w.dims}")
    est = shot_estimate(dec, state, args.shots, args.seed)
    exact = evaluate(w, state)
    # a gap means the settings measure another observable; on d0 any basis gives
    # uniform outcomes, so a wrong basis passes there and d0's estimate is still right
    gap = abs(est.expectation - exact)
    if not gap <= 1e-10:  # also catches NaN
        text = f"settings give {est.expectation!r}, the witness {exact!r} (gap {gap:.3e})"
        if args.decomposition is None:
            raise AssertionError(f"decomposition does not measure the witness: {text}")
        raise BadInput(f"decomposition {args.decomposition} measures another target: {text}")
    # floored at the rounding scale: near 1e17 shots, outcomes of probability ~1e-17 get drawn
    scale = abs(dec.identity_coeff) + sum(abs(sw) * abs(s.weights).max() for sw, s in dec.settings)
    stderr = max(est.stderr, np.finfo(float).eps * scale)
    z = (est.estimate - exact) / stderr if est.stderr > 0 else 0.0
    body = {
        "target": target.name,
        "inputs": {"state": args.state, "shots_per_setting": args.shots},
        "outputs": {
            "estimate": _scalar(est.estimate, stderr=est.stderr),
            "exact": _scalar(exact, tol=1e-12),
            "z_score": _scalar(z),
        },
    }
    return body, est.estimate, EXIT_OK


def _parse_amps(text: str) -> np.ndarray:
    """Amplitudes from a file holding a flat JSON list of numbers, or a comma list."""
    if Path(text).exists():
        return wio.load_amplitudes(text)
    return np.array([_float_param(a, "amplitudes") for a in text.split(",")])


def _unit(values, zero: str) -> np.ndarray:
    """Rounded input over its norm; the largest magnitude goes first: no overflow, no subnormals."""
    scale = np.abs(values).max(initial=0)  # an empty amplitudes file is all zero
    if scale == 0:
        raise BadInput(zero)
    values = np.divide(values, scale)
    return values / np.linalg.norm(values)


def cmd_threshold(args) -> tuple:
    kind = args.kind
    if kind == "twoqubit":
        ab = [_float_param(args.params[0], "a"), _float_param(args.params[1], "b")]
        delta = _float_param(args.params[2], "delta")
        value = two_qubit_noise_threshold(*_unit(ab, "a and b cannot both be zero"), delta)
        outputs = {"threshold": _scalar(value, tol=1e-15)}
    elif kind == "qudit":
        d = _int_param(args.params[0], "d")
        if d < 2:
            raise BadInput(f"qudit dimension must be at least 2, got {d}")
        amps = _unit(_parse_amps(args.params[1]), "amplitudes cannot all be zero")
        p = _float_param(args.params[2], "p")
        delta = _float_param(args.params[3], "delta")
        value = qudit_detection_predicate(d, amps, p, delta)
        outputs = {"detected": bool(value)}
    else:  # frustum, the last kind the parser admits
        p, delta, n, m, b, eps = (_float_param(x, "frustum args") for x in args.params)
        if not (n.is_integer() and m.is_integer()):
            raise BadInput(f"frustum N and m must be integers, got {n} and {m}")
        value = frustum_predicate(p, delta, int(n), int(m), b, eps)
        outputs = {"detected": bool(value)}
    return {"kind": kind, "inputs": {"params": args.params}, "outputs": outputs}, value, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witgeo",
        description="Entanglement witnesses from separable-set geometry: "
        "construction, local-measurement decomposition, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--quiet", action="store_true")

    def add_target(name, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("target", choices=["bell2", "qudit", "ghz", "threeq", "upb"])
        p.add_argument("params", nargs="*", help="qudit D, ghz N, threeq M T, upb [tiles|FILE]")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--restarts", type=int, default=32)
        add_report(p)
        return p

    add_target("witness", "construct a witness").add_argument("--out", default=".")
    add_target("decompose", "emit measurement settings").add_argument("--out", default=".")
    add_target("verify", "run the invariant suite")
    est = add_target("estimate", "finite-shot estimate of Tr(W rho) and its z-score")
    est.add_argument("--shots", type=int, default=10000)
    est.add_argument("--state", choices=["rho0", "tau0", "d0"], default="rho0")
    est.add_argument(
        "--decomposition", default=None, help="use a stored decomposition document"
    )
    thr = sub.add_parser("threshold", help="detection thresholds and predicates")
    thr.add_argument("kind", choices=["twoqubit", "qudit", "frustum"])
    thr.add_argument(
        "params", nargs="*",
        help="twoqubit A B DELTA, qudit D AMPS P DELTA, frustum P DELTA N M B EPS",
    )
    add_report(thr)
    return parser


_HANDLERS = {
    "witness": cmd_witness,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "estimate": cmd_estimate,
    "threshold": cmd_threshold,
}


# How many positional parameters each target and threshold kind takes.
_PARAM_COUNTS = {"bell2": (0,), "qudit": (1,), "ghz": (1,), "threeq": (2,), "upb": (0, 1),
                 "threshold twoqubit": (3,), "threshold qudit": (4,), "threshold frustum": (6,)}


def _check_options(args) -> None:
    """Reject a parameter count, and --seed and --restarts values, before any work."""
    form = f"threshold {args.kind}" if args.command == "threshold" else args.target
    if len(args.params) not in _PARAM_COUNTS[form]:
        counts = " or ".join(map(str, _PARAM_COUNTS[form]))
        raise BadInput(f"{form}: parameter count {len(args.params)}, expected {counts}")
    if not hasattr(args, "seed"):  # threshold takes neither
        return
    if args.seed is None and (args.command in ("verify", "estimate") or args.target == "upb"):
        raise BadInput(f"{args.command} {args.target} requires an explicit --seed")
    if args.seed is not None and args.seed < 0:  # verify's seed + 1 would make -1 valid
        raise BadInput(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.restarts <= MAX_RESTARTS:
        raise BadInput(f"--restarts must lie in [1, {MAX_RESTARTS}], got {args.restarts}")


def _run(args) -> int:
    """Run one command; its handler returns the report body, headline and exit code."""
    _check_options(args)
    t0 = time.perf_counter()
    body, headline, code = _HANDLERS[args.command](args)
    report = {"command": args.command, **body}
    if hasattr(args, "seed"):  # threshold takes no --seed
        report["seed"] = args.seed
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    report["headline"] = headline
    _emit(report, args)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (BadInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a fault in the program, not in the input or the result
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
