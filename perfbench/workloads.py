"""Workloads: the witgeo CLI commands one benchmark pass runs, with their checks.

A workload is the list of ``Command``s that one pass runs; every pass of a
run repeats the same list.  A command is a CLI argv plus a check that
compares the command's exit code and JSON report with its closed form or
documented result; the check returns a failure reason, or ``None`` when
the output is correct.  Every ``--seed`` handed to the CLI is drawn from
the workload's own ``random.Random``, so one workload seed fixes every
input.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, NamedTuple

# Shots per setting for estimate-shots.  One million (the roadmap's
# figure) makes the heavy targets take over a second each.  This count
# gives each command a dozen repeats spread over a 40 s run, while joint
# probabilities and sampling still take most of the time.
SHOTS = 100_000
# See-saw restarts for verify-seesaw (the CLI default).
RESTARTS = 32
# See-saw restarts for the far-face epsilon in build-ladder, which
# stresses construction and saving rather than the see-saw.
LADDER_UPB_RESTARTS = 8

TILES_MEMBERS = 5  # m of the in-repo tiles UPB on a 3 x 3 system
TILES_SIZE = 9

Check = Callable[[int, dict], "str | None"]


class Command(NamedTuple):
    argv: list[str]
    check: Check


class Workload(NamedTuple):
    prepare: list[Command]   # untimed commands run once before timing
    commands: list[Command]  # one pass; every pass of a run repeats it


def ghz_c0(n: int) -> float:
    """c0 of the GHZ witness from the segment between dephased and corner states.

    Entries of rho0 - corner and dephased - corner take three values
    (end diagonal, inner diagonal, corner coherence), so the closest
    segment point and c0 = Tr[tau0 (rho0 - tau0)] reduce to scalars.
    """
    size = 2.0**n
    end, inner = 0.5 - 1 / size, -1 / size
    diff_sq = 2 * end * end + size * inner * inner
    diff_resid = 2 * end * end + (size - 2) * inner * inner + 2 * inner * end
    x = min(1.0, max(0.0, diff_resid / diff_sq))
    t_end = 0.5 * x + (1 - x) / size
    t_off = (1 - x) / size
    return 2 * t_end * (0.5 - t_end) - (size - 2) * t_off * t_off + 2 * t_off * (0.5 - t_off)


def closed_form_c0(target: tuple[str, ...]) -> float | None:
    kind = target[0]
    if kind == "bell2":
        return 1 / 6
    if kind == "qudit":
        d = int(target[1])
        return (d - 1) / (d * (d + 1))
    if kind == "ghz":
        return ghz_c0(int(target[1]))
    if kind == "threeq":
        return float(target[2]) / 4
    return None  # upb: epsilon comes from the see-saw


def expected_settings(target: tuple[str, ...]) -> int:
    kind = target[0]
    if kind == "bell2":
        return 3
    if kind in ("qudit", "ghz"):
        return int(target[1]) + 1
    if kind == "threeq":
        return 4
    return TILES_MEMBERS


def _value(report: dict, key: str) -> float:
    return report["outputs"][key]["value"]


def check_witness(target: tuple[str, ...]) -> Check:
    expected = closed_form_c0(target)

    def check(rc, report):
        if rc != 0:
            return f"exit {rc}"
        if _value(report, "detection_value") >= -1e-10:
            return "witness does not detect its target"
        c0 = _value(report, "c0")
        if expected is not None and abs(c0 - expected) > 1e-12:
            return f"c0 {c0!r} != closed form {expected!r}"
        if target[0] == "upb":
            eps = _value(report, "epsilon")
            if report["outputs"]["m"] != TILES_MEMBERS or not 0 < eps < TILES_MEMBERS / TILES_SIZE:
                return f"far-face data off: m={report['outputs']['m']}, eps={eps}"
        return None

    return check


def check_decompose(target: tuple[str, ...]) -> Check:
    settings = expected_settings(target)

    def check(rc, report):
        if rc != 0:
            return f"exit {rc}"
        if report["outputs"]["settings"] != settings:
            return f"{report['outputs']['settings']} settings, expected {settings}"
        residual = _value(report, "reconstruction_residual")
        if not residual <= 1e-10:
            return f"reconstruction residual {residual}"
        return None

    return check


def check_verify(target: tuple[str, ...]) -> Check:
    # The three-qubit witness is documented to fail product positivity
    # (README, criterion 6): exit 1 naming exactly that check is correct.
    expected_failed = ["positive_on_products"] if target[0] == "threeq" else []
    expected_rc = 1 if expected_failed else 0

    def check(rc, report):
        if rc != expected_rc or report["failed"] != expected_failed:
            return f"exit {rc} with failed checks {report['failed']}"
        return None

    return check


# A standard error at rounding level means every draw carried the same
# weight (rho0 of the qudit witnesses): the estimate is then exact.
ZERO_VARIANCE = 1e-12


def check_estimate(rc, report) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    outputs = report["outputs"]
    estimate, exact = outputs["estimate"]["value"], outputs["exact"]["value"]
    if outputs["estimate"]["stderr"] <= ZERO_VARIANCE:
        # The CLI's z-score divides rounding noise by rounding noise here
        # (a known defect, counted by probe.known_defects), so the check is
        # the stricter one: the estimate equals the exact value.
        if abs(estimate - exact) > 1e-12:
            return f"zero-variance estimate {estimate!r} != exact {exact!r}"
        return None
    z = _value(report, "z_score")
    if not abs(z) <= 5:
        return f"z score {z}"
    return None


def check_repeatable() -> Check:
    """Estimate check that also pins the report to the command's first run.

    Shot streams are keyed by (seed, setting index), so each repeat of the
    same argv must give a bit-identical report apart from the wall time.
    """
    first: dict = {}

    def check(rc, report):
        reason = check_estimate(rc, report)
        if reason:
            return reason
        body = {k: v for k, v in report.items() if k != "wall_time_s"}
        first.setdefault("body", body)
        return None if body == first["body"] else "repeated estimate report differs"

    return check


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


BUILD_TARGETS = (
    [("bell2",)]
    + [("qudit", str(d)) for d in (3, 5, 7, 11, 13)]
    + [("ghz", str(n)) for n in range(3, 9)]
)
THREEQ_POINTS = [("0", "0.125"), ("0", "0.0625"), ("0.03125", "0.0625"), ("0.0625", "0.0625")]


def build_ladder(rng: random.Random, out: Path) -> Workload:
    targets = list(BUILD_TARGETS)
    targets += [("threeq", *p) for p in rng.sample(THREEQ_POINTS, 3)]
    targets.append(("upb", "tiles"))
    commands = []
    for target in targets:
        extra = ["--out", str(out)]
        if target[0] == "upb":
            extra += ["--seed", _seed(rng), "--restarts", str(LADDER_UPB_RESTARTS)]
        commands.append(Command(["witness", *target, *extra], check_witness(target)))
        commands.append(Command(["decompose", *target, *extra], check_decompose(target)))
    return Workload([], commands)


# Weighted so that cmd_p50_s falls on a qudit 7 command, not in the gap
# between two costs.
VERIFY_TARGETS = (
    [("bell2",), ("bell2",)]
    + [("qudit", str(d)) for d in (3, 3, 5, 5, 7, 7, 7)]
    + [("threeq", "0", "0.125"), ("upb", "tiles"), ("upb", "tiles")]
    + [("ghz", str(n)) for n in (3, 4, 5)]
)


def verify_seesaw(rng: random.Random, out: Path) -> Workload:
    commands = [
        Command(["verify", *t, "--seed", _seed(rng), "--restarts", str(RESTARTS)], check_verify(t))
        for t in VERIFY_TARGETS
    ]
    return Workload([], commands)


ESTIMATE_TARGETS = (
    [("bell2",)]
    + [("qudit", str(d)) for d in (3, 5, 7, 11, 13)]
    + [("ghz", str(n)) for n in range(4, 9)]
)
STATES = ("rho0", "tau0", "d0")


def estimate_shots(rng: random.Random, out: Path) -> Workload:
    """Two estimates per target: different states, exactly one from the stored file."""
    prepare = [
        Command(["decompose", *t, "--out", str(out)], check_decompose(t)) for t in ESTIMATE_TARGETS
    ]
    commands = []
    for copy in (0, 1):
        for i, target in enumerate(ESTIMATE_TARGETS):
            argv = [
                "estimate", *target, "--shots", str(SHOTS), "--seed", _seed(rng),
                "--state", STATES[(i + copy) % len(STATES)],
            ]
            if (i + copy) % 2:
                # the file stem the CLI gives a target: bell2, qudit5, ghz4, ...
                argv += ["--decomposition", str(out / f"{''.join(target[:2])}_decomposition.json")]
            commands.append(Command(argv, check_repeatable()))
    return Workload(prepare, commands)


WORKLOADS = {
    "build-ladder": build_ladder,
    "verify-seesaw": verify_seesaw,
    "estimate-shots": estimate_shots,
}
