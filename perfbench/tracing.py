"""Span tracer that wraps witgeo's public functions from outside the package.

``Tracer.install`` replaces every public module-level function of the
layer modules (and a few methods that carry the hot paths) with a wrapper
that records one span per call: id, parent id, name, start and end.  It
rebinds every module-global reference to the original, so names imported
with ``from .x import f`` are traced too; ``uninstall`` restores them.

Time is attributed by stage.  A stage is a named piece of a layer
(``linalg.validate``, ``oracle.seesaw``, ...); a traced function that is
not a stage runs inside its caller's stage, and the command's root span
is the ``cli.self`` stage.  Each instant of a command belongs to exactly
one stage, the innermost one, so stage times are self times and add up
to the command's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("cli", "states", "linalg", "witness", "spin", "measurements", "oracle", "upb", "io")

# Methods traced under their own span name: (layer, class, attribute).
METHODS = {
    "linalg.validate": ("linalg", "DensityState", "__post_init__"),
    "witness.check": ("witness", "Witness", "__post_init__"),
    "measurements.weighted_sum": ("measurements", "MeasurementSetting", "weighted_sum"),
    "measurements.joint_prob": ("measurements", "MeasurementSetting", "joint_probabilities"),
    "measurements.residual": ("measurements", "WitnessDecomposition", "residual"),
}

# Per-matrix-element helpers: called tens of thousands of times per qudit
# command, they would only add wrapper cost; their time stays in the
# caller's stage either way.
UNTRACED = {"spin.eta_power", "spin.spin_matrix", "spin.spin_projection", "spin.is_prime"}

BUILDERS = (
    "two_qubit_decomposition",
    "qudit_decomposition",
    "three_qubit_decomposition",
    "ghz_decomposition",
    "far_face_decomposition",
)


def stage_of(name: str) -> str | None:
    """The stage a span starts, or None when it runs inside its caller's stage."""
    layer, func = name.split(".", 1)
    if layer == "states":
        return "states.build"
    if layer == "io":
        return "io.save" if func.startswith("save_") else "io.load" if func.startswith("load_") else None
    return {
        "cli.main": "cli.self",
        "linalg.validate": "linalg.validate",
        "linalg.random_density": "linalg.random_density",
        "witness.nearest_witness": "witness.construct",
        "witness.segment_witness": "witness.construct",
        "witness.check": "witness.construct",
        "witness.evaluate": "witness.evaluate",
        "spin.projection_family": "spin.projection_family",
        "measurements.weighted_sum": "measurements.weighted_sum",
        "measurements.residual": "measurements.residual",
        "measurements.joint_prob": "measurements.joint_prob",
        "measurements.shot_estimate": "measurements.shot",
        "oracle.min_over_products": "oracle.seesaw",
        "oracle.ppt_report": "oracle.ppt",
        "upb.estimate_epsilon": "upb.epsilon",
        "upb.far_face_witness": "upb.witness",
    }.get(name, "measurements.decompose" if layer == "measurements" and func in BUILDERS else None)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _seesaw(counts, args, kwargs, result):
    counts["oracle.restarts"] += result.restarts
    counts["oracle.consensus"] += result.consensus


def _ppt(counts, args, kwargs, result):
    counts["oracle.ppt_cuts"] += len(result.min_eigenvalues)


def _shots(counts, args, kwargs, result):
    counts["measurements.shots"] += result.shots_per_setting * len(_first(args, kwargs, "dec").settings)


def _written(counts, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(_first(args, kwargs, "path"))


def _read(counts, args, kwargs, result):
    counts["io.bytes_read"] += os.path.getsize(_first(args, kwargs, "path"))


def hook_for(name: str):
    """Counter update run after a successful call, from its arguments and result."""
    if name == "oracle.min_over_products":
        return _seesaw
    if name == "oracle.ppt_report":
        return _ppt
    if name == "measurements.shot_estimate":
        return _shots
    if name.startswith("io.save_"):
        return _written
    if name.startswith("io.load_"):
        return _read
    return None


class _Frame:
    __slots__ = ("id", "stage", "child")

    def __init__(self, span_id: int, stage: str):
        self.id = span_id
        self.stage = stage
        self.child = 0.0  # time covered by direct child spans


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the stage times and counters (recorded spans are kept)."""
        self.stage_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _call(self, name, stage, hook, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(self._next_id, stage or (parent.stage if parent else "cli.self"))
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.stage_time[frame.stage] += duration - frame.child
            self.calls[name] += 1
            if parent is not None:
                parent.child += duration
            self.spans.append((frame.id, -1 if parent is None else parent.id, name, start, end))
        if hook is not None:
            hook(self.counts, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        stage, hook = stage_of(name), hook_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, stage, hook, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"witgeo.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(name, obj)
        for mod in [importlib.import_module("witgeo"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
