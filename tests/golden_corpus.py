"""Golden corpus: the exact output of a fixed list of CLI commands.

Each entry holds a command's argv, exit code, stderr, JSON report
without ``wall_time_s`` and the sha256 of every file its report names.
``OUT`` stands for the output directory, in argv and in the recorded
text alike.  The commands are the benchmark's three workloads at
workload seed 1 (prepare commands included, each distinct argv once, in
order of first appearance), ``qudit 2``, and the Shifts and Pyramid UPB
files of ``upb_ladder`` through all four commands, ``estimate`` also on the
decomposition that ``decompose`` wrote.  They run in one
process, in order: an ``estimate --decomposition`` reads the file an
earlier ``decompose`` wrote.

``tests/test_golden_corpus.py`` compares the bytes.  A change that moves
report or file bytes regenerates the corpus in the same commit, so the
diff shows every moved value:

    PYTHONPATH=src python tests/golden_corpus.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from witgeo.cli import main

from upb_document import upb_doc
from upb_ladder import pyramid, shifts

CORPUS = Path(__file__).resolve().parent / "golden_corpus.json"
UPB_FILES = {"shifts.json": shifts, "pyramid.json": pyramid}


def _upb(name: str) -> list[list[str]]:
    common = [f"OUT/{name}.json", "--seed", "3", "--restarts", "8"]
    return [
        ["witness", "upb", *common, "--out", "OUT"],
        ["decompose", "upb", *common, "--out", "OUT"],
        ["verify", "upb", *common],
        ["estimate", "upb", *common],
        # the completed bases of the file's factors, read back through the reader's checks
        ["estimate", "upb", *common, "--decomposition", "OUT/upb_decomposition.json"],
    ]


def _estimate(target: list[str], seed: str, state: str, stored: bool = False) -> list[str]:
    argv = ["estimate", *target, "--shots", "100000", "--seed", seed, "--state", state]
    if stored:
        argv += ["--decomposition", f"OUT/{''.join(target)}_decomposition.json"]
    return argv


_BUILD = (
    [["bell2"]]
    + [["qudit", d] for d in ("3", "5", "7", "11", "13")]
    + [["ghz", str(n)] for n in range(3, 9)]
    + [["threeq", "0", "0.0625"], ["threeq", "0.03125", "0.0625"], ["threeq", "0", "0.125"]]
)

COMMANDS = (
    # build-ladder
    [[cmd, *t, "--out", "OUT"] for t in _BUILD for cmd in ("witness", "decompose")]
    + [
        [cmd, "upb", "tiles", "--out", "OUT", "--seed", "547756575", "--restarts", "8"]
        for cmd in ("witness", "decompose")
    ]
    # verify-seesaw
    + [
        ["verify", *t, "--seed", seed, "--restarts", "32"]
        for t, seed in [
            (["bell2"], "288545019"),
            (["bell2"], "1222356006"),
            (["qudit", "3"], "1819850096"),
            (["qudit", "3"], "1722851097"),
            (["qudit", "5"], "1640193507"),
            (["qudit", "5"], "135520873"),
            (["qudit", "7"], "547756575"),
            (["qudit", "7"], "253228485"),
            (["qudit", "7"], "1063938750"),
            (["threeq", "0", "0.125"], "1634154403"),
            (["upb", "tiles"], "965274706"),
            (["upb", "tiles"], "1014138929"),
            (["ghz", "3"], "1399285262"),
            (["ghz", "4"], "815217484"),
            (["ghz", "5"], "1693770508"),
        ]
    ]
    # estimate-shots; its prepare commands are build-ladder decompose commands above
    + [
        _estimate(["bell2"], "288545019", "rho0"),
        _estimate(["qudit", "3"], "1222356006", "tau0", stored=True),
        _estimate(["qudit", "5"], "1819850096", "d0"),
        _estimate(["qudit", "7"], "1722851097", "rho0", stored=True),
        _estimate(["qudit", "11"], "1640193507", "tau0"),
        _estimate(["qudit", "13"], "135520873", "d0", stored=True),
        _estimate(["ghz", "4"], "547756575", "rho0"),
        _estimate(["ghz", "5"], "253228485", "tau0", stored=True),
        _estimate(["ghz", "6"], "1063938750", "d0"),
        _estimate(["ghz", "7"], "1634154403", "rho0", stored=True),
        _estimate(["ghz", "8"], "965274706", "tau0"),
        _estimate(["bell2"], "1014138929", "tau0", stored=True),
        _estimate(["qudit", "3"], "1399285262", "d0"),
        _estimate(["qudit", "5"], "815217484", "rho0", stored=True),
        _estimate(["qudit", "7"], "1693770508", "tau0"),
        _estimate(["qudit", "11"], "450874519", "d0", stored=True),
        _estimate(["qudit", "13"], "201561927", "rho0"),
        _estimate(["ghz", "4"], "1047664194", "tau0", stored=True),
        _estimate(["ghz", "5"], "60875733", "d0"),
        _estimate(["ghz", "6"], "1918383732", "rho0", stored=True),
        _estimate(["ghz", "7"], "1794791898", "tau0"),
        _estimate(["ghz", "8"], "837108039", "d0", stored=True),
    ]
    # qudit 2: the bell2 witness under its qudit name
    + [["witness", "qudit", "2", "--out", "OUT"], ["decompose", "qudit", "2", "--out", "OUT"]]
    + _upb("shifts")
    + _upb("pyramid")
)


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _entry(argv: list[str], out: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([a.replace("OUT", str(out)) for a in argv])
    text = stdout.getvalue().replace(str(out), "OUT")
    report = json.loads(text) if text else None
    files = {}
    if report is not None:
        del report["wall_time_s"]
        for key, path in report.get("outputs", {}).items():
            if key.endswith("_file"):
                real = path.replace("OUT", str(out))
                files[path] = hashlib.sha256(Path(real).read_bytes()).hexdigest()
    return {
        "argv": argv,
        "exit": code,
        "stderr": stderr.getvalue().replace(str(out), "OUT"),
        "report": report,
        "files": files,
    }


def generate(out: Path) -> dict:
    """Run every command with output directory ``out``; the corpus document."""
    out.mkdir(parents=True, exist_ok=True)
    for name, build in UPB_FILES.items():
        (out / name).write_text(json.dumps(upb_doc(build())))
    return {**versions(), "commands": [_entry(argv, out) for argv in COMMANDS]}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        CORPUS.write_text(render(generate(Path(tmp))))
