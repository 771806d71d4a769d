"""Print every line of the witgeo package that no tier-1 test runs.

Runs the suite in this process under sys.settrace, recording lines only in
frames whose code lives in src/witgeo, then lists each executable line (from
the code objects' co_lines()) that none of them reached.  Commands that the
tests start as subprocesses are not counted.  pytest does not collect it:

    python tests/reached_lines.py [pytest options]
"""

import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "witgeo"
reached = set()
_paths = {}  # co_filename -> its path if it is a package module, else None


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _paths:
        _paths[name] = path if (path := Path(name).resolve()).parent == PACKAGE else None
    if _paths[name] is None:
        return None
    reached.add((_paths[name], frame.f_lineno))
    return _trace


def _lines(code):
    yield from (line for *_, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


if __name__ == "__main__":
    sys.settrace(_trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = sorted(set(_lines(compile(source, str(path), "exec"))))
        text = source.splitlines()
        for line in (n for n in lines if (path, n) not in reached):
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {text[line - 1].strip()}")
    sys.exit(status)
