"""Source-level rules for the witgeo package."""

import ast
import subprocess
import sys
from pathlib import Path

import witgeo

SOURCES = sorted(Path(witgeo.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariant checks raise explicitly: python -O strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, f"assert statements in witgeo: {found}"


def test_no_einsum_calls():
    # contractions go through matmul and kron: einsum plans its path on every call
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
    ]
    assert not found, f"einsum calls in witgeo: {found}"


def test_package_never_loads_scipy():
    # a fresh interpreter: other test modules import scipy into this one
    src = str(Path(witgeo.__file__).parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import witgeo, witgeo.cli; "
        "witgeo.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", f"scipy modules loaded: {out.stdout.strip()}"
