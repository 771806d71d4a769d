"""Source-level rules for the witgeo package."""

import ast
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
