"""Checks over the package source as a whole."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypcert"


def test_no_assert_statements():
    # python -O strips assert, so a check written with it vanishes there
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
