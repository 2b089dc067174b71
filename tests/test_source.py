"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import fuzzrel

PACKAGE = Path(fuzzrel.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_numeric_literals_in_arithmetic():
    # every literal of the shared formulas derives from `zero` and `one`; a
    # float literal would silently round each Fraction result of oracle.EXACT
    tree = ast.parse((PACKAGE / "algebra.py").read_text(encoding="utf-8"))
    (body,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "arithmetic"
    ]
    found = [
        f"algebra.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(body)
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
    ]
    assert found == []
