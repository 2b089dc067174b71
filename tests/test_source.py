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
