"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

import fuzzrel
from fuzzrel import ImplicationKind

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


def test_oracle_writes_no_formula():
    # the oracle evaluates the formulas of `algebra.arithmetic`, reading the
    # per-kind tables of FLOAT and EXACT; a lambda or a branch on the kind
    # there would be a second copy of some t-norm or residuum
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    members = set(ImplicationKind.__members__)

    def names_a_kind(node):
        return (isinstance(node, ast.Attribute) and node.attr in members) or (
            isinstance(node, ast.Name) and node.id in members
        )

    def writes_a_formula(node):
        if isinstance(node, ast.Compare):
            return any(map(names_a_kind, [node.left, *node.comparators]))
        if isinstance(node, ast.MatchValue):
            return names_a_kind(node.value)
        return isinstance(node, ast.Lambda)

    found = [
        f"oracle.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if writes_a_formula(node)
    ]
    assert found == []


def test_hot_formulas_call_no_builtin_min_max():
    # the thresholds and cell formulas run m n k times per system, and a
    # two-argument min/max or a max over a generator costs several times the
    # conditional or loop that replaces it (see `algebra.arithmetic`); a
    # call on one iterable, or with a starred argument, stays allowed
    algebra = ast.parse((PACKAGE / "algebra.py").read_text(encoding="utf-8"))
    report = ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))
    functions = [
        node for tree, names in [(algebra, "arithmetic"), (report, r"_\w+_stats")]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and re.fullmatch(names, node.name)
    ]
    assert len(functions) == 4

    def slow(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max")):
            return False
        plain = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
        return (
            len(plain) >= 2
            or any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
            or any(keyword.arg in ("default", "key") for keyword in node.keywords)
        )

    found = [
        f"{function.name}:{node.lineno}: {ast.unparse(node)}"
        for function in functions
        for node in ast.walk(function)
        if slow(node)
    ]
    assert found == []


def test_hot_formulas_call_no_pos():
    # the thresholds, the max-t cells, `shifted_bounds` and the report's cell
    # formulas write a positive part as `x if x > zero else zero`, since a
    # call to `pos` costs more than the comparison it makes
    algebra = ast.parse((PACKAGE / "algebra.py").read_text(encoding="utf-8"))
    report = ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))
    (arithmetic,) = [
        node for node in algebra.body
        if isinstance(node, ast.FunctionDef) and node.name == "arithmetic"
    ]
    names = r"\w+_threshold|maxprod_ratio|\w+_maxt_cell|shifted_bounds|_\w+_stats"
    functions = [
        node for tree in (arithmetic, report)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and re.fullmatch(names, node.name)
    ]
    assert len(functions) == 13
    found = [
        f"{function.name}:{node.lineno}: {ast.unparse(node)}"
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "pos"
    ]
    assert found == []
