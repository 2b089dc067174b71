"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

import fuzzrel
from fuzzrel import ImplicationKind

PACKAGE = Path(fuzzrel.__file__).parent


def parsed(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def arithmetic_body() -> ast.FunctionDef:
    (body,) = [
        node for node in parsed("algebra.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "arithmetic"
    ]
    return body


#: The functions of `algebra.arithmetic` that run m n k times per system:
#: six thresholds and the product ratio, `shifted_bounds`, the three max-t
#: cells, the Goguen and Lukasiewicz report cells and the Godel report
#: column, which computes a whole column of cells in one sweep.
HOT = r"\w+_threshold|maxprod_ratio|shifted_bounds|\w+_maxt_cell|\w+_stats|godel_column"


def hot_formulas() -> list[ast.FunctionDef]:
    functions = [
        node for node in ast.walk(arithmetic_body())
        if isinstance(node, ast.FunctionDef) and re.fullmatch(HOT, node.name)
    ]
    assert len(functions) == 13
    assert {f.name for f in functions} >= {"godel_column", "goguen_stats", "luka_stats"}
    return functions


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
    found = [
        f"algebra.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(arithmetic_body())
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
    ]
    assert found == []


def formulas_written(module: str) -> list[str]:
    """Each lambda, and each comparison or match on an ImplicationKind
    member, in `module` of the package."""
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

    return [
        f"{module}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(parsed(module))
        if writes_a_formula(node)
    ]


def test_oracle_writes_no_formula():
    # the oracle evaluates the formulas of `algebra.arithmetic`, reading the
    # per-kind tables of FLOAT and EXACT; a lambda or a branch on the kind
    # there would be a second copy of some t-norm or residuum
    assert formulas_written("oracle.py") == []


def test_report_writes_no_formula():
    # the report reads its cells from `FLOAT.cells` and keeps only the row
    # rules, in a table; a lambda or a branch on the kind there would be a
    # cell formula or a row rule outside its table
    assert formulas_written("report.py") == []


def test_report_calls_no_threshold():
    # the thresholds run inside the cell formulas of `algebra.arithmetic`,
    # for any number type; a call to one from `report` would be a float-only
    # cell formula growing back there
    found = [
        f"report.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(parsed("report.py"))
        if isinstance(node, ast.Call)
        and re.fullmatch(r"\w+_threshold|maxprod_ratio", ast.unparse(node.func).split(".")[-1])
    ]
    assert found == []


def test_hot_formulas_call_no_builtin_min_max():
    # the thresholds and cell formulas run m n k times per system, and a
    # two-argument min/max or a max over a generator costs several times the
    # conditional or loop that replaces it (see `algebra.arithmetic`); a
    # call on one iterable, or with a starred argument, stays allowed.  The
    # whole of `arithmetic` is checked, the hot formulas among it.
    hot_formulas()

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
        f"algebra.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(arithmetic_body())
        if slow(node)
    ]
    assert found == []


def test_hot_formulas_call_no_pos():
    # the thresholds, the cells and `shifted_bounds` write a positive part
    # as `x if x > zero else zero`, since a call to `pos` costs more than
    # the comparison it makes
    found = [
        f"{function.name}:{node.lineno}: {ast.unparse(node)}"
        for function in hot_formulas()
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "pos"
    ]
    assert found == []
