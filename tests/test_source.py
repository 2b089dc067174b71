"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

import fuzzrel
import fuzzrel.algebra
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
#: six thresholds and the product ratio, `shifted_bounds`, its two sides
#: `lower_shift` and `upper_shift` and their scalar `shift_down` and
#: `shift_up`, which the interval pass of the exact membership tests calls
#: per term, the three max-t cells and the three
#: report columns, each of which computes a whole column of cells per call;
#: the three row rules, each a loop over a row's n cells; the six
#: compositions, which run m n times per closure; and the three membership
#: tests, which run about 33 times per bisection.
HOT = (
    r"\w+_threshold|maxprod_ratio|shifted_bounds|lower_shift|upper_shift|shift_down|shift_up"
    r"|\w+_maxt_cell"
    r"|(godel|goguen|luka)_column"
    r"|(godel|goguen|luka)_row|\w+_max_t|\w+_min_impl|\w+_membership"
)

KINDS = ("godel", "goguen", "luka")

REPORT_COLUMNS = {f"{kind}_column" for kind in KINDS}

ROW_RULES = {f"{kind}_row" for kind in KINDS}

MEMBERSHIP_LOOPS = {f"{kind}_membership" for kind in KINDS}

COMPOSITIONS = {
    f"{kind}_{composition}" for kind in KINDS for composition in ("max_t", "min_impl")
}


def hot_formulas() -> list[ast.FunctionDef]:
    functions = [
        node for node in ast.walk(arithmetic_body())
        if isinstance(node, ast.FunctionDef) and re.fullmatch(HOT, node.name)
    ]
    assert len(functions) == 29
    assert {f.name for f in functions} >= (
        REPORT_COLUMNS | ROW_RULES | COMPOSITIONS | MEMBERSHIP_LOOPS
    )
    return functions


def calls(function: ast.FunctionDef) -> list[tuple[int, str]]:
    """(line, last dotted name of the callee) of every call in `function`."""
    return [
        (node.lineno, ast.unparse(node.func).split(".")[-1])
        for node in ast.walk(function) if isinstance(node, ast.Call)
    ]


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def numeric_literals(module: str, tree: ast.AST) -> list[str]:
    return [
        f"{module}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float)
    ]


def test_no_numeric_literals_in_arithmetic():
    # every literal of the shared formulas derives from `one`; a
    # float literal would silently round each Fraction result of oracle.EXACT.
    # The row rules are among them: they unpack their cells by field rather
    # than subscript them, which would take an int literal
    hot_formulas()
    assert numeric_literals("algebra.py", arithmetic_body()) == []


def test_report_has_no_numeric_literal():
    # the report skeleton runs on `FLOAT` and `EXACT` alike, so every value
    # it builds comes from its instance's row rules; a literal in `report`,
    # or anything from `math`, would be a float-only rule growing back there
    tree = parsed("report.py")
    assert numeric_literals("report.py", tree) == []
    imported = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "math" not in imported


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


def test_arithmetic_derives_its_own_guards():
    # `arithmetic(one)` reads every guard of the formulas, the key window and
    # the quotient rescale among them, as the type of `one`, so no instance
    # names one: the oracle's EXACT is arithmetic(Fraction(1)).  The
    # membership loops read beta from the front pairs themselves
    parameters = arithmetic_body().args
    assert [a.arg for a in parameters.posonlyargs + parameters.args] == ["one"]
    assert (parameters.vararg, parameters.kwonlyargs, parameters.kwarg) == (None, [], None)
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    named = [name for name in ("KEY_WINDOW", "QUOTIENT_FLOOR", "QUOTIENT_SCALE") if name in source]
    assert named == []
    loops = [
        [a.arg for a in node.args.args] for node in ast.walk(arithmetic_body())
        if isinstance(node, ast.FunctionDef) and node.name in MEMBERSHIP_LOOPS
    ]
    assert loops == [["gamma", "fronts", "rhs", "delta", "slack"]] * 3


def test_report_writes_no_formula():
    # the report reads its cells and row rules from the tables of an
    # `Arithmetic` and keeps only the skeleton that aggregates the rows; a
    # lambda or a branch on the kind there would be a cell formula or a row
    # rule outside its table
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


#: The record types of the report cells, and the two ways to build a record
#: without its generated `__new__`.
RECORDS = {"GodelCellStats", "GoguenCellStats", "LukaCellStats", "_make", "__new__"}


def record_builds() -> list[tuple[str, str, str]]:
    """(module, innermost function, call) of every call in the package that
    builds a cell record: a call of a record type, `_make` or `__new__`, or
    a map or `partial` of one of them."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, module, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call):
                names = [ast.unparse(child.func)]
                if names[0] in ("map", "partial") and child.args:
                    names.append(ast.unparse(child.args[0]))
                if any(name.split(".")[-1] in RECORDS for name in names):
                    found.append((module, function, ast.unparse(child)))
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def test_report_columns_call_no_threshold_and_no_record():
    # each report column writes its thresholds out, with the per-pair and
    # per-cell terms computed once, and returns the plain tuples of its
    # cells' fields: it builds no record, by a record type's generated
    # `__new__` or by a map of `tuple.__new__`; a row builds its records on
    # the first read of its `cells`
    columns = [f for f in hot_formulas() if f.name in REPORT_COLUMNS]
    assert len(columns) == 3
    found = [
        f"{function.name}:{line}: {name}"
        for function in columns
        for line, name in calls(function)
        if re.fullmatch(r"\w+_threshold|maxprod_ratio", name)
    ]
    found += [
        f"{function.name}:{node.lineno}: {ast.unparse(node)}"
        for function in columns
        for node in ast.walk(function)
        if isinstance(node, (ast.Name, ast.Attribute))
        and (getattr(node, "id", None) or node.attr) in RECORDS | {"_Pending", "partial"}
    ]
    assert found == []
    # the one record map of the package is the first read of a row's
    # `cells`, one map per row; `checked_cell` wraps its one cell
    assert record_builds() == [
        ("algebra.py", "__get__", "map(tuple.__new__, repeat(record), fields)"),
        ("report.py", "checked_cell", "tuple.__new__(_RECORDS[system.kind], fields)"),
    ]


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
    # the thresholds, the cells and the shifts write a positive part
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


def module_functions(module: str, names) -> list[ast.FunctionDef]:
    """The functions of `module` named in `names`: top-level functions and
    the methods of its classes."""
    return [
        node for top in parsed(module).body
        for node in ([top] if isinstance(top, ast.FunctionDef) else getattr(top, "body", []))
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]


def test_compositions_map_no_scalar_formula():
    # the public `max_t_compose` and `min_impl_compose` check their operands
    # and hand the rows to the loop of their kind; mapping an entry of
    # `t_norms` or `residua` over a row would be a Python call per entry
    # again.  Neither reads those tables nor maps anything.
    def maps_a_formula(node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return ast.unparse(node).split(".")[-1] in ("t_norms", "residua")
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "map"

    functions = module_functions("algebra.py", ("max_t_compose", "min_impl_compose"))
    assert len(functions) == 2
    found = [
        f"{function.name}:{node.lineno}: {ast.unparse(node)}"
        for function in functions
        for node in ast.walk(function)
        if maps_a_formula(node)
    ]
    assert found == []


def test_arithmetic_checks_nothing():
    # operands are checked once, at the public boundary: by the public
    # functions of `algebra` and when a system is built.  An `Arithmetic`
    # runs on what those checked, so `arithmetic` calls no check, and the
    # middle tier of shape- and kind-checked compositions stays deleted.
    checks = {
        "checked_kind", "checked_index", "checked_tolerance", "unit", "_entries", "_kept",
        "_unit_row", "_unit_grid", "unit_vector", "unit_matrix", "unit_system", "_operands",
    }
    # every name is a function of `algebra`, so a deleted check cannot stay
    # listed here unnoticed
    assert all(callable(getattr(fuzzrel.algebra, name, None)) for name in checks)
    found = [
        f"algebra.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(arithmetic_body())
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in checks
    ]
    assert found == []
    assert not {"max_t_compose", "min_impl_compose", "t_norm", "residuum"} & {
        *fuzzrel.algebra.Arithmetic._fields
    }


def transposes(node) -> bool:
    """Whether `node` lays a matrix out as columns again: a call to
    `transpose` or zip(*...), a comprehension that takes one entry of every
    row (`[row[j] for row in matrix]`), or a call to `column_scan` or to the
    report skeleton `_report` whose columns argument is neither a system's
    prepared `columns` nor the skeleton's own parameter `columns`."""
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)) and len(node.generators) == 1:
        target, elt = node.generators[0].target, node.elt
        return (
            isinstance(target, ast.Name) and isinstance(elt, ast.Subscript)
            and isinstance(elt.value, ast.Name) and elt.value.id == target.id
        )
    if not isinstance(node, ast.Call):
        return False
    name = ast.unparse(node.func).split(".")[-1]
    if name in ("column_scan", "_report"):
        columns = ast.unparse(node.args[0 if name == "column_scan" else 2])
        return not (columns == "columns" or columns.endswith(".columns"))
    return name == "transpose" or (
        name == "zip" and any(isinstance(arg, ast.Starred) for arg in node.args)
    )


def transposing(functions) -> list[str]:
    return [
        f"{function.name}:{node.lineno}: {ast.unparse(node)}"
        for function in functions
        for node in ast.walk(function)
        if transposes(node)
    ]


def test_membership_path_transposes_nothing():
    # the float membership test runs about 33 times per bisection on one
    # system, so it reads what the system keeps: neither
    # `tolerance_membership`, `Arithmetic.solve_and_recompose` nor the
    # membership loops of `Arithmetic.membership` transposes a matrix
    functions = module_functions("oracle.py", ("tolerance_membership",)) + [
        node for node in ast.walk(arithmetic_body())
        if isinstance(node, ast.FunctionDef)
        and node.name in {"solve_and_recompose", *MEMBERSHIP_LOOPS}
    ]
    assert len(functions) == 5
    assert transposing(functions) == []


def test_tolerance_membership_evaluates_no_closure():
    # a bisection needs only a yes or no per delta: `tolerance_membership`
    # runs the membership loop over the system's column fronts and leaves
    # the full evaluation on `solve_and_recompose` to the tests, as the
    # reference of the exact membership tests
    (function,) = module_functions("oracle.py", ("tolerance_membership",))
    called = {
        ast.unparse(node.func).split(".")[-1]
        for node in ast.walk(function) if isinstance(node, ast.Call)
    }
    assert not called & {"_membership", "solve_and_recompose"}
    assert "system.fronts" in {ast.unparse(node) for node in ast.walk(function)}


def test_cell_scans_transpose_nothing():
    # every scan of a system's cells reads the columns the system laid out
    # when it was built; `distance_report` hands them to the skeleton
    functions = (
        module_functions("report.py", ("_report", "distance_report", "checked_cell"))
        + module_functions("operators.py", ("float_cells",))
        + module_functions("oracle.py", ("exact_maxt_distance",))
    )
    assert len(functions) == 5
    assert transposing(functions) == []
    (report,) = module_functions("report.py", ("distance_report",))
    assert "system.columns" in {ast.unparse(node) for node in ast.walk(report)}


def test_exact_membership_transposes_nothing():
    # the interval pass of `exact_membership` and `exact_maxt_membership`
    # reads the matrix as floats, row by row, and the system's column
    # fronts: it neither transposes a matrix nor reads its columns
    names = ("exact_membership", "exact_maxt_membership", "_decided", "_exact_rows")
    functions = module_functions("oracle.py", names)
    assert len(functions) == 4
    assert transposing(functions) == []
    reads = [
        function.name for function in functions
        if any(ast.unparse(node) == "system.fronts" for node in ast.walk(function))
    ]
    assert reads == ["exact_membership", "exact_maxt_membership"]
    assert [
        f"{function.name}:{node.lineno}" for function in functions
        for node in ast.walk(function) if isinstance(node, ast.Attribute) and node.attr == "columns"
    ] == []


def test_decided_shifts_once():
    # the pass shifts a right-hand side value where it reads it, by the
    # scalar shifts of `FLOAT`: at its row on the side of the bound, and at
    # a front pair on the side of the inner level, each by the one float of
    # delta; no vector is shifted or padded as a whole
    (decided,) = module_functions("oracle.py", ("_decided",))
    calls = [ast.unparse(node) for node in ast.walk(decided) if isinstance(node, ast.Call)]
    assert sorted(call for call in calls if call.endswith(", d)")) == [
        "bound_shift(rhs[i], d)", "shift(c, d)",
    ]
    assert calls.count("float(delta)") == 1
    assert [call for call in calls if re.search(r"shifted_bounds|lower_shift|upper_shift", call)] == []


def test_oracle_writes_no_clamp():
    # the interval pass pads through the shifts of `FLOAT`, so a conditional
    # with a 0.0 or a 1.0 branch in `oracle` is a second copy of its clamps
    def clamps(node):
        return isinstance(node, ast.IfExp) and any(
            isinstance(branch, ast.Constant) and branch.value in (0.0, 1.0)
            for branch in (node.body, node.orelse)
        )

    tree = parsed("oracle.py")
    assert [f"oracle.py:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree) if clamps(node)] == []


def test_oracle_encloses_no_entry():
    # no entry of a matrix is enclosed between its neighbouring floats
    tree = parsed("oracle.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    imported = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "_enclosure" not in defined
    assert "nextafter" not in imported
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "nextafter" for node in ast.walk(tree)
    )


#: The public surface of `fuzzrel`: a name added, renamed or dropped fails here.
PUBLIC = [
    "ApproximationResult", "ApproximationStatus", "Attainability", "ChebyshevReport",
    "ConsistencyResult", "DEFAULT_TOL", "DimensionMismatch", "DomainError", "FuzzrelError",
    "FuzzySystem", "GodelCellStats", "GoguenCellStats", "ImplicationKind", "KindMismatch",
    "LukaCellStats", "Matrix", "MaxTSystem", "NearApproximation", "OracleEstimate",
    "PredicateNotUpClosed", "ReportMismatch", "RowDiagnostics", "Vector", "bisect_infimum",
    "build_approximation", "check_consistency", "closure", "distance_report",
    "exact_maxt_distance", "exact_maxt_membership", "exact_membership",
    "generate_random_system", "godel_cell", "godel_distance", "godel_threshold",
    "goguen_cell", "goguen_distance", "goguen_threshold", "luka_cell", "luka_distance",
    "luka_threshold", "max_t_compose", "maxluka_threshold", "maxprod_ratio",
    "maxprod_threshold", "maxt_closure", "maxt_distance", "min_impl_compose",
    "near_approximation", "potential_solution", "residuum", "sample_consistent_rhs",
    "shifted_bounds", "sup_distance", "t_norm", "tolerance_membership", "transpose", "unit",
    "unit_matrix", "unit_vector", "verify_lowest",
]


def test_public_surface_is_pinned():
    assert fuzzrel.__all__ == PUBLIC
    assert set(fuzzrel._ORIGIN) == set(PUBLIC)
    assert [name for name in PUBLIC if not hasattr(fuzzrel, name)] == []
