"""The public cell records of a report: `GodelCellStats`, `GoguenCellStats`
and `LukaCellStats`.

They are named tuples: a report builds one per cell, and a tuple costs
about half as much to build as the frozen dataclasses they replaced.  Their
field names and order, their `repr` (the dataclasses' own `repr` strings,
taken from the shared 2x2 system of `conftest.py`), their immutability and
attribute reads from a report are pinned here.  As tuples they also
iterate, compare equal to plain tuples and are amended by `_replace`.
The report columns build them with `tuple.__new__` in one map per column,
so every path that returns a cell is pinned to the record type itself: a
report, `checked_cell` through the public `*_cell` functions, and the
columns of both arithmetic instances, `FLOAT` and `EXACT`.
"""

from fractions import Fraction

import pytest

from fuzzrel import (
    FuzzySystem,
    GodelCellStats,
    GoguenCellStats,
    ImplicationKind,
    LukaCellStats,
    distance_report,
    godel_cell,
    goguen_cell,
    luka_cell,
)
from fuzzrel.algebra import FLOAT
from fuzzrel.oracle import EXACT

from conftest import SHARED_MATRIX

#: The cell (0, 1) of the shared system with beta (0.1, 0.4), per kind: its
#: record type, field names and `repr`.
CELLS = {
    ImplicationKind.GODEL: (
        GodelCellStats,
        ("theta", "zeta", "support", "borderline"),
        "GodelCellStats(theta=-0.08999999999999997, zeta=0.15000000000000002,"
        " support=True, borderline=False)",
    ),
    ImplicationKind.GOGUEN: (
        GoguenCellStats,
        ("theta", "zeta", "support"),
        "GoguenCellStats(theta=-0.14444444444444438, zeta=0.2237410071942446, support=True)",
    ),
    ImplicationKind.LUKASIEWICZ: (
        LukaCellStats,
        ("zeta",),
        "LukaCellStats(zeta=0.41000000000000003)",
    ),
}

kinds = pytest.mark.parametrize("kind", list(CELLS), ids=lambda kind: kind.value)


def reported_cell(kind):
    return distance_report(FuzzySystem(SHARED_MATRIX, (0.1, 0.4), kind)).rows[0].cells[1]


@kinds
def test_fields_and_repr(kind):
    record, fields, text = CELLS[kind]
    cell = reported_cell(kind)
    assert type(cell) is record
    assert record._fields == fields
    assert repr(cell) == text
    assert repr(record(*cell)) == text


@kinds
def test_fields_read_by_name_and_cannot_be_set(kind):
    _, fields, _ = CELLS[kind]
    cell = reported_cell(kind)
    assert [getattr(cell, name) for name in fields] == list(cell)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(cell, name, 0.5)


def test_zeta_reads_as_before():
    assert reported_cell(ImplicationKind.LUKASIEWICZ).zeta == 0.41000000000000003
    assert reported_cell(ImplicationKind.GODEL).zeta == 0.15000000000000002


def test_behave_as_tuples():
    cell = GodelCellStats(0.1, 0.2, True, False)
    theta, zeta, support, borderline = cell
    assert (theta, zeta, support, borderline) == (0.1, 0.2, True, False)
    assert cell == (0.1, 0.2, True, False)
    assert cell._replace(zeta=0.3) == GodelCellStats(0.1, 0.3, True, False)
    assert hash(LukaCellStats(0.5)) == hash((0.5,))


PUBLIC_CELLS = {
    ImplicationKind.GODEL: godel_cell,
    ImplicationKind.GOGUEN: goguen_cell,
    ImplicationKind.LUKASIEWICZ: luka_cell,
}


def cells_of_every_path(kind):
    """Cell (0, 1) of the shared system with beta (0.1, 0.4) by a report,
    by `checked_cell`, and by the column of each arithmetic instance, the
    exact one reading the entries as Fractions."""
    system = FuzzySystem(SHARED_MATRIX, (0.1, 0.4), kind)
    column = tuple(row[1] for row in SHARED_MATRIX)
    exact_column = tuple(map(Fraction, map(str, column)))
    return {
        "report": reported_cell(kind),
        "checked_cell": PUBLIC_CELLS[kind](system, 0, 1),
        "float": FLOAT.cells[kind](system.beta)(column)[0],
        "exact": EXACT.cells[kind]((Fraction("0.1"), Fraction("0.4")))(exact_column)[0],
    }


@kinds
def test_every_path_returns_the_record(kind):
    record, fields, text = CELLS[kind]
    for path, cell in cells_of_every_path(kind).items():
        assert type(cell) is record, path
        assert cell._fields == fields, path
        assert repr(cell) == "{}({})".format(
            record.__name__, ", ".join(f"{name}={value!r}" for name, value in zip(fields, cell))
        ), path
        if path != "exact":
            assert repr(cell) == text, path
        amended = cell._replace(**{fields[0]: 0.5})
        assert type(amended) is record and amended == (0.5, *cell[1:]), path
