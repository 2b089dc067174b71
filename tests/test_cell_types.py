"""The public cell records of a report: `GodelCellStats`, `GoguenCellStats`
and `LukaCellStats`, and the field `RowDiagnostics.cells` that holds them.

They are named tuples: a tuple costs about half as much to build as the
frozen dataclasses they replaced.  Their field names and order, their
`repr` (the dataclasses' own `repr` strings, taken from the shared 2x2
system of `conftest.py`), their immutability and attribute reads from a
report are pinned here.  As tuples they also iterate, compare equal to
plain tuples and are amended by `_replace`.

The report columns build no record and no tuple per cell: they give their
cells field-major, one flat tuple or list per field, and a row builds its
records on the first read of its `cells`, by the kind's entry of
`Arithmetic.records`, with `tuple.__new__` in one map per row.  So every
public path that returns a cell is pinned to the record type itself: a
report, on `FLOAT` and on `EXACT`, and `checked_cell` through the public
`*_cell` functions; the columns of both instances are pinned to flat field
tuples from which `records` builds those records.  When the records are built changes nothing a
caller sees: a report row equals, hashes and prints like a row built from
the records, a second read returns the same tuple, the field stays frozen
and required, `dataclasses.replace`, `copy.deepcopy` and pickles keep the
cells, and no pickle names the private type of a row whose cells are not
read yet.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction
from types import SimpleNamespace

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
from fuzzrel.algebra import FLOAT, RowDiagnostics, front, transpose
from fuzzrel.oracle import EXACT
from fuzzrel.report import _report

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


#: The shared system's right-hand side (0.1, 0.4), its rows and its columns,
#: read as Fractions from their decimals.
EXACT_BETA = (Fraction("0.1"), Fraction("0.4"))
EXACT_GAMMA = tuple(tuple(map(Fraction, map(str, row))) for row in SHARED_MATRIX)
EXACT_COLUMNS = transpose(EXACT_GAMMA)
#: The stand-in for a system that the exact report and columns take: the
#: rising front of each of those columns, which the Goguen entry reads.
EXACT_PREPARED = SimpleNamespace(fronts=[front(column, EXACT_BETA) for column in EXACT_COLUMNS])


def cells_of_every_path(kind):
    """Cell (0, 1) of the shared system with beta (0.1, 0.4) by the float
    report, by `checked_cell`, and by the exact report of the entries read
    as Fractions."""
    system = FuzzySystem(SHARED_MATRIX, (0.1, 0.4), kind)
    return {
        "report": reported_cell(kind),
        "checked_cell": PUBLIC_CELLS[kind](system, 0, 1),
        "exact": _report(
            EXACT, kind, EXACT_GAMMA, EXACT_COLUMNS, EXACT_BETA, EXACT_PREPARED
        ).rows[0].cells[1],
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


#: The fields of each kind's cells that its report column gives, one flat
#: tuple or list each: a Goguen cell with a zero entry gives the sentinel
#: two as its value, and a Godel cell's support and borderline flag follow
#: from its gamma entry.
COLUMN_FIELDS = {
    ImplicationKind.GODEL: ("theta", "zeta"),
    ImplicationKind.GOGUEN: ("theta", "value"),
    ImplicationKind.LUKASIEWICZ: ("zeta",),
}


@kinds
def test_columns_give_the_fields_of_the_records(kind):
    # the column of each instance returns its cells field-major, one flat
    # tuple or list of numbers per field and no tuple per cell, from which
    # `records` builds, bit for bit, the records that the report of the same
    # instance returns
    system = FuzzySystem(SHARED_MATRIX, (0.1, 0.4), kind)
    paths = cells_of_every_path(kind)
    columns = {
        "float": (
            FLOAT, system.columns[1], FLOAT.cells[kind](system.beta, system), paths["report"]
        ),
        "exact": (
            EXACT, EXACT_COLUMNS[1], EXACT.cells[kind](EXACT_BETA, EXACT_PREPARED), paths["exact"]
        ),
    }
    for path, (ar, us, column, record) in columns.items():
        fields = column(us, 1)
        assert type(fields) is tuple and len(fields) == len(COLUMN_FIELDS[kind]), path
        for field in fields:
            assert type(field) in (tuple, list) and len(field) == len(us), path
            assert {type(value) for value in field} == {type(ar.zero)}, path
        assert repr(ar.records[kind](us, *fields)[0]) == repr(record), path


def report_of(kind):
    """A new float report of the shared system with beta (0.1, 0.4), none
    of whose cells has been read."""
    return distance_report(FuzzySystem(SHARED_MATRIX, (0.1, 0.4), kind))


def records_of(kind, row):
    """The records of row `row` of `report_of(kind)`, built one by one by
    the public `*_cell` function."""
    system = FuzzySystem(SHARED_MATRIX, (0.1, 0.4), kind)
    return tuple(PUBLIC_CELLS[kind](system, row, i) for i in range(system.n))


def built_from_records(kind, row):
    """Row `row` of `report_of(kind)`, built from its records."""
    reported = report_of(kind).rows[row]
    fields = {f.name: getattr(reported, f.name) for f in dataclasses.fields(RowDiagnostics)}
    return RowDiagnostics(**{**fields, "cells": records_of(kind, row)})


@kinds
def test_rows_are_those_built_from_records(kind):
    for j in range(len(SHARED_MATRIX)):
        built = built_from_records(kind, j)
        assert report_of(kind).rows[j] == built
        assert hash(report_of(kind).rows[j]) == hash(built)
        assert repr(report_of(kind).rows[j]) == repr(built)
        assert repr(report_of(kind).rows[j].cells) == repr(records_of(kind, j))


@kinds
def test_a_second_read_returns_the_same_cells(kind):
    record = CELLS[kind][0]
    row = report_of(kind).rows[0]
    cells = row.cells
    assert row.cells is cells
    assert type(cells) is tuple and {type(cell) for cell in cells} == {record}
    # a row built from records returns them as given
    records = records_of(kind, 0)
    assert dataclasses.replace(row, cells=records).cells is records


@kinds
def test_cells_cannot_be_set(kind):
    unread, read = report_of(kind).rows[0], report_of(kind).rows[0]
    cells = read.cells
    for row in (unread, read):
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.cells = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.cells
    assert read.cells is cells and unread.cells == cells


@kinds
def test_cells_are_required(kind):
    row = report_of(kind).rows[0]
    fields = [f.name for f in dataclasses.fields(RowDiagnostics)]
    assert fields.index("cells") == 7
    assert dataclasses.fields(RowDiagnostics)[7].default is dataclasses.MISSING
    given = {name: getattr(row, name) for name in fields if name != "cells"}
    with pytest.raises(TypeError, match="cells"):
        RowDiagnostics(**given)
    with pytest.raises(TypeError, match="cells"):
        RowDiagnostics(*(given[name] for name in fields[:7]))


@kinds
def test_replace_and_deepcopy_keep_the_cells(kind):
    record = CELLS[kind][0]
    want = repr(records_of(kind, 0))
    for copied in (
        dataclasses.replace(report_of(kind).rows[0]),
        copy.deepcopy(report_of(kind).rows[0]),
        copy.deepcopy(report_of(kind)).rows[0],
        copy.copy(report_of(kind).rows[0]),
    ):
        assert repr(copied.cells) == want
        assert {type(cell) for cell in copied.cells} == {record}


@kinds
def test_pickles_hold_the_records(kind):
    # the pickle of a row whose cells are not read yet is that of a row
    # whose cells are, byte for byte, in every protocol
    record = CELLS[kind][0]
    read = report_of(kind)
    for row in read.rows:
        row.cells
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        before = pickle.dumps(report_of(kind), protocol)
        assert before == pickle.dumps(read, protocol)
        assert b"_Pending" not in before and b"_Cells" not in before
        loaded = pickle.loads(before)
        assert loaded == read and repr(loaded) == repr(read)
        assert {type(cell) for cell in loaded.rows[0].cells} == {record}
