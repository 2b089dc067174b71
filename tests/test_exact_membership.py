"""`exact_membership` and `exact_maxt_membership` against the full exact
evaluation.

Both decide their closure inequality by an interval pass in floats and
evaluate in Fractions only the rows it leaves undecided, over the terms that
can still attain a min or a max.  Here every verdict is compared with the
full exact evaluation, written out: `helpers.full_membership` on EXACT for
`exact_membership`, at every `row=` and at row None, and `leq(lower,
EXACT.maxt_closure(a, kind, upper))` for `exact_maxt_membership`.  At a
given `row=` that row alone is scanned.  Each row's decision by the
row-by-row pass over the fronts, true, false or open, is held to the whole
padded compositions of `helpers.interval_pass`, and a row settled at a term
reads no column past it.

The systems are the wide ones of `test_exact_maxt.py` (full precision, 1-
and 2-decimal grids, a small pool, subnormals, 1 - 2^-53, duplicate rows and
columns, shapes 1 x n, m x 1 and up to 30 x 30), the tie-heavy ones of
`test_front.tied_systems`, and small ones whose entries are all tiny or all
edge values {0, 5e-324, 0.5, 1 - 2^-53, 1}, each of every kind.  The deltas are where a verdict is fragile: the float distance of
`distance_report`, which both sides snap to SNAP_DIGITS decimals, the exact
max-t distance as a Fraction, 1e-12 either side of both, and a point of the
1/120 grid, as a Fraction and as a float.
"""

import dataclasses
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fuzzrel import (
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    distance_report,
    exact_maxt_distance,
    exact_maxt_membership,
    exact_membership,
    generate_random_system,
    tolerance_membership,
)
from fuzzrel import oracle
from fuzzrel.algebra import FLOAT, leq, transpose
from fuzzrel.oracle import EXACT, _exact_delta, _exact_matrix, _exact_vector
from helpers import full_membership, interval_pass
from test_exact_maxt import pooled_entries, wide_entries, with_examples
from test_front import NO_SHRINK, tied_systems

GODEL, GOGUEN, LUKA = ImplicationKind
BELOW_ONE = 1.0 - 2.0**-53
TINY = 2.2250738585072014e-308

#: Entries of the small systems of the fourth stream: the ends of [0, 1],
#: their nearest floats and 0.5, where a float and its decimal reading
#: most often fall on different sides of a branch point.
EDGE_VALUES = (0.0, 5e-324, 0.5, BELOW_ONE, 1.0)

#: The four streams of (matrix, rhs), and the kind and grid point drawn with them.
entries = st.one_of(
    wide_entries(), tied_systems(), pooled_entries(), pooled_entries(EDGE_VALUES)
)
kinds = st.sampled_from(list(ImplicationKind))
grid = st.integers(0, 120)

#: (entries, kind, grid point) on which a fault of the interval pass gives
#: another verdict than the full evaluation, found by a search over decimal
#: ties and their neighbouring floats.  The faults: a padding of 0 or of
#: 2^-54, against the 2^-50 the margin argument of `fuzzrel.oracle` needs;
#: the shift left at its float value instead of between padded bounds; or
#: only the float pass's best term kept in the inner or the outer
#: composition instead of every term that can still attain its min or max.
#: With these examples both tests fail on each of these faults on every
#: run.  A level left unpadded fails only the min-implication test, on the
#: Goguen example with the entry 5e-324 and beta 0.8: in the max-t closure
#: its rounding stays within the margin of the padded shift it is compared
#: with.
MEMBERSHIP_EXAMPLES = (
    ((((TINY,), (1e-310,)), (TINY, 5e-324)), GOGUEN, 13),
    ((((TINY,),), (TINY,)), GOGUEN, 39),
    ((((5e-324,), (1.0,)), (0.5, 5e-324)), GODEL, 95),
    ((((1.0, 0.0),), (BELOW_ONE,)), GODEL, 72),
    ((((5e-324,),), (0.8,)), GOGUEN, 38),
    ((((0.1, 0.9),), (0.1,)), GODEL, 107),
)
MAXT_EXAMPLES = (
    ((((4e-320,),), (TINY,)), LUKA, 17),
    ((((0.6,),), (0.6000000000000001,)), LUKA, 102),
    (
        (((0.19, 0.17, 0.2), (0.99, 0.79, 0.45), (0.72, 0.2, 0.88)), (0.08, 0.81, 0.23)),
        GODEL,
        117,
    ),
    ((((BELOW_ONE, 0.5), (BELOW_ONE, BELOW_ONE)), (0.0, 0.5)), LUKA, 0),
    (
        (
            ((1.0, 0.5, 0.5, 0.0), (BELOW_ONE, 0.0, 1.0, 1.0), (0.5, 0.0, 0.5, 1.0)),
            (BELOW_ONE, 0.5, 5e-324),
        ),
        GODEL,
        31,
    ),
)


STEP = Fraction(1, 10**12)


def deltas(matrix, rhs, kind, k):
    """The deltas at which both tests are compared with the full evaluation."""
    nabla = distance_report(FuzzySystem(matrix, rhs, kind)).nabla
    exact = exact_maxt_distance(MaxTSystem(matrix, rhs, kind))
    return (
        nabla,
        max(nabla - 1e-12, 0.0),
        min(nabla + 1e-12, 1.0),
        exact,
        max(exact - STEP, Fraction(0)),
        min(exact + STEP, Fraction(1)),
        Fraction(k, 120),
        k / 120,
    )


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@with_examples(MEMBERSHIP_EXAMPLES)
@given(entries, kinds, grid)
def test_exact_membership_is_the_full_evaluation(entries, kind, k):
    system = FuzzySystem(*entries, kind)
    gamma, beta = _exact_matrix(system.gamma), _exact_vector(system.beta)
    columns = transpose(gamma)
    for delta in deltas(*entries, kind, k):
        snapped = _exact_delta(delta)
        for row in (None, *range(system.m)):
            full = full_membership(EXACT, gamma, columns, beta, kind, snapped, row, EXACT.zero)
            assert exact_membership(system, delta, row) is full, (delta, row)


def scanned_rows(system, matrix):
    """Give `system` its matrix field `matrix` again as equal rows that
    record their index, in the returned list, whenever their entries are
    read in order; the system's columns and fronts stay as built."""
    scanned = []

    class Row(tuple):
        def __iter__(self):
            scanned.append(self.index)
            return super().__iter__()

    rows = []
    for i, entries in enumerate(getattr(system, matrix)):
        rows.append(Row(entries))
        rows[-1].index = i
    object.__setattr__(system, matrix, tuple(rows))
    return scanned


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@with_examples(MEMBERSHIP_EXAMPLES)
@given(entries, kinds, grid)
def test_one_row_composes_its_outer_level_alone(entries, kind, k):
    # row=j scans row j alone, in the interval pass and in the exact
    # fallback, and its verdict is the full evaluation's at row j
    system = FuzzySystem(*entries, kind)
    gamma, beta = _exact_matrix(system.gamma), _exact_vector(system.beta)
    columns = transpose(gamma)
    scanned = scanned_rows(system, "gamma")
    for delta in deltas(*entries, kind, k):
        snapped = _exact_delta(delta)
        for j in range(system.m):
            scanned.clear()
            full = full_membership(EXACT, gamma, columns, beta, kind, snapped, j, EXACT.zero)
            assert exact_membership(system, delta, j) is full, (delta, j)
            assert scanned and {*scanned} == {j}, (delta, j)


class Reads:
    """Column fronts that record the index of every front read; their
    `columns` are those of the fronts they read."""

    def __init__(self, fronts):
        self.fronts, self.columns, self.read = fronts, fronts.columns, []

    def __getitem__(self, j):
        self.read.append(j)
        return self.fronts[j]


def row_by_row(system, maxt, delta):
    """Each row's decision by the interval pass of `_decided`, alone, with
    the fronts it read: "true" or "false" when the pass settles the row,
    "open" when it would evaluate the row in Fractions."""
    matrix = system.a if maxt else system.gamma
    found = []
    with mock.patch.object(oracle, "_exact_rows", lambda *args: "open"):
        for i in range(len(matrix)):
            reads = Reads(system.fronts)
            decided = oracle._decided(system, reads, delta, maxt, (i,))
            found.append(({True: "true", False: "false"}.get(decided, decided), reads.read))
    return found


def both_closures(entries, kind):
    """(maxt, system, matrix, rhs) of both closures of `entries`."""
    system, maxt_system = FuzzySystem(*entries, kind), MaxTSystem(*entries, kind)
    return (
        (False, system, system.gamma, system.beta),
        (True, maxt_system, maxt_system.a, maxt_system.b),
    )


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@with_examples(MEMBERSHIP_EXAMPLES + MAXT_EXAMPLES)
@given(entries, kinds, grid)
def test_each_row_decides_as_the_full_composition_pass(entries, kind, k):
    # the row-by-row pass over the fronts settles a row true, settles it
    # false or leaves it open exactly as the whole float compositions of
    # `helpers.interval_pass`, padded on each side, do
    for maxt, system, matrix, rhs in both_closures(entries, kind):
        for delta in deltas(*entries, kind, k):
            snapped = _exact_delta(delta)
            want, _ = interval_pass(matrix, system.columns, rhs, kind, snapped, maxt)
            got = [decision for decision, _ in row_by_row(system, maxt, snapped)]
            assert got == want, (maxt, delta)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@with_examples(MEMBERSHIP_EXAMPLES + MAXT_EXAMPLES)
@given(entries, kinds, grid)
def test_a_settled_row_reads_no_column_past_its_deciding_term(entries, kind, k):
    # a row the pass settles true at its term j reads the fronts of columns
    # 0..j, each once, and no other; a row no term settles reads every
    # column at its first side before it reads any again
    for maxt, system, matrix, rhs in both_closures(entries, kind):
        n = len(matrix[0])
        for delta in deltas(*entries, kind, k):
            snapped = _exact_delta(delta)
            _, firsts = interval_pass(matrix, system.columns, rhs, kind, snapped, maxt)
            for first, (decision, read) in zip(firsts, row_by_row(system, maxt, snapped)):
                if first is None:
                    assert decision != "true" and read[:n] == [*range(n)], (maxt, delta)
                else:
                    assert decision == "true" and read == [*range(first + 1)], (maxt, delta)


def test_one_row_builds_only_the_fronts_it_reads():
    # on a fresh 64x64 Goguen system at its distance, `exact_membership` and
    # `tolerance_membership` at one row build the fronts of the columns that
    # row reads and no other, and answer as on a system whose fronts are all
    # built; before the fronts were built per column, one such call built
    # all 64
    built = generate_random_system(64, 64, GOGUEN, seed=31, decimals=2)
    report = distance_report(built)
    nabla = report.nabla
    assert [*built.fronts] == [*range(64)]  # the Goguen report reads every column
    tight = [row.row for row in report.rows if row.nabla_j == nabla]
    fewer = []
    for j in sorted({*range(0, 64, 3), *tight}):
        reads = Reads(built.fronts)
        want = oracle._decided(built, reads, _exact_delta(nabla), False, (j,))
        assert exact_membership(built, nabla, j) is want
        fresh = dataclasses.replace(built)
        assert exact_membership(fresh, nabla, j) is want
        assert set(fresh.fronts) == set(reads.read)
        reads = Reads(built.fronts)
        want = FLOAT.membership[GOGUEN]((built.gamma[j],), reads, (built.beta[j],), nabla, 0.0)
        fresh = dataclasses.replace(built)
        assert tolerance_membership(fresh, nabla, j) is want
        assert set(fresh.fronts) == set(reads.read)
        fewer.append(len(fresh.fronts) < 64)
    assert any(fewer)


#: The unit of the floats in [1/2, 1), 2^-53: the pad MEMBERSHIP_PAD is 8 of them.
U = Fraction(1, 2**53)


@pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
def test_both_pads_stand_between_a_term_and_its_bound(kind):
    # Row 0 of gamma ((0.9,),), beta (0.5,) at delta = 14 U: the term lies
    # within two pads of the row's bound, so the row stays open, and either
    # pad alone would settle it true.  For Godel the inner bound is 0.5 - 6 U,
    # padded up to 0.5 + 2 U, the residuum term 0.5 + 2 U, padded to 0.5 +
    # 10 U, and the bound 0.5 + 14 U, padded down to 0.5 + 6 U.  At 18 U
    # the row settles true with both pads.
    system = FuzzySystem(((0.9,),), (0.5,), kind)
    for delta, decision in ((14 * U, "open"), (18 * U, "true")):
        want, _ = interval_pass(system.gamma, system.columns, system.beta, kind, delta, False)
        assert [found for found, _ in row_by_row(system, False, delta)] == want == [decision]
        assert exact_membership(system, delta) is True


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@with_examples(MAXT_EXAMPLES)
@given(entries, kinds, grid)
def test_exact_maxt_membership_is_the_full_evaluation(entries, kind, k):
    system = MaxTSystem(*entries, kind)
    a, b = _exact_matrix(system.a), _exact_vector(system.b)
    for delta in deltas(*entries, kind, k):
        lower, upper = EXACT.shifted_bounds(b, _exact_delta(delta))
        full = leq(lower, EXACT.maxt_closure(a, kind, upper), EXACT.zero)
        assert exact_maxt_membership(system, delta) is full, delta
