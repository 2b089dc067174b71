"""The pruned column scans against the full scan they replace.

`algebra.column_scan` hands every cell only the pairs of its column that
its kind's reducer keeps: the Pareto-maximal pairs (`front`) for the min
and product kinds, the pairs of greatest key (`top_pairs`) for the
Lukasiewicz kinds; the Godel report column sweeps its front in one pass.
That is exact because every threshold a cell takes its max over is
monotone in the column pair, and each Lukasiewicz threshold in its key
alone; `TestMonotone` checks the orientation of each in exact rationals.
`TestAgainstFullScan` runs the solvers once pruned and once `unpruned`,
with every reducer of the kernel tables replaced by `whole_column` and the
Godel report column by a brute-force scan, on systems built to hold ties:
duplicate rows and columns, equal (g, b) pairs in a column, all-zero
columns, beta entries of 0 or 1 and gamma == beta, and on Lukasiewicz
systems whose column keys tie to within a few ulps.  `exact_maxt_distance`
reduces its columns by the same table for its float filter and exact
fallback; unpruned, it keeps the filter but every column whole.  Its
comparison with the full exact scan, with no filter, is in
`test_exact_maxt.py`.
`TestLeast` pins the tie rule of the row minimum that reads those cells.
"""

import math
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from fuzzrel import (
    ImplicationKind,
    FuzzySystem,
    MaxTSystem,
    distance_report,
    exact_maxt_distance,
    godel_cell,
    goguen_cell,
    luka_cell,
    maxt_distance,
)
from fuzzrel.algebra import FLOAT, Kernel, column_scan, front
from fuzzrel.oracle import EXACT
from fuzzrel.report import least
from helpers import tied_systems
from test_kernels import cell_references

GODEL, GOGUEN, LUKA = ImplicationKind

#: The Goguen quotient and the max-product ratio are monotone in the column
#: pair in exact arithmetic only, so float rounding may let a pair off the
#: front reach a slightly higher value than the pair that dominates it.  The
#: values of those two kinds may differ from the full scan by this many ulps.
ULPS = 2

CELLS = {GODEL: godel_cell, GOGUEN: goguen_cell, LUKA: luka_cell}


def whole_column(pairs):
    """A reducer without pruning: every pair, in row order."""
    return tuple(pairs)


def full_scan(matrix, rhs, kernel):
    """The column scan without pruning: every cell sees every pair."""
    return column_scan(matrix, rhs, kernel._replace(column=whole_column))


@contextmanager
def unpruned():
    """Replace every reducer of the kernel tables, the report cells and the
    max-t cells of `FLOAT` and `EXACT`, by `whole_column`, and the Godel
    report column, which sweeps the whole column with no cell formula, by
    the brute-force Godel cell of `test_kernels.cell_references` over the
    whole column: the reports, `checked_cell`, both max-t distances and the
    filter of `exact_maxt_distance` then see whole columns."""
    with ExitStack() as stack:
        for ar in (FLOAT, EXACT):
            for table in (ar.cells, ar.maxt_cells):
                whole = {
                    kind: kernel._replace(column=whole_column)
                    for kind, kernel in table.items() if isinstance(kernel, Kernel)
                }
                stack.enter_context(mock.patch.dict(table, whole))
            godel = Kernel(cell_references(ar)[GODEL], whole_column)
            stack.enter_context(mock.patch.dict(ar.cells, {GODEL: godel}))
        yield


#: Entries at which a Lukasiewicz key rounds: the least subnormal, 2^-53 and
#: the float below one, with 0, 1/2 and 1.
EDGES = (0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)


@st.composite
def near_tied_entries(draw, sign, max_dim=8):
    """(matrix, rhs) of dims up to max_dim, entries from EDGES or full
    precision, in which two or more rows have keys matrix[l][i] + sign *
    rhs[l] within a few ulps of each other in every column i: the key gl +
    bl of the min-implication Lukasiewicz kind for sign 1, y - z of
    max-Lukasiewicz for sign -1.  Each tied row's entry is the one that
    ties its key to the first row's, moved 0-3 ulps.  Near-ties of full
    precision entries are where a float threshold can rank two pairs in
    the reverse of their float keys."""
    rng = draw(st.randoms(use_true_random=False))
    source = draw(st.sampled_from(["edges", "full", "both"]))

    def entry():
        if source == "edges" or (source == "both" and rng.random() < 0.5):
            return rng.choice(EDGES)
        return rng.random()

    m = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_dim))
    rhs = [entry() for _ in range(m)]
    matrix = [[entry() for _ in range(n)] for _ in range(m)]
    for l in range(1, draw(st.integers(2, m))):
        for i in range(n):
            tied = matrix[0][i] + sign * (rhs[0] - rhs[l])
            for _ in range(rng.randrange(4)):
                tied = math.nextafter(tied, rng.choice([0.0, 1.0]))
            matrix[l][i] = min(max(tied, 0.0), 1.0)
    order = list(range(m))
    rng.shuffle(order)
    return tuple(tuple(matrix[l]) for l in order), tuple(rhs[l] for l in order)


def assert_close(pruned, full, ulps):
    """`pruned` equals `full` field by field, floats within `ulps` ulps; a
    record, a dataclass or a named tuple, must be of the same type and is
    compared by its field names."""
    fields = getattr(full, "_fields", None) or getattr(full, "__dataclass_fields__", None)
    if isinstance(full, float):
        assert abs(pruned - full) <= ulps * math.ulp(full), (pruned, full)
    elif fields is not None:
        assert type(pruned) is type(full)
        for name in fields:
            assert_close(getattr(pruned, name), getattr(full, name), ulps)
    elif isinstance(full, tuple):
        assert type(pruned) is tuple and len(pruned) == len(full)
        for p, f in zip(pruned, full):
            assert_close(p, f, ulps)
    else:
        assert pruned == full


class TestFront:
    def test_keeps_the_maximal_pairs_in_row_order(self):
        pairs = ((0.2, 0.9), (0.5, 0.5), (0.4, 0.4), (0.9, 0.1), (0.5, 0.3))
        assert front(pairs) == ((0.2, 0.9), (0.5, 0.5), (0.9, 0.1))

    def test_falling_keeps_high_g_and_low_b(self):
        pairs = ((0.2, 0.0), (0.5, 0.5), (0.4, 0.4), (0.9, 0.6), (0.5, 0.3))
        assert front(pairs, rising=False) == ((0.2, 0.0), (0.9, 0.6), (0.5, 0.3))

    @pytest.mark.parametrize("rising", [True, False])
    def test_of_equal_pairs_keeps_the_first(self, rising):
        first, second = (0.5, 0.0), (0.5, -0.0)
        kept = front((first, (0.1, 0.0), second), rising)
        assert kept == (first,) and math.copysign(1.0, kept[0][1]) == 1.0

    def test_empty(self):
        assert front(()) == ()


class TestLeast:
    def test_first_of_equal_values(self):
        assert least([(0, 0.4), (1, 0.2), (2, 0.2)]) == (1, 0.2)

    def test_zero_signs_keep_the_first(self):
        argmin, tau = least([(3, 0.5), (4, -0.0), (5, 0.0)])
        assert argmin == 4 and math.copysign(1.0, tau) == -1.0

    def test_no_candidates(self):
        assert least(iter(())) == (None, 1.0)


#: Near-tied Lukasiewicz entries at which keeping only the pairs of greatest
#: float key, with no window, would change an output: a report cell, a float
#: max-Lukasiewicz cell and the exact max-Lukasiewicz distance.  In the
#: random stream such a column is rare (a few in a thousand systems), so
#: these carry the check of the window.
NEAR_TIED_REPORT = (
    ((0.3861776646317805,), (0.390418431105669,), (0.6615319381217963,)),
    (0.2696356363828718, 0.9686364817298126, 0.6975229747136854),
)
NEAR_TIED_CELLS = (
    ((0.17900227765213317,), (0.9171923698563126,), (0.8896428073144481,)),
    (0.3128167820027281, 0.6552505224033044, 0.62770095986144),
)
NEAR_TIED_EXACT = (
    ((0.1199065254578433,), (0.7921540792934008,), (0.20424335030324442,)),
    (0.07742047371528904, 0.6030367803130648, 0.015126051322908451),
)

#: Every phase but shrinking: each example re-runs both scans on up to 20x20
#: systems, so shrinking a failure would take minutes; unshrunk, it is
#: reported in seconds, as drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def check_report(system):
    """The report of `system`, after checking that it and every cell equal
    the unpruned ones: by `repr`, or within ULPS for Goguen; the cells
    against the unpruned `checked_cell`."""
    pruned = distance_report(system)
    with unpruned():
        full = distance_report(system)
        cell = CELLS[system.kind]
        cells = [[cell(system, row.row, i) for i in range(system.n)] for row in full.rows]
    if system.kind is GOGUEN:
        assert_close(pruned, full, ULPS)
        assert_close(tuple(row.cells for row in pruned.rows), tuple(map(tuple, cells)), ULPS)
    else:
        assert repr(pruned) == repr(full)
        assert repr([list(row.cells) for row in pruned.rows]) == repr(cells)
    return pruned


def maxt_outputs(system):
    """The float cells and both distances of a max-t system."""
    cells = column_scan(system.a, system.b, FLOAT.maxt_cells[system.kind])
    return cells, maxt_distance(system), exact_maxt_distance(system)


class TestAgainstFullScan:
    @settings(max_examples=150, deadline=None, phases=NO_SHRINK)
    @given(tied_systems(), st.sampled_from(list(ImplicationKind)))
    def test_reports_and_cells(self, system, kind):
        system = FuzzySystem(*system, kind)
        report = check_report(system)
        cell = CELLS[kind]
        for row in report.rows:
            for i, reported in enumerate(row.cells):
                assert repr(cell(system, row.row, i)) == repr(reported)

    @settings(max_examples=150, deadline=None, phases=NO_SHRINK)
    @given(tied_systems(), st.sampled_from(list(ImplicationKind)))
    def test_maxt_distance(self, system, kind):
        system = MaxTSystem(*system, kind)
        pruned = maxt_distance(system)
        with unpruned():
            full = maxt_distance(system)
        if kind is GOGUEN:
            assert_close(pruned, full, ULPS)
        else:
            assert repr(pruned) == repr(full)

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(tied_systems(), st.sampled_from(list(ImplicationKind)))
    def test_exact_maxt_distance(self, system, kind):
        system = MaxTSystem(*system, kind)
        pruned = exact_maxt_distance(system)
        with unpruned():
            assert pruned == exact_maxt_distance(system)

    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @example(NEAR_TIED_REPORT)
    @given(near_tied_entries(1))
    def test_near_tied_lukasiewicz_reports(self, entries):
        check_report(FuzzySystem(*entries, LUKA))

    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @example(NEAR_TIED_CELLS)
    @example(NEAR_TIED_EXACT)
    @given(near_tied_entries(-1))
    def test_near_tied_maxluka_distances(self, entries):
        system = MaxTSystem(*entries, LUKA)
        pruned = maxt_outputs(system)
        with unpruned():
            assert repr(pruned) == repr(maxt_outputs(system))


#: A grid of 1/120 steps, so that equal pairs and ties are frequent.
fractions = st.integers(0, 120).map(lambda k: Fraction(k, 120))
ONE = Fraction(1)

#: Each threshold as f(u, w, g, b) of the cell's own entry u and right-hand
#: side w and one column pair (g, b), with the orientation in which it is
#: non-decreasing: rising in (g, b), or rising in g and falling in b.
THRESHOLDS = {
    "godel_threshold": (lambda u, w, g, b: EXACT.godel_threshold(b, g, w), True),
    "goguen_threshold": (lambda u, w, g, b: EXACT.goguen_threshold(u, b, g, w), True),
    "luka_threshold": (lambda u, w, g, b: EXACT.luka_threshold(ONE - u, ONE - g, b, w), True),
    "maxprod_threshold": (lambda u, w, g, b: EXACT.maxprod_threshold(u, w, g, b), False),
    "maxluka_threshold": (
        lambda u, w, g, b: EXACT.maxluka_threshold(ONE - u, w, g, b),
        False,
    ),
    "max-min cell": (
        lambda u, w, g, b: max(EXACT.pos(w - u), EXACT.godel_threshold(w, g, b)),
        False,
    ),
}


class TestMonotone:
    @pytest.mark.parametrize("name", list(THRESHOLDS))
    @settings(max_examples=300)
    @given(u=fractions, w=fractions, gs=st.lists(fractions, min_size=2, max_size=2),
           bs=st.lists(fractions, min_size=2, max_size=2))
    def test_dominating_pair_is_at_least_as_high(self, name, u, w, gs, bs):
        threshold, rising = THRESHOLDS[name]
        g_low, g_high = sorted(gs)
        b_low, b_high = sorted(bs)
        if rising:
            dominated, dominating = (g_low, b_low), (g_high, b_high)
        else:
            dominated, dominating = (g_low, b_high), (g_high, b_low)
        assert threshold(u, w, *dominated) <= threshold(u, w, *dominating)
