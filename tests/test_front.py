"""The pruned column scans against the full scan they replace.

A cell sees only the pairs of its column that can attain its max: the
Pareto-maximal pairs (`front`) for the min and product kinds, the pairs of
greatest key (`top_pairs`) for the Lukasiewicz kinds.  The report columns
of `algebra.column_scan` reduce their columns themselves, the Godel one
sweeping its front in one pass; the max-t cells read the pairs that
`MaxTSystem.kept` keeps.  That is exact because every threshold a cell
takes its max over is monotone in the column pair, and each Lukasiewicz
threshold in its key alone; `TestMonotone` checks the orientation of each
in exact rationals.  `TestAgainstFullScan` runs the solvers once pruned
and once `unpruned`, with `MaxTSystem.kept` replaced by every pair of each
column and each report column, Godel, Goguen and Lukasiewicz, by a
brute-force scan of its cells over the whole column
(`helpers.whole_columns`), on systems built to hold ties:
duplicate rows and columns, equal (g, b) pairs in a column, all-zero
columns, beta entries of 0 or 1 and gamma == beta, and on Lukasiewicz
systems whose column keys tie to within a few ulps.  `exact_maxt_distance`
reads the same `kept` pairs for its float filter and exact fallback;
unpruned, it keeps the filter but every column whole.  Its
comparison with the full exact scan, with no filter, is in
`test_exact_maxt.py`.

Every front sorts the one order of its system's right-hand side,
`beta_order`, by the column's entries alone.  `TestFront` holds that sort
to the rows a stable sort of each column's pairs by the tuple key (g, b),
or (g, -b) for a falling front, kept: on columns of equal pairs out of
row order, of equal g, of equal b and of signed zeros, with the front's
own order and with the system's, and on random tie-heavy columns.  The
exact report reads a system's float fronts as the fronts of its decimal
readings, so `TestFront` also holds the front of the readings of a column
to the readings of its float front, in both orientations, on drawn
tie-heavy, subnormal and full-precision columns.
"""

import dataclasses
import math
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import partial
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
from fuzzrel.algebra import FLOAT, beta_order, column_scan, front, transpose
from fuzzrel.oracle import EXACT, _Readings
from helpers import tied_systems, whole_columns
from test_kernels import cell_references, fields_of, split

GODEL, GOGUEN, LUKA = ImplicationKind

#: The Goguen quotient and the max-product ratio are monotone in the column
#: pair in exact arithmetic only, so float rounding may let a pair off the
#: front reach a slightly higher value than the pair that dominates it.  The
#: values of those two kinds may differ from the full scan by this many ulps.
ULPS = 2

CELLS = {GODEL: godel_cell, GOGUEN: goguen_cell, LUKA: luka_cell}


def whole_pairs(system):
    """`MaxTSystem.kept` without pruning: every pair of each column of a
    max-t system, in row order."""
    return tuple(tuple(zip(us, system.b)) for us in system.columns)


def full_scan(matrix, rhs, cell):
    """The rows of the cells of `matrix` by the cell formula `cell`, a scan
    without pruning: every cell sees every pair of its column."""
    (rows,) = column_scan(transpose(matrix), rhs, whole_columns(cell), None)
    return rows


@contextmanager
def unpruned():
    """Replace `MaxTSystem.kept` by `whole_pairs`, and each report column
    of `FLOAT` and `EXACT`, which reduces its column itself with no cell
    formula of its own, by the brute-force cells of
    `test_kernels.cell_references` over the whole column, laid out as the
    column's flat field tuples by `test_kernels.fields_of`: the reports,
    `checked_cell`, both max-t distances and the filter of
    `exact_maxt_distance` then see whole columns."""
    with ExitStack() as stack:
        for ar in (FLOAT, EXACT):
            brute = {
                kind: whole_columns(cell, partial(fields_of, ar, kind))
                for kind, cell in cell_references(ar).items()
            }
            stack.enter_context(mock.patch.dict(ar.cells, brute))
        stack.enter_context(mock.patch.object(MaxTSystem, "kept", property(whole_pairs)))
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


def tuple_key_rows(pairs, rising=True) -> list:
    """The rows of `pairs` on their front by the rule of a sort per column
    with a tuple key: one stable sort of the row indices by (g, b)
    descending, or by (g, -b) for the falling front, then the sweep that
    keeps each pair whose b beats every b before it.  `front` sorts the
    system's order of b by g alone instead; it must keep these rows."""
    key = pairs.__getitem__ if rising else (lambda l: (pairs[l][0], -pairs[l][1]))
    kept, best = [], None
    for l in sorted(range(len(pairs)), key=key, reverse=True):
        b = pairs[l][1]
        if best is None or (b > best if rising else b < best):
            kept.append(l)
            best = b
    return sorted(kept)


#: Columns of tied pairs, each with the rows its rising and its falling
#: front keep.  Where two pairs are equal, a kept pair of another row lies
#: between them, or their zeros differ in sign, so the kept pairs show
#: which of the two is kept.
TIED_COLUMNS = {
    "equal pairs out of row order": (
        ((0.5, 0.3), (0.9, 0.1), (0.5, 0.3), (0.2, 0.8), (0.2, 0.0), (0.5, 0.0), (0.9, 0.1)),
        [0, 1, 3],
        [1, 5],
    ),
    "equal g, different b": (
        ((0.5, 0.2), (0.5, 0.7), (0.3, 0.9), (0.5, 0.4), (0.3, 0.1)),
        [1, 2],
        [0, 4],
    ),
    "equal b, different g": (
        ((0.2, 0.5), (0.6, 0.5), (0.4, 0.5), (0.8, 0.1), (0.1, 0.1)),
        [1, 3],
        [3],
    ),
    "zero entries": (
        ((0.0, 0.5), (0.3, 0.0), (-0.0, 0.5), (0.3, -0.0), (0.0, 0.0), (-0.0, 0.0)),
        [0, 1],
        [1],
    ),
}

#: Entries of tie-heavy columns: signed zeros and three values.
TIE_GRID = (-0.0, 0.0, 0.25, 0.5, 1.0)

#: Entries at which a float and its shortest decimal differ most: 0, the
#: subnormals 5e-324 and 1e-310, the least normal float, 2^-53, 0.1, the
#: float below one and 1.
READ_GRID = (0.0, 5e-324, 1e-310, 2.0**-1022, 2.0**-53, 0.1, 1.0 - 2.0**-53, 1.0)


@st.composite
def read_columns(draw, max_size=12):
    """The pairs (g, b) of one column and its right-hand side, of validated
    entries: tie-heavy ones from a small pool of READ_GRID and a few full
    precision values, subnormal ones, or full precision ones."""
    full = st.floats(0.0, 1.0, allow_subnormal=True)
    source = draw(st.sampled_from(["tied", "subnormal", "full"]))
    if source == "tied":
        pool = draw(st.lists(st.one_of(st.sampled_from(READ_GRID), full), min_size=1, max_size=4))
        entries = st.sampled_from(pool)
    elif source == "subnormal":
        entries = st.one_of(st.sampled_from(READ_GRID[:4]), st.floats(0.0, 2.0**-1022))
    else:
        entries = full
    return tuple(draw(st.lists(st.tuples(entries, entries), max_size=max_size)))


class TestFront:
    def test_keeps_the_maximal_pairs_in_row_order(self):
        pairs = ((0.2, 0.9), (0.5, 0.5), (0.4, 0.4), (0.9, 0.1), (0.5, 0.3))
        assert front(*split(pairs)) == ((0.2, 0.9), (0.5, 0.5), (0.9, 0.1))

    def test_falling_keeps_high_g_and_low_b(self):
        pairs = ((0.2, 0.0), (0.5, 0.5), (0.4, 0.4), (0.9, 0.6), (0.5, 0.3))
        assert front(*split(pairs), rising=False) == ((0.2, 0.0), (0.9, 0.6), (0.5, 0.3))

    @pytest.mark.parametrize("rising", [True, False])
    def test_of_equal_pairs_keeps_the_first(self, rising):
        first, second = (0.5, 0.0), (0.5, -0.0)
        kept = front(*split((first, (0.1, 0.0), second)), rising)
        assert kept == (first,) and math.copysign(1.0, kept[0][1]) == 1.0

    def test_empty(self):
        assert front((), ()) == ()

    @pytest.mark.parametrize("shared", [False, True], ids=["own-order", "system-order"])
    @pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
    @pytest.mark.parametrize("name", list(TIED_COLUMNS))
    def test_ties_keep_the_tuple_key_rows(self, name, rising, shared):
        # the rows are those the sort by a tuple key kept, whether the front
        # sorts b itself or reads the order a system computed once
        pairs, rising_rows, falling_rows = TIED_COLUMNS[name]
        rows = rising_rows if rising else falling_rows
        assert tuple_key_rows(pairs, rising) == rows
        us, xs = split(pairs)
        order = beta_order(xs, rising) if shared else None
        assert repr(front(us, xs, rising, order)) == repr(tuple(pairs[l] for l in rows))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from(TIE_GRID), st.sampled_from(TIE_GRID)), max_size=9),
           st.booleans())
    def test_matches_the_tuple_key_sort(self, pairs, rising):
        pairs = tuple(pairs)
        us, xs = split(pairs)
        want = repr(tuple(pairs[l] for l in tuple_key_rows(pairs, rising)))
        assert repr(front(us, xs, rising)) == want
        assert repr(front(us, xs, rising, beta_order(xs, rising))) == want

    @settings(max_examples=300)
    @given(read_columns(), st.booleans())
    def test_fronts_of_readings_are_readings_of_fronts(self, pairs, rising):
        # reading a float as its shortest decimal is strictly increasing, so
        # the front of a column's readings keeps the rows of its float front:
        # the exact report reads a system's float fronts, read, as the
        # fronts of its exact columns and sorts no Fraction
        read = _Readings().__getitem__
        us, xs = split(pairs)
        exact = front(tuple(map(read, us)), tuple(map(read, xs)), rising)
        assert exact == tuple((read(g), read(b)) for g, b in front(us, xs, rising))


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


def fresh(system):
    """An equal MaxTSystem that has not scanned its `float_cells` yet: a
    system keeps its first scan, so the unpruned one needs its own."""
    return dataclasses.replace(system)


def maxt_outputs(system):
    """The float cells and both distances of a max-t system that has not
    scanned its `float_cells` yet."""
    return system.float_cells, maxt_distance(system), exact_maxt_distance(system)


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
            full = maxt_distance(fresh(system))
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
            assert pruned == exact_maxt_distance(fresh(system))

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
            assert repr(pruned) == repr(maxt_outputs(fresh(system)))


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
