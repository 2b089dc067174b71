"""The Pareto-front column scan against the full scan it replaces.

`algebra.column_scan` hands every cell only the Pareto-maximal pairs of its
column.  That is exact because every threshold a cell takes its max over is
monotone in the column pair; `TestMonotone` checks the orientation of each
in exact rationals.  `TestAgainstFullScan` runs the solvers once with the
pruned scan and once with the unpruned scan, `full_scan` below, on systems
built to hold ties: duplicate rows and columns, equal (g, b) pairs in a
column, all-zero columns, beta entries of 0 or 1 and gamma == beta.
`exact_maxt_distance` builds its own fronts for its float filter and exact
fallback; unpruned, it keeps the filter but every column whole.  Its
comparison with the full exact scan, with no filter, is in
`test_exact_maxt.py`.
`TestLeast` pins the tie rule of the row minimum that reads those cells.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

import fuzzrel.algebra
import fuzzrel.oracle
import fuzzrel.report
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
from fuzzrel.algebra import front
from fuzzrel.oracle import EXACT
from fuzzrel.report import least

GODEL, GOGUEN, LUKA = ImplicationKind

#: The Goguen quotient and the max-product ratio are monotone in the column
#: pair in exact arithmetic only, so float rounding may let a pair off the
#: front reach a slightly higher value than the pair that dominates it.  The
#: values of those two kinds may differ from the full scan by this many ulps.
ULPS = 2

CELLS = {GODEL: godel_cell, GOGUEN: goguen_cell, LUKA: luka_cell}


def full_scan(matrix, rhs, cell, rising=True):
    """The column scan without pruning: every cell sees every pair."""
    columns = [tuple(zip(column, rhs)) for column in zip(*matrix)]
    return tuple(tuple(map(cell, row, repeat(r), columns)) for row, r in zip(matrix, rhs))


def whole_column(pairs, rising=True):
    """`front` without pruning: every pair, in row order."""
    return tuple(pairs)


@contextmanager
def unpruned():
    """Run the solvers on `full_scan`, float and exact paths alike, and the
    filter of `exact_maxt_distance` on whole columns."""
    with mock.patch.object(fuzzrel.algebra, "column_scan", full_scan):
        with mock.patch.object(fuzzrel.report, "column_scan", full_scan):
            with mock.patch.object(fuzzrel.oracle, "front", whole_column):
                yield


@st.composite
def tied_systems(draw, max_dim=20):
    """(gamma, beta) with full-precision or 2-decimal entries, dims
    1..max_dim, and ties on purpose: a small pool of shared values (0 and 1
    among them), rows and columns copied from a base matrix, zeroed columns
    and gamma entries set to a beta entry."""
    rng = draw(st.randoms(use_true_random=False))
    decimals = draw(st.sampled_from([2, None]))
    pool = draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.3]), max_size=3))

    def entry():
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        x = rng.random()
        return round(x, 2) if decimals == 2 else x

    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    base_m = draw(st.integers(1, m))
    base_n = draw(st.integers(1, n))
    base = [[entry() for _ in range(base_n)] for _ in range(base_m)]
    base_beta = [entry() for _ in range(base_m)]
    rows = list(range(base_m)) + [rng.randrange(base_m) for _ in range(m - base_m)]
    cols = list(range(base_n)) + [rng.randrange(base_n) for _ in range(n - base_n)]
    rng.shuffle(rows)
    rng.shuffle(cols)
    gamma = [[base[r][c] for c in cols] for r in rows]
    beta = [base_beta[r] for r in rows]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in gamma:
            row[i] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        gamma[rng.randrange(m)][rng.randrange(n)] = beta[rng.randrange(m)]
    return tuple(map(tuple, gamma)), tuple(beta)


def assert_close(pruned, full, ulps):
    """`pruned` equals `full` field by field, floats within `ulps` ulps."""
    if isinstance(full, float):
        assert abs(pruned - full) <= ulps * math.ulp(full), (pruned, full)
    elif isinstance(full, tuple):
        assert len(pruned) == len(full)
        for p, f in zip(pruned, full):
            assert_close(p, f, ulps)
    elif hasattr(full, "__dataclass_fields__"):
        assert type(pruned) is type(full)
        for name in full.__dataclass_fields__:
            assert_close(getattr(pruned, name), getattr(full, name), ulps)
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


#: Every phase but shrinking: each example re-runs both scans on up to 20x20
#: systems, so shrinking a failure would take minutes; unshrunk, it is
#: reported in seconds, as drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class TestAgainstFullScan:
    @settings(max_examples=150, deadline=None, phases=NO_SHRINK)
    @given(tied_systems(), st.sampled_from(list(ImplicationKind)))
    def test_reports_and_cells(self, system, kind):
        system = FuzzySystem(*system, kind)
        pruned = distance_report(system)
        with unpruned():
            full = distance_report(system)
        if kind is GOGUEN:
            assert_close(pruned, full, ULPS)
        else:
            assert repr(pruned) == repr(full)
        cell = CELLS[kind]
        for row in pruned.rows:
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
