"""The scalar and cell formulas against their builtin `min` / `max` forms.

`algebra.arithmetic` spells every two-argument min/max and every positive
part of its thresholds and cell formulas as a conditional and every max
over a column as a loop, for speed.  Each must return what the builtin form
returns, down to the sign of a zero and the number type, in floats and in
Fractions: the references below are the formulas as the docstrings state
them, written with builtin min/max.  The Godel report column, which has no
cell formula of its own, is checked against those references scanning the
whole column.  The Lukasiewicz column reducers are checked against a
brute-force scan of the keys and against the cells of whole columns.
"""

from fractions import Fraction
from itertools import product
import random

import pytest

from fuzzrel import ImplicationKind
from fuzzrel.algebra import FLOAT, KEY_WINDOW
from fuzzrel.oracle import EXACT
from fuzzrel.report import BORDERLINE_EPS, GodelCellStats, GoguenCellStats, LukaCellStats

GODEL, GOGUEN, LUKA = ImplicationKind

#: Signed zeros, the least subnormal and the float just below one: the
#: values at which a tie rule or a branch could show.
FLOAT_GRID = (-0.0, 0.0, 5e-324, 0.25, 0.5, 1.0 - 2.0**-53, 1.0)
EXACT_GRID = tuple(Fraction(k, 8) for k in range(9))

both_types = pytest.mark.parametrize(
    "ar, grid", [(FLOAT, FLOAT_GRID), (EXACT, EXACT_GRID)], ids=["float", "exact"]
)


def references(ar):
    """The thresholds of `ar`, written with builtin min and max."""
    zero = ar.zero
    one = type(zero)(1)
    two = one + one

    def pos(x):
        return max(zero, x)

    def godel(x, y, z):
        return min(pos(x - z) / two, pos(y - z))

    def goguen(u, x, y, z):
        if u == zero or y == zero:
            return zero
        return max(pos(x - u / y), min(pos(x * y - u * z) / (u + y), one - z))

    def luka(u, v, x, y):
        return max(pos(u - y), min(pos(x - v), pos(x - y + u - v) / two))

    def maxprod(u, x, y, z):
        ratio = x if u == zero else pos(x * y - u * z) / (u + y)
        return max(pos(x - u), min(ratio, pos(y - z)))

    def maxluka(u, x, y, z):
        v = x + u - one
        return min(x, max(pos(v), pos(v + y - z) / two))

    def upper(v, delta):
        return min(v + delta, one)

    return {
        "godel_threshold": (godel, 3),
        "goguen_threshold": (goguen, 4),
        "luka_threshold": (luka, 4),
        "maxprod_threshold": (maxprod, 4),
        "maxluka_threshold": (maxluka, 4),
        "shifted_bounds": (upper, 2),
    }


def same(got, want) -> bool:
    """Equal value, number type and, for floats, sign of zero."""
    return type(got) is type(want) and repr(got) == repr(want)


def upper_entry(ar):
    return lambda v, delta: ar.shifted_bounds((v,), delta)[1][0]


@both_types
@pytest.mark.parametrize("name", list(references(FLOAT)))
def test_scalar_formula_matches_builtin_form(ar, grid, name):
    reference, arity = references(ar)[name]
    formula = upper_entry(ar) if name == "shifted_bounds" else getattr(ar, name)
    found = [
        (args, got, want)
        for args in product(grid, repeat=arity)
        for got, want in [(formula(*args), reference(*args))]
        if not same(got, want)
    ]
    assert found == []


def columns(grid, seed: int, count: int):
    """Random columns of 1-6 pairs from `grid`, about half of them holding
    a pair twice, so ties between equal thresholds are frequent."""
    rng = random.Random(seed)
    for _ in range(count):
        column = [(rng.choice(grid), rng.choice(grid)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            column.insert(rng.randrange(len(column) + 1), rng.choice(column))
        if rng.random() < 0.5:
            column.append(column[0])
        yield tuple(column)


def cell_references(ar):
    """The report cells of `ar`, written with builtin min and max: each a max
    over the whole column."""
    zero = ar.zero
    one = type(zero)(1)

    def godel(g, b, column):
        theta = max(bl - g for gl, bl in column if g <= gl)
        zeta = max(ar.godel_threshold(bl, gl, b) for gl, bl in column)
        support = g > zero
        return GodelCellStats(theta, zeta, support, support and abs(theta - zeta) <= BORDERLINE_EPS)

    def goguen(g, b, column):
        theta = max((bl - g / gl for gl, bl in column if gl > zero and g <= gl), default=zero)
        zeta = max(ar.goguen_threshold(g, bl, gl, b) for gl, bl in column)
        return GoguenCellStats(theta, zeta, g > zero)

    def luka(g, b, column):
        return LukaCellStats(max(ar.luka_threshold(one - g, one - gl, bl, b) for gl, bl in column))

    return {GODEL: godel, GOGUEN: goguen, LUKA: luka}


@both_types
@pytest.mark.parametrize("kind", [GOGUEN, LUKA], ids=lambda kind: kind.value)
def test_cell_stats_match_builtin_form(ar, grid, kind):
    cell, reference = ar.cells[kind].cell, cell_references(ar)[kind]
    rng = random.Random(4)
    found = []
    for column in columns(grid, 1, 3000 if ar is FLOAT else 600):
        # a cell's column holds a pair that dominates the cell's own pair,
        # so the Godel theta is never a max over an empty set
        g, b = rng.choice(column)
        got, want = cell(g, b, column), reference(g, b, column)
        if not same(got, want):
            found.append((g, b, column, got, want))
    assert found == []


def godel_columns(grid, seed: int, count: int):
    """Columns for the Godel sweep: every 1-row column of `grid`, then
    columns whose gamma entries are all zero (of either sign in floats),
    columns of a few pairs that share two g values, so that equal-g groups
    are large, and the random `columns`, which repeat pairs."""
    yield from (((g, b),) for g in grid for b in grid)
    zeros = [g for g in grid if g == 0]
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple((rng.choice(zeros), rng.choice(grid)) for _ in range(rng.randint(2, 6)))
        gs = rng.sample(grid, 2)
        yield tuple((rng.choice(gs), rng.choice(grid)) for _ in range(rng.randint(2, 8)))
    yield from columns(grid, seed, count)


@both_types
def test_godel_column_matches_whole_column_scan(ar, grid):
    # the Godel entry computes a whole column in one sweep; every cell must
    # be the brute-force max over the whole column, down to the sign of a
    # zero theta
    column, reference = ar.cells[GODEL], cell_references(ar)[GODEL]
    found = []
    for pairs in godel_columns(grid, 7, 2000 if ar is FLOAT else 400):
        got = column(*zip(*pairs))
        want = tuple(reference(g, b, pairs) for g, b in pairs)
        if repr(got) != repr(want):
            found.append((pairs, got, want))
    assert found == []


def maxt_references(ar):
    one = type(ar.zero)(1)
    pos = lambda x: max(ar.zero, x)
    return {
        "godel": lambda u, x, column: max(
            pos(x - u), max(ar.godel_threshold(x, y, z) for y, z in column)
        ),
        "goguen": lambda u, x, column: max(ar.maxprod_threshold(u, x, y, z) for y, z in column),
        "lukasiewicz": lambda u, x, column: max(
            ar.maxluka_threshold(one - u, x, y, z) for y, z in column
        ),
    }


@both_types
def test_maxt_cells_match_builtin_form(ar, grid):
    rng = random.Random(2)
    references_by_kind = maxt_references(ar)
    found = []
    for kind, (cell, _) in ar.maxt_cells.items():
        reference = references_by_kind[kind.value]
        for column in columns(grid, 3, 1500 if ar is FLOAT else 300):
            u, x = rng.choice(grid), rng.choice(grid)
            got, want = cell(u, x, column), reference(u, x, column)
            if not same(got, want):
                found.append((kind, u, x, column, got, want))
    assert found == []


def reducers(ar):
    """Each Lukasiewicz reducer of `ar` with its key of a pair, its window
    and a cell formula whose max it keeps, cell(u, x, column)."""
    one = type(ar.zero)(1)
    window = KEY_WINDOW if ar is FLOAT else ar.zero
    luka, maxluka = ar.cells[LUKA], ar.maxt_cells[LUKA]
    return {
        "lukasiewicz": (luka.column, lambda g, b: b - (one - g), window, luka.cell),
        "max-lukasiewicz": (maxluka.column, lambda y, z: y - z, window, maxluka.cell),
    }


@both_types
@pytest.mark.parametrize("name", list(reducers(FLOAT)))
def test_reducer_keeps_the_pairs_of_greatest_key(ar, grid, name):
    reducer, key, window, cell = reducers(ar)[name]
    rng = random.Random(6)
    found = []
    for column in columns(grid, 5, 3000 if ar is FLOAT else 600):
        top = max(key(*pair) for pair in column)
        want = tuple(pair for pair in column if key(*pair) >= top - window)
        kept = reducer(column)
        if repr(kept) != repr(want):
            found.append((column, kept, want))
        u, x = rng.choice(grid), rng.choice(grid)
        if not same(cell(u, x, kept), cell(u, x, column)):
            found.append((u, x, column, kept))
    assert found == []


@pytest.mark.parametrize("name", list(reducers(FLOAT)))
def test_reducer_keeps_ties_in_row_order(name):
    reducer = reducers(FLOAT)[name][0]
    single = ((0.25, 0.5),)
    assert reducer(single) == single
    # keys equal in both kinds' keys, signed zeros included: all are kept,
    # the -0.0 entries as they are
    tied = ((-0.0, -0.0), (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0))
    assert repr(reducer(tied)) == repr(tied)
    below = (0.5, 0.5) if name == "lukasiewicz" else (0.25, 0.5)
    assert reducer(((1.0, 1.0), below, (1.0, 1.0))) == ((1.0, 1.0), (1.0, 1.0))
