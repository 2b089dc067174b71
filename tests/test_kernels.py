"""The scalar and cell formulas against their builtin `min` / `max` forms.

`algebra.arithmetic` spells every two-argument min/max and every positive
part of its thresholds and cell formulas as a conditional and every max
over a column as a loop, for speed.  Each must return what the builtin form
returns, down to the sign of a zero and the number type, in floats and in
Fractions: the references below are the formulas as the docstrings state
them, written with builtin min/max.  The report entries compute a whole
column of cells per call, with no cell formula of their own, so every cell
of each is checked against those references scanning the whole column, on
random columns and on columns that reach the Goguen rescale, all-zero gamma
columns and cells with a zero entry; each cell is the plain tuple of its
record's fields, since a row builds its records only when its `cells` are
read (`test_cell_types.py` pins the records of the rows).  The two
reductions of a column to its pairs of greatest key, `luka_top` of the
Lukasiewicz report column, in floats and in Fractions, and the float
max-Lukasiewicz one of `MaxTSystem.kept`, are checked against a
brute-force scan of the keys and against the cells of whole columns, also
on columns whose keys differ by less than their window: both instances
keep the same window, and rescale the Goguen quotient below the same
floor, which the edge columns check.  The two compositions, a
loop per kind, are checked against the builtin `max` /
`min` mapped over the kind's scalar t-norm or residuum, in floats also on
NaN and out-of-range entries, which unvalidated callers can pass; so are
the membership loops, on validated entries, against the same loops over
`shifted_bounds`.  The row rules of `Arithmetic.row_rules` are pinned on
hand-made rows: ties, rows with no supporting column and the number type
of every field.

Every random stream here is a `random.Random` with a fixed seed per test.
Under `--hypothesis-seed` the `seeds` fixture mixes that seed into each
one, so runs under other seeds draw other columns; without it the streams
are the same on every run.
"""

from fractions import Fraction
from itertools import chain, product
import math
import random
from types import SimpleNamespace

import pytest

from fuzzrel import ImplicationKind, MaxTSystem
from fuzzrel.algebra import FLOAT, KEY_WINDOW, QUOTIENT_FLOOR, QUOTIENT_SCALE, Fronts, front
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


@pytest.fixture
def seeds(pytestconfig):
    """`seeds(seed)`: the seed of a test's random stream `seed`, which is
    `seed` itself unless `--hypothesis-seed` is given, and otherwise a
    string that mixes that seed in."""
    given = pytestconfig.getoption("--hypothesis-seed")
    return lambda seed: seed if given is None else f"{given}/{seed}"


def references(ar):
    """The thresholds of `ar`, written with builtin min and max."""
    zero = ar.zero
    one = type(zero)(1)
    two = one + one
    floor, scale = map(type(zero), (QUOTIENT_FLOOR, QUOTIENT_SCALE))

    def pos(x):
        return max(zero, x)

    def godel(x, y, z):
        return min(pos(x - z) / two, pos(y - z))

    def goguen(u, x, y, z):
        if u == zero or y == zero:
            return zero
        if u + y < floor:
            # the common rescale of the quotient's gamma entries, as in the formula
            u, y = u * scale, y * scale
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


def columns(grid, seed, count: int):
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


def split(pairs):
    """The column entries and the right-hand side of a column's `pairs`,
    the two arguments of the column functions and reducers."""
    return tuple(g for g, _ in pairs), tuple(b for _, b in pairs)


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


def report_columns(grid, seed, count: int):
    """Columns for the report entries: every 1-row column of `grid`, then
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


def column_mismatches(ar, kind, pairs_of_columns) -> list:
    """The columns on which the report entry of `kind` differs from the
    fields of the brute-force cells over the whole column, by `repr`: value,
    sign of a zero, number type, and plain tuples, with no record built in
    the column.  The float Goguen quotient is monotone in the column pair
    only up to rounding, so the float Goguen column is compared over the
    `front` it reads; `test_front.py` compares that pruning with the whole
    column on systems, within a few ulps."""
    column, reference = ar.cells[kind], cell_references(ar)[kind]
    found = []
    for pairs in pairs_of_columns:
        us, xs = split(pairs)
        got = column(xs, SimpleNamespace(fronts=(front(us, xs),)))(us, 0)
        read = front(us, xs) if kind is GOGUEN and ar is FLOAT else pairs
        want = tuple(tuple(reference(g, b, read)) for g, b in pairs)
        if repr(got) != repr(want):
            found.append((pairs, got, want))
    return found


@both_types
@pytest.mark.parametrize("kind", [GOGUEN, LUKA], ids=lambda kind: kind.value)
def test_cell_stats_match_builtin_form(ar, grid, kind, seeds):
    # the Goguen and Lukasiewicz entries compute a whole column per call,
    # as the Godel one does: every cell must be the brute-force max over the
    # whole column (the float Goguen one over the front it reads)
    columns_ = report_columns(grid, seeds(1), 2000 if ar is FLOAT else 400)
    assert column_mismatches(ar, kind, columns_) == []


#: A Godel column on which float rounding moves the crossing of the sweep
#: right, between the two small betas, which are one ulp apart; in exact
#: arithmetic a higher level only moves it left.  A walk that stopped there
#: instead of stepping right would give row 2 the zeta of row 1, one ulp
#: above the whole-column scan's.
RIGHTWARD_STEP = (
    (0.12428632129684493, 0.24760657608805123),
    (0.0, 0.0009660665056386157),
    (0.0, 0.000966066505638616),
)


@both_types
def test_godel_column_matches_whole_column_scan(ar, grid, seeds):
    # the Godel entry computes a whole column in one sweep; every cell must
    # be the brute-force max over the whole column, down to the sign of a
    # zero theta
    number = type(ar.zero)
    columns_ = chain(
        report_columns(grid, seeds(7), 2000 if ar is FLOAT else 400),
        [tuple((number(g), number(b)) for g, b in RIGHTWARD_STEP)],
    )
    assert column_mismatches(ar, GODEL, columns_) == []


#: Float columns at the edges of the report entries: (g, b) pairs with
#: subnormal g and gl, whose Goguen quotient takes the rescale below
#: QUOTIENT_FLOOR; normal and subnormal entries mixed; all-zero gamma
#: columns; and cells with g == 0 beside supporting ones.
EDGE_COLUMNS = (
    ((5e-324, 0.2), (5e-324, 0.8)),
    ((1e-310, 0.3), (5e-324, 0.9), (2.2e-308, 0.5), (1e-320, 0.1)),
    ((2.0**-1000, 0.25), (2.0**-970, 0.75), (0.5, 0.5)),
    ((5e-324, 0.6), (0.4, 0.3), (1e-315, 0.95), (0.0, 1.0)),
    ((0.0, 0.2), (0.0, 0.7), (0.0, 0.0)),
    ((0.0, 1.0),),
    ((0.0, 0.5), (0.3, 0.4), (0.0, 0.9), (0.8, 0.1)),
    ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
)


def rescaled(ar, columns) -> list[int]:
    """The indices of the `columns` on which the Goguen report column of
    `ar` takes its rescale: some quotient's denominator g + gl lies in (0,
    tiny), where `tiny` is the floor that column reads, checked to be
    QUOTIENT_FLOOR in the instance's type, and so is its scale."""
    column = ar.cells[GOGUEN]
    guards = dict(zip(column.__code__.co_freevars, [c.cell_contents for c in column.__closure__]))
    tiny, scale = guards["tiny"], guards["scale"]
    assert same(tiny, type(ar.zero)(QUOTIENT_FLOOR))
    assert same(scale, type(ar.zero)(QUOTIENT_SCALE))
    return [
        k for k, pairs in enumerate(columns)
        if any(0 < g + gl < tiny for g, _ in pairs for gl, _ in pairs if gl > 0)
    ]


@pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
def test_report_columns_at_the_edges(kind):
    # the exact readings of the same 4 columns take the rescale too
    exact = [tuple((Fraction(g), Fraction(b)) for g, b in pairs) for pairs in EDGE_COLUMNS]
    assert len(rescaled(FLOAT, EDGE_COLUMNS)) == 4
    assert rescaled(EXACT, exact) == rescaled(FLOAT, EDGE_COLUMNS)
    assert column_mismatches(FLOAT, kind, EDGE_COLUMNS) == []
    assert column_mismatches(EXACT, kind, exact) == []


instances = pytest.mark.parametrize("ar", [FLOAT, EXACT], ids=["float", "exact"])


@instances
@pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
def test_row_rules_keep_the_first_of_equal_values(ar, kind):
    # tau is the least value of the row and its argmin the first column
    # that takes it; every value is of the instance's own number type
    one = type(ar.zero)(1)
    quarter, half = one / 4, one / 2
    values = (half, quarter, quarter)
    cells = {
        GODEL: [GodelCellStats(ar.zero, value, True, False) for value in values],
        GOGUEN: [GoguenCellStats(ar.zero, value, True) for value in values],
        LUKA: [LukaCellStats(value) for value in values],
    }[kind]
    row = ar.row_rules[kind](3, one / 8, tuple(cells))
    assert (row.row, row.argmin_col, row.tau_j, row.nabla_j) == (3, 1, quarter, quarter)
    assert row.one_minus_beta == one - one / 8
    assert row.attainable and not row.borderline
    assert row.cells == tuple(cells)
    assert {type(row.tau_j), type(row.nabla_j), type(row.one_minus_beta)} == {type(one)}


@instances
@pytest.mark.parametrize("kind", [GODEL, GOGUEN], ids=lambda kind: kind.value)
def test_row_rules_without_a_supporting_column(ar, kind):
    # a row whose cells all have a zero entry has no argmin and tau one, so
    # its distance is 1 - beta, attained; a Lukasiewicz row reads every
    # column, so it always has one
    one = type(ar.zero)(1)
    cell = {
        GODEL: GodelCellStats(-one / 2, ar.zero, False, False),
        GOGUEN: GoguenCellStats(ar.zero, ar.zero, False),
    }[kind]
    row = ar.row_rules[kind](0, one / 4, (cell, cell))
    assert row.argmin_col is None and row.tau_j == one and type(row.tau_j) is type(one)
    assert row.nabla_j == row.one_minus_beta == one - one / 4
    assert row.attainable and not row.borderline


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
def test_maxt_cells_match_builtin_form(ar, grid, seeds):
    rng = random.Random(seeds(2))
    references_by_kind = maxt_references(ar)
    found = []
    for kind, cell in ar.maxt_cells.items():
        reference = references_by_kind[kind.value]
        for column in columns(grid, seeds(3), 1500 if ar is FLOAT else 300):
            u, x = rng.choice(grid), rng.choice(grid)
            got, want = cell(u, x, column), reference(u, x, column)
            if not same(got, want):
                found.append((kind, u, x, column, got, want))
    assert found == []


def maxluka_kept(pairs):
    """The pairs of a column that `MaxTSystem.kept` keeps for the
    max-Lukasiewicz cells, as a function of the column's pairs: `kept` of
    the one-column system whose column and right-hand side they are, read
    unvalidated, so that a -0.0 stays as it is."""
    us, xs = split(pairs)
    return MaxTSystem.kept.func(SimpleNamespace(kind=LUKA, b=xs, columns=(us,)))[0]


def reducers(ar):
    """Each reduction of a column to its pairs of greatest key on `ar`, as
    a function of a column's pairs, with its key of a pair, its window and
    a cell formula whose max it keeps, cell(u, x, column): `luka_top` of
    the report column, whose cells are the brute-force ones of
    `cell_references`, and, in floats, `maxluka_kept`."""
    one = type(ar.zero)(1)
    window = type(one)(KEY_WINDOW)
    found = {
        "lukasiewicz": (ar.luka_top, lambda g, b: b - (one - g), window, cell_references(ar)[LUKA]),
    }
    if ar is FLOAT:
        found["max-lukasiewicz"] = (maxluka_kept, lambda y, z: y - z, window, ar.maxt_cells[LUKA])
    return found


#: Each reduction with its instance and grid, named as `reducers` names it.
REDUCERS = [
    pytest.param(ar, grid, name, id=f"{name}-{ar_id}")
    for ar, grid, ar_id in ((EXACT, EXACT_GRID, "exact"), (FLOAT, FLOAT_GRID, "float"))
    for name in reducers(ar)
]


@both_types
def test_lukasiewicz_column_reads_its_reducer(ar, grid):
    # the reducer checked below is the one the report column calls
    column = ar.cells[LUKA]
    assert ar.luka_top in [cell.cell_contents for cell in column.__closure__]


def near_columns(number, seed, count: int):
    """Random columns of 2-6 pairs of the type `number`: each column draws
    one pair (g, b) of k/8 values and moves each entry of each pair from it
    by up to 8 * 2^-53, so that the keys of a column differ by less than
    2^-49 and often by less than KEY_WINDOW = 2^-50, which the k/8 of
    EXACT_GRID never do.  Every entry is exactly a float value."""
    rng = random.Random(seed)
    tick = Fraction(1, 2**53)
    for _ in range(count):
        g, b = Fraction(rng.randint(1, 7), 8), Fraction(rng.randint(1, 7), 8)
        yield tuple(
            (number(g + rng.randint(-8, 8) * tick), number(b + rng.randint(-8, 8) * tick))
            for _ in range(rng.randint(2, 6))
        )


@pytest.mark.parametrize("ar, grid, name", REDUCERS)
def test_reducer_keeps_the_pairs_of_greatest_key(ar, grid, name, seeds):
    # on the grid and on columns of near keys, where the window decides
    # which pairs are kept: a pair below the greatest key is kept in some
    # columns and dropped in others
    reducer, key, window, cell = reducers(ar)[name]
    rng = random.Random(seeds(6))
    found, below, dropped = [], 0, 0
    count = 3000 if ar is FLOAT else 600
    near = list(near_columns(type(ar.zero), seeds(10), count // 3))
    for k, column in enumerate(chain(near, columns(grid, seeds(5), count))):
        top = max(key(*pair) for pair in column)
        want = tuple(pair for pair in column if key(*pair) >= top - window)
        kept = reducer(column)
        if repr(kept) != repr(want):
            found.append((column, kept, want))
        u, x = rng.choice(grid), rng.choice(grid)
        if not same(cell(u, x, kept), cell(u, x, column)):
            found.append((u, x, column, kept))
        if k < len(near):
            below += any(key(*pair) < top for pair in kept)
            dropped += len(kept) < len(column)
    assert found == []
    assert below > 0 and dropped > 0


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


#: Entries outside the validated domain: a composition called directly
#: must still return what the builtin form returns on them.
FLOAT_WILD = (math.nan, 1.5, -0.2)


def compositions(grid, seed, count: int):
    """Matrices and vectors over `grid`: each 1×n and m×1 shape up to 6,
    then random shapes up to 6×6, half of them tie-heavy (entries from two
    values of the grid) and half with a row repeated."""
    rng = random.Random(seed)

    def draw(values, m, n):
        matrix = [tuple(rng.choice(values) for _ in range(n)) for _ in range(m)]
        return matrix, tuple(rng.choice(values) for _ in range(n))

    for size in range(1, 7):
        for _ in range(count // 60):
            yield draw(grid, 1, size)
            yield draw(grid, size, 1)
    for _ in range(count):
        values = rng.sample(grid, 2) if rng.random() < 0.5 else grid
        matrix, vec = draw(values, rng.randint(1, 6), rng.randint(1, 6))
        if rng.random() < 0.5:
            matrix.insert(rng.randrange(len(matrix) + 1), rng.choice(matrix))
        yield tuple(matrix), vec


@pytest.mark.parametrize(
    "ar, grid",
    [(FLOAT, FLOAT_GRID), (FLOAT, FLOAT_GRID + FLOAT_WILD), (EXACT, EXACT_GRID)],
    ids=["float", "float-wild", "exact"],
)
@pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
def test_compositions_match_builtin_form(ar, grid, kind, seeds):
    # a Goguen residuum divides by a zero x when y is negative: the loop
    # must raise where the builtin form raises
    def outcome(compute):
        try:
            return [(type(value), repr(value)) for value in compute()]
        except ZeroDivisionError:
            return ZeroDivisionError

    found = [
        (matrix, vec, aggregate.__name__)
        for matrix, vec in compositions(grid, seeds(8), 2000 if ar is FLOAT else 400)
        for compose, aggregate, op in [
            (ar.max_t_rows[kind], max, ar.t_norms[kind]),
            (ar.min_impl_rows[kind], min, ar.residua[kind]),
        ]
        if outcome(lambda: compose(matrix, vec))
        != outcome(lambda: [aggregate(map(op, row, vec)) for row in matrix])
    ]
    assert found == []


@both_types
@pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
def test_membership_matches_builtin_form(ar, grid, kind, seeds):
    # the membership loop shifts beta where it reads it, writes the kind's
    # t-norm and residuum inline and stops each row at its first deciding
    # residuum: on whole columns as fronts, its verdict is the builtin
    # form's, max over `t_norms` of the lower bound for the inner level and
    # min over `residua` against the upper bound for each row, with the
    # bounds of `shifted_bounds`, for all rows and for each single row
    rng = random.Random(seeds(9))
    slacks = (ar.zero, type(ar.zero)(1) / 8)
    found = []
    for gamma, _ in compositions(grid, seeds(9), 2000 if ar is FLOAT else 400):
        beta = tuple(abs(rng.choice(grid)) for _ in gamma)
        delta = abs(rng.choice(grid))
        lower, upper = ar.shifted_bounds(beta, delta)
        # a `Fronts` whose every column holds its whole column of pairs
        fronts = Fronts(tuple(zip(*gamma)), beta, True)
        fronts.update(enumerate(tuple(zip(column, beta)) for column in fronts.columns))
        x = [max(map(ar.t_norms[kind], column, lower)) for column in zip(*gamma)]
        for slack in slacks:
            holds = [min(map(ar.residua[kind], row, x)) <= u + slack for row, u in zip(gamma, upper)]
            if ar.membership[kind](gamma, fronts, beta, delta, slack) is not all(holds):
                found.append((gamma, beta, delta, slack))
            j = rng.randrange(len(gamma))
            if ar.membership[kind]((gamma[j],), fronts, (beta[j],), delta, slack) is not holds[j]:
                found.append((gamma, beta, delta, slack, j))
    assert found == []
