"""`exact_maxt_distance` outside the small 2-decimal regime.

`exact_maxt_distance` scans the max-t cells in floats and evaluates in
Fractions only the cells within 2 * MAXT_ETA of a row minimum, in the rows
within 2 * MAXT_ETA of the best row, and in each such cell only the pairs
whose float one-pair cell lies within 2 * MAXT_ETA of the float cell.  That
is exact when every float cell lies within MAXT_ETA of its exact cell, which
`test_cell_error_within_eta` checks, and so does every float one-pair cell,
which `test_pair_cell_error_within_eta` checks; `test_equals_full_exact_scan`
compares the result with the full exact scan, with no front and no filter.  The systems mix full-precision entries,
1- and 2-decimal grids, a pool of {0, 0.5, 1, 1/3}, subnormals and 1 - 2^-53,
in shapes 1 x n, m x 1 and up to 30 x 30, with duplicate rows and columns;
the tie-heavy systems of `test_front.tied_systems` (2-decimal entries, a
shared pool, gamma == beta) are drawn too, and so are small max-Lukasiewicz
systems whose entries are all subnormal or the least normal float, where
float rounding most often reverses the exact order of two cells or rows.
"""

from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from fuzzrel import (
    FuzzySystem, ImplicationKind, MaxTSystem, exact_maxt_distance, exact_maxt_membership,
    exact_membership, oracle,
)
from fuzzrel.algebra import FLOAT
from fuzzrel.oracle import EXACT, MAXT_ETA, _exact, _exact_matrix, _exact_vector
from test_front import full_scan, tied_systems

SUBNORMALS = (5e-324, 1e-310, 2.2250738585072014e-308)
BELOW_ONE = 1.0 - 2.0**-53
POOL = (0.0, 0.5, 1.0, 1 / 3)

#: Each source draws one entry from a random.Random.
SOURCES = {
    "full": lambda rng: rng.random(),
    "1-decimal": lambda rng: round(rng.random(), 1),
    "2-decimal": lambda rng: round(rng.random(), 2),
    "pool": lambda rng: rng.choice(POOL),
    "subnormal": lambda rng: rng.choice(SUBNORMALS),
    "below one": lambda rng: BELOW_ONE,
}


@st.composite
def wide_entries(draw, max_dim=30):
    """(matrix, rhs) with entries drawn from one to three of SOURCES, shape
    1 x n, m x 1 or m x n with dims 1..max_dim, and rows and columns copied
    from a smaller base matrix."""
    rng = draw(st.randoms(use_true_random=False))
    sources = draw(st.lists(st.sampled_from(list(SOURCES)), min_size=1, max_size=3, unique=True))

    def entry():
        return SOURCES[rng.choice(sources)](rng)

    shape = draw(st.sampled_from(["1 x n", "m x 1", "m x n"]))
    m = 1 if shape == "1 x n" else draw(st.integers(1, max_dim))
    n = 1 if shape == "m x 1" else draw(st.integers(1, max_dim))
    base_m = draw(st.integers(1, m))
    base_n = draw(st.integers(1, n))
    base = [[entry() for _ in range(base_n)] for _ in range(base_m)]
    base_b = [entry() for _ in range(base_m)]
    rows = list(range(base_m)) + [rng.randrange(base_m) for _ in range(m - base_m)]
    cols = list(range(base_n)) + [rng.randrange(base_n) for _ in range(n - base_n)]
    rng.shuffle(rows)
    rng.shuffle(cols)
    a = tuple(tuple(base[r][c] for c in cols) for r in rows)
    b = tuple(base_b[r] for r in rows)
    return a, b


def wide_systems():
    """MaxTSystem of `wide_entries`, of any kind."""
    return st.builds(
        lambda entries, kind: MaxTSystem(*entries, kind),
        wide_entries(),
        st.sampled_from(list(ImplicationKind)),
    )


#: The default entries of `pooled_entries`: the subnormals 5e-324, 4e-320
#: and 1e-310 and the least normal float.
TINY_VALUES = (5e-324, 4e-320, 1e-310, 2.2250738585072014e-308)


@st.composite
def pooled_entries(draw, values=TINY_VALUES, max_dim=4):
    """(matrix, rhs) of dims 1..max_dim with every entry one of `values`.  A
    decimal reading is up to 1.2% off a subnormal float, and a sum with one
    rounds it away, so with the default TINY_VALUES cells and terms that
    are ordered in exact arithmetic often tie or swap in floats."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entry = st.sampled_from(values)
    rows = st.tuples(*[entry] * n)
    return draw(st.tuples(*[rows] * m)), draw(st.tuples(*[entry] * m))


def tiny_luka_systems():
    """Max-Lukasiewicz systems of `pooled_entries` with TINY_VALUES, where
    the float cell order most often reverses the exact one: with no window
    about a fifth of them get a wrong distance."""
    return st.builds(
        lambda entries: MaxTSystem(*entries, ImplicationKind.LUKASIEWICZ), pooled_entries()
    )


def tied_maxt_systems():
    """MaxTSystem of `test_front.tied_systems`, of any kind."""
    return st.builds(
        lambda system, kind: MaxTSystem(*system, kind),
        tied_systems(),
        st.sampled_from(list(ImplicationKind)),
    )


#: The three streams: the wide entries, the tie-heavy ones and the tiny
#: max-Lukasiewicz ones.
systems = st.one_of(wide_systems(), tied_maxt_systems(), tiny_luka_systems())

GODEL, GOGUEN, LUKA = ImplicationKind
TINY = 2.2250738585072014e-308

#: Systems in which float rounding puts two rows, or two cells of a row, in
#: the reverse of their exact order, so that dropping the row window or the
#: cell window (or setting MAXT_ETA to 0) gives another distance.
REVERSED_ROWS = (
    MaxTSystem(((TINY,), (0.8,), (0.3,)), (0.2, BELOW_ONE, 0.1), GODEL),
    MaxTSystem(((TINY,), (TINY,), (5e-324,)), (TINY, 5e-324, 1e-310), GOGUEN),
    MaxTSystem(((0.2,), (1.0,)), (TINY, 0.3), LUKA),
)
REVERSED_CELLS = (
    MaxTSystem(((1e-310, 1.0), (1e-310, 0.29535964757993605)), (1e-310, 0.0), GOGUEN),
    MaxTSystem(((0.0, TINY),), (1e-310,), LUKA),
)
#: Systems in which float rounding puts two pairs of the deciding cell (0, 0)
#: in the reverse of their exact order, so that dropping the pair window
#: gives another distance: the float one-pair cells of the two rows below
#: are 0.34700000000000003 and 0.347 for Godel, 0.06000000000000001 and
#: 0.060000000000000005 for max-product and 0.15500000000000003 and 0.155
#: for max-Lukasiewicz, and the exact ones are the other way round.
REVERSED_PAIRS = (
    MaxTSystem(((0.85,), (0.522,), (0.584,)), (0.98, 0.175, 0.23699999999999996), GODEL),
    MaxTSystem(((0.18,), (0.66,), (0.89,)), (0.24, 0.6, 0.8299999999999998), GOGUEN),
    MaxTSystem(((0.2,), (0.4,), (0.41,)), (0.2, 0.09, 0.09999999999999996), LUKA),
)


def with_examples(examples):
    """Decorate a test with an explicit example per tuple of arguments."""
    def decorate(test):
        for args in examples:
            test = example(*args)(test)
        return test
    return decorate


@settings(max_examples=120, deadline=None)
@with_examples((system,) for system in REVERSED_ROWS + REVERSED_CELLS + REVERSED_PAIRS)
@given(systems)
def test_equals_full_exact_scan(system):
    filtered = exact_maxt_distance(system)
    full = EXACT.maxt_value(full_scan(
        _exact_matrix(system.a), _exact_vector(system.b), EXACT.maxt_cells[system.kind]
    ))
    assert type(filtered) is Fraction
    assert filtered == full


@settings(max_examples=60, deadline=None)
@given(systems)
def test_each_value_is_read_once_per_system(system):
    # `exact_maxt_distance` and then `exact_maxt_membership` read each
    # distinct value of one system as a Fraction at most once, and so do
    # two `exact_membership` calls on one min-implication system: the exact
    # paths look every value up in the system's `readings`
    read, reader = Counter(), oracle._exact

    def counted(value):
        read[value] += 1
        return reader(value)

    with mock.patch.object(oracle, "_exact", counted):
        delta = exact_maxt_distance(system)
        exact_maxt_membership(system, delta)
        assert read and max(read.values()) == 1
        read.clear()
        twin = FuzzySystem(system.a, system.b, system.kind)
        exact_membership(twin, delta)
        exact_membership(twin, delta / 2)
    assert max(read.values(), default=1) == 1


@settings(max_examples=120, deadline=None)
@given(systems)
def test_cell_error_within_eta(system):
    cells = system.float_cells
    exact = full_scan(
        _exact_matrix(system.a), _exact_vector(system.b), EXACT.maxt_cells[system.kind]
    )
    eta = Fraction(MAXT_ETA)
    for row, exact_row in zip(cells, exact):
        for cell, exact_cell in zip(row, exact_row):
            assert abs(Fraction(cell) - exact_cell) <= eta, (cell, exact_cell)


def pair_cells(system, i, j):
    """The float and the exact one-pair cells of cell (i, j), one per pair
    that the system keeps in column j, `system.kept[j]`."""
    kind, u, x = system.kind, system.a[i][j], system.b[i]
    pairs = system.kept[j]
    floats = [FLOAT.maxt_cells[kind](u, x, (pair,)) for pair in pairs]
    exact = [
        EXACT.maxt_cells[kind](_exact(u), _exact(x), ((_exact(y), _exact(z)),))
        for y, z in pairs
    ]
    return floats, exact


@settings(max_examples=120, deadline=None)
@given(systems)
def test_pair_cell_error_within_eta(system):
    # the pair level keeps the pairs whose float one-pair cell lies within
    # 2 * MAXT_ETA of the float cell; that keeps the exact maximizing pair
    # when every one-pair cell, the Godel floor (x - u)^+ included, errs by
    # at most MAXT_ETA
    eta = Fraction(MAXT_ETA)
    for i in range(system.n):
        for j in range(system.m):
            floats, exact = pair_cells(system, i, j)
            for cell, exact_cell in zip(floats, exact):
                assert abs(Fraction(cell) - exact_cell) <= eta, (i, j, cell, exact_cell)


def test_reversed_pairs_reverse_the_deciding_pairs():
    # in each pinned system the float one-pair cells of cell (0, 0) put a
    # pair first that is not first in exact arithmetic, and that cell
    # decides the distance
    for system in REVERSED_PAIRS:
        floats, exact = pair_cells(system, 0, 0)
        first = floats.index(max(floats))
        assert exact[first] < max(exact)
        assert exact_maxt_distance(system) == max(exact)
