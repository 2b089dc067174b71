"""Scalar algebra and composition tests, including the adjunction laws."""

import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fuzzrel import (
    DimensionMismatch,
    DomainError,
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    max_t_compose,
    maxt_closure,
    min_impl_compose,
    residuum,
    shifted_bounds,
    sup_distance,
    t_norm,
    transpose,
    unit,
    unit_matrix,
    unit_vector,
)
from fuzzrel.algebra import FLOAT, _kept, _operands, leq, pos
from fuzzrel.oracle import EXACT

KINDS = list(ImplicationKind)

# subnormal floats underflow products catastrophically and cannot arise
# from unit-interval data; exclude them
units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
kinds = st.sampled_from(KINDS)

# Slack for comparisons whose two sides are equal in exact arithmetic but
# reach the comparison through different float paths (quotients, sums).
FLOAT_GUARD = 1e-12


class TestImplicationKind:
    # a member hashes by identity; it must still behave as a dict key and
    # come back as itself from every way a program can find it
    def test_hash_is_identity(self):
        assert ImplicationKind.__hash__ is object.__hash__
        for kind in KINDS:
            assert hash(kind) == object.__hash__(kind)

    def test_members_are_dict_keys(self):
        table = {kind: kind.value for kind in KINDS}
        assert [table[kind] for kind in KINDS] == ["godel", "goguen", "lukasiewicz"]
        assert ImplicationKind.GODEL in table and "godel" not in table
        assert len({*KINDS, *KINDS}) == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_members_come_back_as_themselves(self, kind):
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert copy.copy(kind) is kind
        assert copy.deepcopy(kind) is kind
        assert ImplicationKind(kind.value) is kind
        assert ImplicationKind[kind.name] is kind
        assert {kind: 1}[pickle.loads(pickle.dumps(kind))] == 1


class TestUnitValidation:
    def test_accepts_interval_values(self):
        assert unit(0.0) == 0.0
        assert unit(1) == 1.0
        assert unit(0.37) == 0.37

    def test_clamps_tiny_drift(self):
        assert unit(-1e-13) == 0.0
        assert unit(1.0 + 1e-13) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            unit(-0.001)
        with pytest.raises(DomainError):
            unit(1.001)

    def test_rejects_nan_and_non_numbers(self):
        with pytest.raises(DomainError):
            unit(math.nan)
        with pytest.raises(DomainError):
            unit("0.5")
        with pytest.raises(DomainError):
            unit(True)

    @pytest.mark.parametrize(
        "value, want",
        [
            (0.0, "0.0"), (-0.0, "0.0"), (1.0, "1.0"), (1 + 1e-13, "1.0"),
            (5e-324, "5e-324"), (1, "1.0"), (0.37, "0.37"),
        ],
    )
    def test_results_are_pinned(self, value, want):
        # a plain float in (0, 1] is returned at once; 0.0, -0.0, a float
        # just above 1 and an int take the full path, which clamps and
        # converts: each result is a plain float with the pinned repr
        result = unit(value)
        assert type(result) is float and repr(result) == want

    def test_float_subclass_becomes_a_plain_float(self):
        result = unit(Drifted(0.5))
        assert type(result) is float and result == 0.5

    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "value: NaN is not a unit-interval value"),
            (math.inf, "value: inf is outside [0, 1]"),
            (True, "value: expected a number, got bool"),
            (Decimal("0.5"), "value: expected a number, got Decimal"),
        ],
    )
    def test_rejections_are_pinned(self, value, message):
        with pytest.raises(DomainError) as raised:
            unit(value)
        assert str(raised.value) == message

    def test_vector_needs_entries(self):
        with pytest.raises(DomainError):
            unit_vector([])

    def test_matrix_must_be_rectangular(self):
        with pytest.raises(DimensionMismatch):
            unit_matrix([[0.1, 0.2], [0.3]])

    def test_error_names_offending_entry(self):
        with pytest.raises(DomainError, match=r"gamma\[1\]\[0\]"):
            unit_matrix([[0.1], [1.5]], "gamma")

    @pytest.mark.parametrize("rows", [[], [[]]], ids=["no-rows", "no-columns"])
    def test_matrix_needs_entries(self, rows):
        with pytest.raises(DomainError, match="at least one row and one column"):
            unit_matrix(rows, "gamma")

    def test_rejects_integer_beyond_float_range(self):
        with pytest.raises(DomainError, match=r"^beta\[0\]: "):
            unit(10**400, "beta[0]")

    def test_non_array_names_field(self):
        with pytest.raises(DomainError, match=r"^gamma: "):
            unit_matrix(0.5, "gamma")
        with pytest.raises(DomainError, match=r"^gamma\[0\]: "):
            unit_matrix([0.5, 0.2], "gamma")
        with pytest.raises(DomainError, match=r"^gamma\[0\]: expected an array, got str$"):
            unit_matrix(["0.5"], "gamma")
        with pytest.raises(DomainError, match=r"^beta: "):
            unit_vector(0.5, "beta")

    @pytest.mark.parametrize(
        "value", ["0.5", b"\x01", bytearray(b"\x01"), {0.5: 1}, {0.5}, frozenset({0.5})],
        ids=lambda value: type(value).__name__,
    )
    def test_string_bytes_mapping_or_set_is_no_array(self, value):
        # each is iterable, but would be read as its characters, bytes or
        # keys, or in no set order: a row, a matrix or a vector of it is
        # named as no array, on the per-entry path the bulk check leaves it to
        got = rf"expected an array, got {type(value).__name__}$"
        godel = ImplicationKind.GODEL
        with pytest.raises(DomainError, match=rf"^gamma\[1\]: {got}"):
            FuzzySystem([[0.5], value], [0.1, 0.2], godel)
        with pytest.raises(DomainError, match=rf"^gamma: {got}"):
            FuzzySystem(value, [0.1], godel)
        with pytest.raises(DomainError, match=rf"^beta: {got}"):
            FuzzySystem([[0.5]], value, godel)
        with pytest.raises(DomainError, match=rf"^matrix\[0\]: {got}"):
            max_t_compose([value], godel, [0.5])
        with pytest.raises(DomainError, match=rf"^vector: {got}"):
            min_impl_compose([[0.5]], godel, value)

    def test_iterators_are_arrays(self):
        system = FuzzySystem(iter([iter([0.5, 0.25])]), iter([0.1]), ImplicationKind.GODEL)
        assert (system.gamma, system.beta) == (((0.5, 0.25),), (0.1,))


def reference_row(values, where):
    """`values` validated by one `unit` call per entry, named `where[j]`."""
    try:
        entries = enumerate(values)
    except TypeError:
        raise DomainError(f"{where}: expected an array, got {type(values).__name__}") from None
    return tuple(unit(v, f"{where}[{j}]") for j, v in entries)


def reference_vector(values, name):
    """unit_vector as one `unit` call per entry."""
    out = reference_row(values, name)
    if not out:
        raise DomainError(f"{name}: must have at least one entry")
    return out


def reference_matrix(rows, name):
    """unit_matrix as one `unit` call per entry."""
    try:
        numbered = enumerate(rows)
    except TypeError:
        raise DomainError(f"{name}: expected an array, got {type(rows).__name__}") from None
    grid = tuple(reference_row(row, f"{name}[{i}]") for i, row in numbered)
    if not grid or not grid[0]:
        raise DomainError(f"{name}: must have at least one row and one column")
    for i, row in enumerate(grid):
        if len(row) != len(grid[0]):
            raise DimensionMismatch(f"{name}: row {i} has {len(row)} entries, expected {len(grid[0])}")
    return grid


class Drifted(float):
    """A float subclass: `unit` returns it as a plain float."""


def described(result):
    """The repr and type of every entry, keeping the nesting, so that -0.0
    and float subclasses show."""
    if type(result) is tuple:
        return tuple, [described(v) for v in result]
    return repr(result), type(result)


def outcome(validate, value, name):
    """What `validate(value, name)` returns, as `described`, or the type
    and message of what it raises."""
    try:
        return described(validate(value, name))
    except (DomainError, DimensionMismatch) as error:
        return type(error), str(error)


shapes = st.sampled_from([list, tuple, iter])
entries = st.one_of(
    units,
    units.map(Drifted),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1e-13, 1e-13, 1.0 - 1e-13, 1.0 + 1e-13,
                     math.inf, -math.inf, math.nan, 0, 1, True, False, "0.5", None]),
)
# Entries of the rows the bulk check keeps, and the plain floats it must not
# keep: -0.0, NaN and drift past either end.
plain = st.one_of(units, st.sampled_from([0.0, -0.0, 1.0, math.nan, -1e-13, 1.0 + 1e-13]))
rows = st.one_of(st.lists(entries, max_size=6), st.lists(plain, max_size=6))


@st.composite
def grids(draw):
    """A list of rows, mostly of one width, each with the shape to give it."""
    width = draw(st.integers(1, 5))
    same_width = st.one_of(st.lists(entries, min_size=width, max_size=width),
                           st.lists(plain, min_size=width, max_size=width))
    grid = draw(st.lists(st.one_of(same_width, rows), max_size=4))
    return [(draw(shapes), row) for row in grid], draw(shapes)


def reference_system(matrix, vector, kind, names):
    """unit_system as one `unit` call per entry: the matrix, then the
    vector, then the row count, then the kind; the validated matrix, vector
    and columns."""
    rows = reference_matrix(matrix, names[0])
    rhs = reference_vector(vector, names[1])
    if len(rows) != len(rhs):
        raise DimensionMismatch(f"{names[0]} has {len(rows)} rows but {names[1]} has {len(rhs)} entries")
    if not isinstance(kind, ImplicationKind):
        raise TypeError(f"kind: expected ImplicationKind, got {kind!r}")
    return rows, rhs, transpose(rows)


def built_system(matrix, vector, kind, names):
    """The matrix, vector and columns of the system class `names[2]` built
    from `matrix`, `vector` and `kind`."""
    system = names[2](matrix, vector, kind)
    return getattr(system, names[0]), getattr(system, names[1]), system.columns


def system_outcome(validate, build, names):
    """What `validate(*build(), names)` returns, as `described`, or the
    type and message of what it raises."""
    try:
        return described(validate(*build(), names))
    except (DomainError, DimensionMismatch, TypeError) as error:
        return type(error), str(error)


# Entries the bulk passes of a system, over its grid and over its vector,
# keep, and single entries they must not keep, which `entries` and `plain`
# draw too, but more rarely.
kept = st.one_of(units, st.sampled_from([0.0, 1.0]))
traps = st.sampled_from([-0.0, math.nan, 0, 1, True, -1e-13, 1.0 + 1e-13, Drifted(0.5)])


@st.composite
def systems(draw):
    """A matrix and a vector, each with the shape to give it, and the
    matrix's rows with theirs.  Either the matrix of `grids` and a vector of
    any entries, with one entry per row, one fewer or one more; or a system
    of kept entries, lists and tuples, which the bulk passes keep unless up to
    two of its entries are replaced by any of `traps`, `entries` or `plain`,
    or the vector has one entry too few or too many."""
    arrays = st.sampled_from([list, tuple])
    if draw(st.booleans()):
        shaped_rows, outer = draw(grids())
        size = max(0, len(shaped_rows) + draw(st.integers(-1, 1)))
        vector = draw(st.lists(st.one_of(entries, plain), min_size=size, max_size=size))
        return shaped_rows, outer, vector, draw(shapes)
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    grid = [draw(st.lists(kept, min_size=width, max_size=width)) for _ in range(height)]
    size = height + draw(st.sampled_from([0, 0, 0, -1, 1]))
    vector = draw(st.lists(kept, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([array for array in (vector, *grid) if array]))
        target[draw(st.integers(0, len(target) - 1))] = draw(st.one_of(traps, entries, plain))
    return [(draw(arrays), row) for row in grid], draw(arrays), vector, draw(arrays)


SYSTEMS = [("gamma", "beta", FuzzySystem), ("a", "b", MaxTSystem)]


class TestBulkValidation:
    """unit_vector, unit_matrix and the systems, which unit_system builds,
    return and raise exactly what one `unit` call per entry would, on the
    grids, rows and vectors they check in bulk too."""

    @given(rows, shapes)
    def test_vector_equals_per_entry(self, values, shape):
        assert outcome(unit_vector, shape(values), "beta") == outcome(reference_vector, shape(values), "beta")

    @given(grids())
    def test_matrix_equals_per_entry(self, drawn):
        shaped_rows, outer = drawn

        def build():
            return outer([shape(row) for shape, row in shaped_rows])

        assert outcome(unit_matrix, build(), "gamma") == outcome(reference_matrix, build(), "gamma")

    @given(grids(), rows, st.sampled_from(["max_t_compose", "min_impl_compose"]))
    def test_operands_equal_the_per_row_path(self, drawn, vector, name):
        # a grid of list or tuple rows goes in one `_kept` call; the same
        # grid read from an iterator goes row by row, and both give the same
        # operands or the same first error
        shaped_rows, _ = drawn

        def operands(outer, name):
            grid = outer([shape(row) for shape, row in shaped_rows])
            return _operands(name, grid, tuple(vector), ImplicationKind.GODEL)[:2]

        assert outcome(operands, list, name) == outcome(operands, iter, name)

    def test_nan_mid_row_named(self):
        with pytest.raises(DomainError, match=r"^gamma\[0\]\[1\]: NaN"):
            unit_matrix([[0.2, math.nan, 0.7]], "gamma")
        with pytest.raises(DomainError, match=r"^beta\[1\]: NaN"):
            unit_vector([0.2, math.nan, 0.7], "beta")

    def test_negative_zero_becomes_positive(self):
        for got in (unit_matrix([[0.0, -0.0]])[0], unit_vector((0.0, -0.0))):
            assert [repr(v) for v in got] == ["0.0", "0.0"]

    def test_bulk_rows_make_no_per_entry_call(self, monkeypatch):
        calls = []

        def counted(value, name="value"):
            calls.append(name)
            return unit(value, name)

        monkeypatch.setattr("fuzzrel.algebra.unit", counted)
        rng = random.Random(20)
        gamma = [[rng.random() for _ in range(20)] for _ in range(20)]
        beta = [rng.random() for _ in range(20)]
        gamma[3][5] = 0.0
        system = FuzzySystem(gamma, beta, ImplicationKind.GODEL)
        assert calls == []
        assert system.gamma == tuple(map(tuple, gamma))
        gamma[7][2] = 1
        system = FuzzySystem(gamma, beta, ImplicationKind.GODEL)
        assert calls == [f"gamma[7][{j}]" for j in range(20)]
        assert system.gamma[7][2] == 1.0 and type(system.gamma[7][2]) is float

    @given(systems(), st.sampled_from([*KINDS, "godel"]))
    @example(([(list, [0.5, 0.0]), (tuple, [-0.0, 0.3])], tuple, [0.2, 0.0], tuple), KINDS[0])
    @example(([(tuple, [0.5, 0.0]), (tuple, [0.1, 0.3])], list, [0.2, -0.0], list), KINDS[1])
    def test_system_equals_per_entry(self, drawn, kind):
        # a system the bulk passes keep, and every other one, which goes the
        # per-row way, is built as one `unit` call per entry would build it
        shaped_rows, outer, vector, shape = drawn

        def build():
            return outer([row_shape(row) for row_shape, row in shaped_rows]), shape(vector), kind

        for names in SYSTEMS:
            assert system_outcome(built_system, build, names) == system_outcome(reference_system, build, names)

    @pytest.mark.parametrize("names", SYSTEMS, ids=lambda names: names[2].__name__)
    def test_one_bad_entry_goes_per_entry_alone(self, monkeypatch, names):
        # an int in the vector, or in one row, sends that array alone down
        # the per-entry path; the other arrays stay in bulk
        matrix, vector, system = names
        calls = []

        def counted(value, name="value"):
            calls.append(name)
            return unit(value, name)

        monkeypatch.setattr("fuzzrel.algebra.unit", counted)
        rng = random.Random(21)
        grid = [[rng.random() for _ in range(6)] for _ in range(5)]
        rhs = [rng.random() for _ in range(5)]
        rhs[3] = 1
        built = system(grid, rhs, ImplicationKind.GOGUEN)
        assert calls == [f"{vector}[{j}]" for j in range(5)]
        assert getattr(built, vector)[3] == 1.0 and type(getattr(built, vector)[3]) is float
        calls.clear()
        rhs[3], grid[2][4] = 0.5, 0
        built = system(grid, rhs, ImplicationKind.GOGUEN)
        assert calls == [f"{matrix}[2][{j}]" for j in range(6)]
        assert repr(getattr(built, matrix)[2][4]) == "0.0"


    @pytest.mark.parametrize("names", SYSTEMS, ids=lambda names: names[2].__name__)
    def test_a_bad_entry_reads_the_grid_then_each_row(self, monkeypatch, names):
        # a system whose one bad entry, the last of its grid, is the int 1
        # reads its entries in one `_kept` over the grid, then one per row,
        # the last of which sends its row entry by entry, then one for the
        # vector, which `unit_vector` keeps in bulk
        matrix, vector, system = names
        calls = []

        def counted(arrays):
            calls.append(arrays)
            return _kept(arrays)

        monkeypatch.setattr("fuzzrel.algebra._kept", counted)
        rng = random.Random(22)
        grid = [[rng.random() for _ in range(6)] for _ in range(5)]
        rhs = [rng.random() for _ in range(5)]
        grid[4][5] = 1
        built = system(grid, rhs, ImplicationKind.LUKASIEWICZ)
        assert len(calls) == 1 + 5 + 1
        assert calls[0] is grid
        assert [len(arrays) for arrays in calls[1:]] == [1] * (5 + 1)
        assert all(arrays[0] is read for arrays, read in zip(calls[1:], [*grid, rhs]))
        assert getattr(built, matrix)[4][5] == 1.0 and type(getattr(built, matrix)[4][5]) is float
        assert getattr(built, matrix) == tuple(map(tuple, grid))
        # a ragged one reads its grid the same way, then fails on its width
        # before the vector is read
        calls.clear()
        with pytest.raises(DimensionMismatch, match=rf"^{matrix}: row 1 has 5 entries, expected 6$"):
            system([grid[0], grid[1][:5], *grid[2:]], rhs, ImplicationKind.LUKASIEWICZ)
        assert len(calls) == 1 + 5


def reference_kept(arrays):
    """Whether `arrays` has an entry and `unit` returns every entry as it
    is: a plain float of the same repr."""
    entries = [v for array in arrays for v in array]
    try:
        return bool(entries) and all(type(v) is float and repr(unit(v)) == repr(v) for v in entries)
    except DomainError:
        return False


class TestKept:
    """`_kept`, the one loop that decides whether a list of arrays is kept
    as it is, against one `unit` call per entry, on the entries the drawn
    streams reach rarely and on drawn arrays."""

    @pytest.mark.parametrize("arrays, kept", [
        ([["0.5"]], False), ([[0.5, None]], False), ([[True]], False),
        ([[0.5], [0]], False), ([[1, 0.5]], False), ([[Drifted(0.5)]], False),
        ([[math.nan, 0.5]], False), ([[0.5], [0.2, math.nan]], False),
        ([[-0.0, 0.5]], False), ([(0.5, 0.3), [0.2, -0.0]], False),
        ([[5e-324, 1.0]], True), ([(0.0,), [1.0, 0.25]], True), ([[0.5], []], True),
        ([[]], False), ([], False),
    ])
    def test_examples(self, arrays, kept):
        assert _kept(arrays) is reference_kept(arrays) is kept

    @given(st.lists(st.lists(st.one_of(entries, plain), max_size=5).map(tuple) | rows, max_size=4))
    def test_equals_per_entry(self, arrays):
        assert _kept(arrays) is reference_kept(arrays)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_a_str_entry_is_named(self, kind):
        # the type is tested before any comparison, so a str is never compared
        with pytest.raises(DomainError, match=r"^gamma\[0\]\[0\]: expected a number, got str$"):
            FuzzySystem([["0.5"]], [0.5], kind)


# Operands of sup_distance beyond the unit interval: NaN, both zeros,
# infinities, ints and Fractions.
operands = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan]), st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
)


class TestSupDistance:
    @given(st.lists(st.tuples(operands, operands), min_size=1, max_size=6))
    def test_equals_the_generator_max(self, pairs):
        # the C-level reduction takes the same differences in the same order
        # and keeps the first of equal values, as max over a generator did
        u, v = map(tuple, zip(*pairs))
        got, want = sup_distance(u, v), max(abs(a - b) for a, b in zip(u, v))
        assert (type(got), repr(got)) == (type(want), repr(want))


class TestTNorm:
    def test_min_kind(self):
        assert t_norm(ImplicationKind.GODEL, 0.26, 0.4) == 0.26

    def test_bounded_sum_kind(self):
        assert t_norm(ImplicationKind.LUKASIEWICZ, 0.9, 0.4) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_is_neutral(self, kind):
        assert t_norm(kind, 0.37, 1.0) == pytest.approx(0.37, abs=1e-15)

    @given(kinds, units, units)
    def test_commutative(self, kind, x, y):
        assert t_norm(kind, x, y) == t_norm(kind, y, x)

    @given(kinds, units, units)
    def test_range(self, kind, x, y):
        assert 0.0 <= t_norm(kind, x, y) <= 1.0


class TestResiduum:
    def test_min_kind(self):
        assert residuum(ImplicationKind.GODEL, 0.6, 0.26) == 0.26

    def test_bounded_sum_kind(self):
        assert residuum(ImplicationKind.LUKASIEWICZ, 0.49, 0.3) == pytest.approx(0.81, abs=1e-12)

    def test_product_kind(self):
        assert residuum(ImplicationKind.GOGUEN, 0.6, 0.10) == pytest.approx(1 / 6, abs=1e-12)

    @given(kinds, units, units)
    def test_adjunction_pair(self, kind, x, y):
        assert t_norm(kind, x, residuum(kind, x, y)) <= y + FLOAT_GUARD
        assert y <= residuum(kind, x, t_norm(kind, x, y)) + FLOAT_GUARD

    @given(kinds, units, units, units)
    def test_adjunction_equivalence(self, kind, x, y, z):
        if t_norm(kind, x, z) <= y - 1e-9:
            assert z <= residuum(kind, x, y) + FLOAT_GUARD
        if z <= residuum(kind, x, y) - 1e-9:
            assert t_norm(kind, x, z) <= y + FLOAT_GUARD

    @given(kinds, units, units, units)
    def test_monotonicity(self, kind, a, b, y):
        lo, hi = min(a, b), max(a, b)
        # decreasing in the first argument, increasing in the second
        assert residuum(kind, hi, y) <= residuum(kind, lo, y)
        assert residuum(kind, y, lo) <= residuum(kind, y, hi)


class TestKindChecked:
    @pytest.mark.parametrize("call", [
        lambda kind: t_norm(kind, 0.3, 0.5),
        lambda kind: residuum(kind, 0.5, 0.3),
        lambda kind: max_t_compose(((0.3, 0.6),), kind, (0.5, 0.2)),
        lambda kind: min_impl_compose(((0.3, 0.6),), kind, (0.5, 0.2)),
        lambda kind: maxt_closure(((0.3, 0.6),), kind, (0.5,)),
    ], ids=["t_norm", "residuum", "max_t_compose", "min_impl_compose", "maxt_closure"])
    def test_kind_given_as_string_rejected(self, call):
        # a kind that is not an ImplicationKind used to fall through to Lukasiewicz
        with pytest.raises(TypeError, match="^kind: expected ImplicationKind, got 'godel'$"):
            call("godel")


class TestScalarOperandsValidated:
    # unvalidated, a negative Goguen y divides by zero, a NaN with a 2.0
    # makes a Lukasiewicz t-norm of 0.0, a negative delta swaps the shifted
    # bounds and a NaN entry passes through one of them
    def test_residuum(self):
        with pytest.raises(DomainError, match=r"^y: -0\.2 is outside \[0, 1\]$"):
            residuum(ImplicationKind.GOGUEN, 0.0, -0.2)

    def test_t_norm(self):
        with pytest.raises(DomainError, match="^x: NaN is not a unit-interval value$"):
            t_norm(ImplicationKind.LUKASIEWICZ, math.nan, 2.0)
        with pytest.raises(DomainError, match=r"^y: 2\.0 is outside \[0, 1\]$"):
            t_norm(ImplicationKind.LUKASIEWICZ, 0.5, 2.0)

    def test_shifted_bounds_delta(self):
        with pytest.raises(DomainError, match=r"^delta: -3\.0 is outside \[0, 1\]$"):
            shifted_bounds((0.5,), -3)

    def test_shifted_bounds_vector(self):
        with pytest.raises(DomainError, match=r"^vector\[1\]: NaN is not a unit-interval"):
            shifted_bounds((0.5, math.nan), 0.1)

    def test_entries_checked_before_the_kind(self):
        with pytest.raises(DomainError, match="^x: "):
            t_norm("godel", math.nan, 0.5)


class TestNumberTypes:
    def test_float_results_are_floats_and_never_negative_zero(self):
        # CLI JSON renders 0.0 and 1.0; an int literal or -0.0 would change it
        values = [unit(-0.0), pos(-0.5), t_norm(ImplicationKind.LUKASIEWICZ, 0.2, 0.3)]
        values += [residuum(kind, x, y) for kind in KINDS for x, y in ((0.3, 0.5), (0.4, 0.4))]
        for value in values:
            assert type(value) is float
            assert math.copysign(1.0, value) == 1.0


class TestCompositions:
    def test_max_t_reproduces_candidate(self):
        gamma_t = ((0.6, 0.26), (0.49, 0.9))
        out = max_t_compose(gamma_t, ImplicationKind.GODEL, (0.58, 0.88))
        assert out == (0.58, 0.88)

    def test_max_t_zero_vector(self):
        m = ((0.3, 0.7), (0.2, 0.9))
        assert max_t_compose(m, ImplicationKind.GOGUEN, (0.0, 0.0)) == (0.0, 0.0)

    def test_max_t_hand_checked(self):
        m = transpose(((0.41, 0.07), (0.29, 0.31)))
        assert max_t_compose(m, ImplicationKind.GODEL, (0.88, 0.46)) == (0.41, 0.31)

    def test_min_impl_fixed_point(self):
        gamma = ((0.6, 0.49), (0.26, 0.9))
        out = min_impl_compose(gamma, ImplicationKind.GODEL, (0.58, 0.88))
        assert out == (0.58, 0.88)

    def test_min_impl_all_ones(self):
        gamma = ((0.5, 0.1), (0.8, 0.33))
        assert min_impl_compose(gamma, ImplicationKind.LUKASIEWICZ, (1.0, 1.0)) == (1.0, 1.0)

    def test_min_impl_product_hand_checked(self):
        gamma = ((0.6, 0.49), (0.26, 0.9))
        out = min_impl_compose(gamma, ImplicationKind.GOGUEN, (0.10, 0.36))
        assert out[0] == pytest.approx(0.1 / 0.6, abs=1e-15)
        assert out[1] == pytest.approx(0.1 / 0.26, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_t_compose(((0.1, 0.2),), ImplicationKind.GODEL, (0.5,))
        with pytest.raises(DimensionMismatch):
            min_impl_compose(((0.1, 0.2),), ImplicationKind.GODEL, (0.5, 0.5, 0.5))
        with pytest.raises(DimensionMismatch):
            sup_distance((0.1,), (0.1, 0.2))
        # max() over no entries would raise a bare ValueError
        with pytest.raises(DimensionMismatch, match="^sup_distance: vectors have no entries$"):
            sup_distance((), ())

    @pytest.mark.parametrize("compose", [max_t_compose, min_impl_compose], ids=lambda f: f.__name__)
    def test_ragged_matrix(self, compose):
        # zip would truncate the short row to its first entry
        name = compose.__name__
        with pytest.raises(DimensionMismatch, match=f"^{name}: row 1 has 1 entries"):
            compose(((0.1, 0.2), (0.3,)), ImplicationKind.GODEL, (0.5, 0.5))
        with pytest.raises(DimensionMismatch, match=f"^{name}: row 0 has 1 entries"):
            compose(((0.3,), (0.1, 0.2)), ImplicationKind.GODEL, (0.5, 0.5))

    @pytest.mark.parametrize("compose", [max_t_compose, min_impl_compose], ids=lambda f: f.__name__)
    def test_zero_columns(self, compose):
        name = compose.__name__
        with pytest.raises(DimensionMismatch, match=f"^{name}: "):
            compose(((),), ImplicationKind.GODEL, ())
        with pytest.raises(DimensionMismatch, match=f"^{name}: "):
            compose(((), ()), ImplicationKind.LUKASIEWICZ, ())

    def test_entries_validated(self):
        # the public compositions validate every entry like an entry of a
        # system: unvalidated, a negative Goguen y raises a bare
        # ZeroDivisionError, and a NaN with a 2.0 returns (0.19999999999999996,)
        with pytest.raises(DomainError, match=r"^vector\[0\]: -0\.2 is outside \[0, 1\]$"):
            min_impl_compose(((0.0,),), ImplicationKind.GOGUEN, (-0.2,))
        with pytest.raises(DomainError, match=r"^matrix\[0\]\[0\]: NaN "):
            max_t_compose(((math.nan, 0.5),), ImplicationKind.LUKASIEWICZ, (2.0, 0.7))
        with pytest.raises(DomainError, match=r"^vector\[0\]: 2\.0 is outside \[0, 1\]$"):
            max_t_compose(((0.3, 0.5),), ImplicationKind.LUKASIEWICZ, (2.0, 0.7))

    def test_leq_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^leq: "):
            leq((0.1,), (0.1, 0.2))


def luka_max_t_loop(ar, matrix, vec):
    """The Lukasiewicz max-t composition as a loop over each row's t-norms,
    the positive part of each sum less one, keeping the first of equal
    maxima."""
    zero, out = ar.zero, []
    one = zero + 1
    for row in matrix:
        best = None
        for x, y in zip(row, vec):
            t = x + y - one
            t = t if t > zero else zero
            if best is None or t > best:
                best = t
        out.append(best)
    return tuple(out)


#: Entries of the Lukasiewicz max-t rows: the ends of [0, 1], the least
#: subnormal and the float below one, with 2-decimal and full-precision values.
LUKA_EDGES = (0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5)
luka_entries = st.one_of(
    st.sampled_from(LUKA_EDGES), st.floats(0.0, 1.0), st.integers(0, 100).map(lambda k: k / 100)
)


@st.composite
def luka_operands(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = st.tuples(*[luka_entries] * n)
    return draw(st.tuples(*[rows] * m)), draw(st.tuples(*[luka_entries] * n))


class TestLukaMaxT:
    # the Lukasiewicz max-t row is the positive part of its greatest sum
    # less one; it is the loop over its t-norms, bit for bit, on both
    # instances
    @given(luka_operands())
    @example((((0.0, 1.0), (5e-324, 1.0)), (1.0, 0.0)))
    @example((((5e-324, 5e-324), (0.0, 0.0)), (1.0, 5e-324)))
    @example((((1.0 - 2.0**-53,), (0.5,)), (2.0**-53,)))
    def test_is_the_loop(self, operands):
        matrix, vec = operands
        rows = FLOAT.max_t_rows[ImplicationKind.LUKASIEWICZ]
        assert described(rows(matrix, vec)) == described(luka_max_t_loop(FLOAT, matrix, vec))
        exact_matrix = tuple(tuple(map(Fraction, row)) for row in matrix)
        exact_vec = tuple(map(Fraction, vec))
        exact = EXACT.max_t_rows[ImplicationKind.LUKASIEWICZ](exact_matrix, exact_vec)
        assert exact == luka_max_t_loop(EXACT, exact_matrix, exact_vec)
        assert {*map(type, exact)} == {Fraction}


class TestShiftedBounds:
    def test_hand_checked(self):
        lower, upper = shifted_bounds((0.1, 0.4), 0.15)
        assert lower == (0.0, pytest.approx(0.25, abs=1e-15))
        assert upper == (pytest.approx(0.25, abs=1e-15), pytest.approx(0.55, abs=1e-15))

    def test_zero_shift(self):
        v = (0.88, 0.46)
        assert shifted_bounds(v, 0.0) == (v, v)

    def test_saturation(self):
        lower, upper = shifted_bounds((0.88, 0.46), 1.0)
        assert lower == (0.0, 0.0)
        assert upper == (1.0, 1.0)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example([0.88, 0.46, 0.0, 1.0], 0.0)
    @example([0.88, 0.46, 0.0, 1.0, 5e-324], 1.0)
    def test_one_sided_shifts_are_the_halves(self, values, delta):
        # `lower_shift` and `upper_shift` are the two halves of
        # `shifted_bounds`, bit for bit, on both instances, each is its
        # formula, (v - delta)^+ and min(v + delta, 1), and each is its
        # scalar, `shift_down` or `shift_up`, entry by entry
        v = tuple(values)
        lower, upper = FLOAT.shifted_bounds(v, delta)
        assert described(FLOAT.lower_shift(v, delta)) == described(lower)
        assert described(FLOAT.upper_shift(v, delta)) == described(upper)
        assert described(lower) == described(tuple(max(x - delta, 0.0) for x in v))
        assert described(upper) == described(tuple(min(x + delta, 1.0) for x in v))
        assert described(lower) == described(tuple(FLOAT.shift_down(x, delta) for x in v))
        assert described(upper) == described(tuple(FLOAT.shift_up(x, delta) for x in v))
        exact, exact_delta = tuple(map(Fraction, v)), Fraction(delta)
        lower, upper = EXACT.shifted_bounds(exact, exact_delta)
        assert EXACT.lower_shift(exact, exact_delta) == lower
        assert EXACT.upper_shift(exact, exact_delta) == upper
        assert lower == tuple(EXACT.shift_down(x, exact_delta) for x in exact)
        assert upper == tuple(EXACT.shift_up(x, exact_delta) for x in exact)
        assert {*map(type, lower + upper)} == {Fraction}
        assert lower == tuple(max(x - exact_delta, 0) for x in exact)
        assert upper == tuple(min(x + exact_delta, 1) for x in exact)

    @given(st.lists(units, min_size=1, max_size=6), units)
    def test_brackets_the_vector(self, values, delta):
        v = tuple(values)
        lower, upper = shifted_bounds(v, delta)
        assert all(lo <= x <= hi for lo, x, hi in zip(lower, v, upper))

    @given(st.lists(st.tuples(units, units), min_size=1, max_size=6), units)
    def test_equivalent_to_ball_membership(self, pairs, delta):
        v = tuple(p[0] for p in pairs)
        c = tuple(p[1] for p in pairs)
        lower, upper = shifted_bounds(v, delta)
        distance = sup_distance(v, c)
        if distance <= delta - 1e-9:
            assert all(lo <= x + FLOAT_GUARD for lo, x in zip(lower, c))
            assert all(x <= hi + FLOAT_GUARD for x, hi in zip(c, upper))
        if all(lo <= x for lo, x in zip(lower, c)) and all(
            x <= hi for x, hi in zip(c, upper)
        ):
            assert distance <= delta + FLOAT_GUARD
