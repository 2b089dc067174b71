"""`exact_membership` and `exact_maxt_membership` against the full exact
evaluation.

Both decide their closure inequality by an interval pass in floats and
evaluate in Fractions only the rows it leaves undecided, over the terms that
can still attain a min or a max.  Here every verdict is compared with the
full exact evaluation, written out: `helpers.full_membership` on EXACT for
`exact_membership`, at every `row=` and at row None, and `leq(lower,
EXACT.maxt_closure(a, kind, upper))` for `exact_maxt_membership`.  At a
given `row=` the outer level is composed at that row alone.

The systems are the wide ones of `test_exact_maxt.py` (full precision, 1-
and 2-decimal grids, a small pool, subnormals, 1 - 2^-53, duplicate rows and
columns, shapes 1 x n, m x 1 and up to 30 x 30), the tie-heavy ones of
`test_front.tied_systems`, and small ones whose entries are all tiny or all
edge values {0, 5e-324, 0.5, 1 - 2^-53, 1}, each of every kind.  The deltas are where a verdict is fragile: the float distance of
`distance_report`, which both sides snap to SNAP_DIGITS decimals, the exact
max-t distance as a Fraction, 1e-12 either side of both, and a point of the
1/120 grid, as a Fraction and as a float.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from fuzzrel import (
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    distance_report,
    exact_maxt_distance,
    exact_maxt_membership,
    exact_membership,
)
from fuzzrel import oracle
from fuzzrel.algebra import leq, transpose
from fuzzrel.oracle import EXACT, _exact_delta, _exact_matrix, _exact_vector
from helpers import full_membership
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


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@with_examples(MEMBERSHIP_EXAMPLES)
@given(entries, kinds, grid)
def test_one_row_composes_its_outer_level_alone(entries, kind, k):
    # row=j takes the inner level over every column and the outer level
    # over row j only, and its verdict is the full evaluation's at row j
    system = FuzzySystem(*entries, kind)
    gamma, beta = _exact_matrix(system.gamma), _exact_vector(system.beta)
    columns = transpose(gamma)
    level, composed = oracle._level, []

    def recorded(residual, kind, rows, v_lo, v_hi):
        composed.append(len(rows))
        return level(residual, kind, rows, v_lo, v_hi)

    with mock.patch.object(oracle, "_level", recorded):
        for delta in deltas(*entries, kind, k):
            snapped = _exact_delta(delta)
            for j in range(system.m):
                composed.clear()
                full = full_membership(EXACT, gamma, columns, beta, kind, snapped, j, EXACT.zero)
                assert exact_membership(system, delta, j) is full, (delta, j)
                assert composed == [system.n, 1], (delta, j)


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
