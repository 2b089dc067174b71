"""Float report cells against exact ones.

`algebra.arithmetic` writes the cells of the min-implication reports once,
as `Arithmetic.cells`, and binds them to floats (`FLOAT`) and to Fractions
(`EXACT`).  The float scan of a system must stay close to the exact scan of
the decimal readings of its entries: theta and zeta within CELL_ETA, and
the same support, on full-precision, tie-heavy and edge entries (0, the
subnormals, 2^-53, 1 - 2^-53 and 1) at dims up to 30.  The columns give
each cell as the plain tuple of its record's fields, so the test reads them
by name through the kind's record.
"""

import sys
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import Phase, given, settings, strategies as st

from fuzzrel import GodelCellStats, GoguenCellStats, ImplicationKind, LukaCellStats
from fuzzrel.algebra import FLOAT, Fronts, column_scan, transpose
from fuzzrel.oracle import EXACT, _exact_matrix, _exact_vector
from helpers import tied_systems

GOGUEN = ImplicationKind.GOGUEN

#: The cell record of each kind.
RECORDS = dict(zip(ImplicationKind, (GodelCellStats, GoguenCellStats, LukaCellStats)))

#: A bound on |float cell - exact cell|, modelled on the max-t bound
#: `oracle.MAXT_ETA`: each statistic is a max of thresholds of a few sums,
#: products and quotients of entries, which err by a few eps = 2^-53 each.
CELL_ETA = 2.0 ** -49

#: The least subnormal, a subnormal near the bottom and one just below the
#: least normal float.
SUBNORMALS = (5e-324, 1e-320, 2.2e-308)
EDGES = (0.0, *SUBNORMALS, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)

#: Every phase but shrinking: each example scans up to 30x30 cells in
#: Fractions, so a failure is reported as drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def edge_systems(draw, max_dim=30):
    """(gamma, beta) of dims 1..max_dim whose entries are drawn from EDGES
    with a probability of 0, 1/2 or 1, and are full precision otherwise."""
    rng = draw(st.randoms(use_true_random=False))
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))

    def entry():
        return rng.choice(EDGES) if rng.random() < share else rng.random()

    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return tuple(tuple(entry() for _ in range(n)) for _ in range(m)), tuple(entry() for _ in range(m))


def without_subnormals(gamma):
    """`gamma` with every subnormal entry raised to the least normal float.

    Goguen cells divide gamma entries, and the theta quotient of two
    different subnormals reads up to a percent off its decimals (the
    product terms are rescaled and stay within their bound;
    `test_goguen.py::TestSubnormalGamma` checks the distance).
    """
    least = sys.float_info.min
    return tuple(tuple(least if 0.0 < g < least else g for g in row) for row in gamma)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(st.one_of(tied_systems(max_dim=30), edge_systems()), st.sampled_from(list(ImplicationKind)))
def test_float_cells_are_near_the_exact_cells(system, kind):
    gamma, beta = system
    if kind is GOGUEN:
        gamma = without_subnormals(gamma)
    # each scan takes a stand-in for the system, whose fronts the Goguen
    # entry reads
    floats, exacts = [
        column_scan(
            columns, rhs, ar.cells[kind], SimpleNamespace(fronts=Fronts(columns, rhs, True))
        )
        for ar, columns, rhs in (
            (FLOAT, transpose(gamma), beta),
            (EXACT, transpose(_exact_matrix(gamma)), _exact_vector(beta)),
        )
    ]
    record = RECORDS[kind]._make
    found = []
    for j, (float_row, exact_row) in enumerate(zip(floats, exacts)):
        for i, (cell, exact) in enumerate(zip(map(record, float_row), map(record, exact_row))):
            far = [
                name for name in ("theta", "zeta")
                if name in cell._fields
                and abs(Fraction(getattr(cell, name)) - getattr(exact, name)) > CELL_ETA
            ]
            if far or getattr(cell, "support", None) != getattr(exact, "support", None):
                found.append((j, i, cell, exact))
    assert found == []
