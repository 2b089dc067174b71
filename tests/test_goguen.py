"""Goguen-kind distance: cell statistics, closed form, guaranteed attainment."""

import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

from fuzzrel import (
    Attainability,
    FuzzySystem,
    GoguenCellStats,
    ImplicationKind,
    KindMismatch,
    bisect_infimum,
    exact_membership,
    goguen_cell,
    goguen_distance,
    goguen_threshold,
    tolerance_membership,
)
from fuzzrel.algebra import FLOAT
from fuzzrel.errors import InvariantViolation
from fuzzrel.oracle import EXACT
from helpers import iter_random_systems

# subnormal floats underflow products catastrophically and cannot arise
# from unit-interval data; exclude them
units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)

# Membership re-tested exactly at the distance compares two float results
# that are equal in exact arithmetic; 1e-9 absorbs the drift.
SLACK = 1e-9


class TestGoguenThreshold:
    def test_hand_checked(self):
        assert goguen_threshold(0.3, 0.6, 0.4, 0.2) == pytest.approx(0.18 / 0.7, abs=1e-12)

    def test_zero_cases(self):
        assert goguen_threshold(0.0, 0.9, 0.4, 0.2) == 0.0
        assert goguen_threshold(0.3, 0.9, 0.0, 0.2) == 0.0

    def test_quotient_branch(self):
        assert goguen_threshold(0.6, 0.4, 0.26, 0.1) == pytest.approx(0.044 / 0.86, abs=1e-12)


class TestGoguenCell:
    def test_theta_values(self, inconsistent_goguen):
        assert goguen_cell(inconsistent_goguen, 0, 0).theta == pytest.approx(-0.9, abs=1e-12)
        # exact recomputation; displays usually round this to -0.14
        assert goguen_cell(inconsistent_goguen, 0, 1).theta == pytest.approx(
            0.4 - 0.49 / 0.9, abs=1e-12
        )

    def test_zeta_values(self, inconsistent_goguen):
        assert goguen_cell(inconsistent_goguen, 0, 0).zeta == pytest.approx(
            0.044 / 0.86, abs=1e-12
        )
        assert goguen_cell(inconsistent_goguen, 0, 1).zeta == pytest.approx(
            0.311 / 1.39, abs=1e-12
        )

    def test_zero_column_conventions(self):
        system = FuzzySystem(((0.0, 0.5), (0.0, 0.8)), (0.6, 0.2), ImplicationKind.GOGUEN)
        cell = goguen_cell(system, 0, 0)
        assert not cell.support
        assert cell.theta == 0.0  # empty comparison set
        assert cell.zeta == 0.0  # zero cases of the threshold

    def test_index_out_of_range(self, inconsistent_goguen):
        with pytest.raises(IndexError):
            goguen_cell(inconsistent_goguen, 0, 2)

    def test_kind_checked(self, inconsistent_godel):
        with pytest.raises(KindMismatch) as expected:
            goguen_distance(inconsistent_godel)
        with pytest.raises(KindMismatch) as raised:
            goguen_cell(inconsistent_godel, 0, 0)
        assert str(raised.value) == str(expected.value)


class TestGoguenDistance:
    def test_row_distance(self, inconsistent_goguen):
        report = goguen_distance(inconsistent_goguen)
        row = report.rows[0]
        assert row.tau_j == pytest.approx(0.044 / 0.86, abs=1e-12)
        assert row.nabla_j == row.tau_j
        assert row.argmin_col == 0

    def test_full_distance_against_oracle(self, inconsistent_goguen):
        report = goguen_distance(inconsistent_goguen)
        estimate = bisect_infimum(
            lambda d: tolerance_membership(inconsistent_goguen, d, slack=SLACK)
        )
        assert report.nabla == pytest.approx(estimate.inf_value, abs=1e-6)
        assert report.verdict is Attainability.MINIMUM

    def test_unit_rhs(self):
        system = FuzzySystem(((0.3, 0.9), (0.5, 0.2)), (1.0, 1.0), ImplicationKind.GOGUEN)
        assert goguen_distance(system).nabla == 0.0

    def test_kind_checked(self, inconsistent_godel):
        with pytest.raises(KindMismatch):
            goguen_distance(inconsistent_godel)


class TestGoguenInvariants:
    def test_theta_below_zeta_on_supported_cells(self):
        for system in iter_random_systems(31, 200, kind=ImplicationKind.GOGUEN):
            report = goguen_distance(system)
            for row in report.rows:
                for cell in row.cells:
                    if cell.support:
                        assert cell.theta <= cell.zeta + 1e-12

    def test_every_row_distance_is_attained(self):
        for system in iter_random_systems(32, 300, kind=ImplicationKind.GOGUEN):
            report = goguen_distance(system)
            for j, row in enumerate(report.rows):
                assert tolerance_membership(system, row.nabla_j, row=j, slack=SLACK)

    def test_distance_is_attained(self):
        for system in iter_random_systems(33, 300, kind=ImplicationKind.GOGUEN):
            report = goguen_distance(system)
            assert report.verdict is Attainability.MINIMUM
            assert tolerance_membership(system, report.nabla, slack=SLACK)

    def test_row_rule_checks_tau_against_the_least_zeta(self):
        # the row rule takes tau and the least zeta in one pass; a supporting
        # cell whose theta exceeds its zeta breaks the column's invariant.
        # Both instances run the same rule, each in its own number type.
        for ar in (FLOAT, EXACT):
            rule, tenth = ar.row_rules[ImplicationKind.GOGUEN], type(ar.zero)(1) / 10
            cells = (
                GoguenCellStats(tenth, 3 * tenth, True),
                GoguenCellStats(4 * tenth, 2 * tenth, True),
            )
            with pytest.raises(InvariantViolation, match=re.escape(f"least zeta {2 * tenth!r}")):
                rule(0, 2 * tenth, cells)
            # the column gives tau and the least zeta as the same value, so
            # a gap of 2^-45, below any float tolerance, breaks it too
            gap = type(ar.zero)(2.0**-45)
            near = (GoguenCellStats(2 * tenth + gap, 2 * tenth, True), cells[0])
            with pytest.raises(InvariantViolation, match=re.escape(f"least zeta {2 * tenth!r}")):
                rule(0, 2 * tenth, near)
            cells = (
                GoguenCellStats(9 * tenth, ar.zero, False),
                cells[0],
                GoguenCellStats(ar.zero, 3 * tenth, True),
            )
            row = rule(0, 2 * tenth, cells)
            assert (row.tau_j, row.argmin_col, row.nabla_j) == (3 * tenth, 1, 3 * tenth)
            assert type(row.one_minus_beta) is type(ar.zero)

    def test_column_checks_that_a_supporting_cell_dominates_a_row(self):
        # a supporting cell dominates at least its own row, which its
        # column's front keeps; a front that keeps no pair breaks the
        # column's invariant.  Both instances run the same column
        for ar in (FLOAT, EXACT):
            half = type(ar.zero)(1) / 2
            column = ar.cells[ImplicationKind.GOGUEN]((half,), SimpleNamespace(fronts={0: ()}))
            message = f"supporting cell with entry {half!r} dominates no row"
            with pytest.raises(InvariantViolation, match=re.escape(message)):
                column((half,), 0)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.98),
    )
    def test_quotient_strictly_dominates_margin_term(self, t, s, y, z):
        # construct a point of the open region 0 < u < y, 0 < x - u/y < 1 - z;
        # there the quotient term strictly exceeds the margin term
        u = t * y
        upper_x = min(1.0, t + (1.0 - z))
        x = t + s * (upper_x - t)
        margin = x - u / y
        assume(0.0 < margin < 1.0 - z)
        assert (x * y - u * z) / (u + y) > margin


#: A Goguen system with subnormal gamma entries: the exact distance is 0.3.
#: Both products of the quotient (x*y - u*z)^+ / (u + y) underflow when u
#: and y are subnormal, and its cap 1 - z does not bound that error (the
#: max-product ratio is capped by (y - z)^+, which does): unguarded, the
#: report reads 0.5 here, and errs by 9.9e-5 at 1e-320 and 2.0e-6 at
#: 1e-318.  The quotient scales u and y by a power of two first when u + y
#: is tiny, which leaves normal entries bit for bit as they are unscaled.
SUBNORMAL_GAMMA = (((5e-324,), (5e-324,)), (0.2, 0.8))

#: The subnormal values of `subnormal_systems`.
SUBNORMALS = (5e-324, 4.4e-323, 1e-320, 1e-315, 1e-310, 2.2e-308)


def subnormal_systems(seed: int, count: int):
    """Goguen systems, dims 1..5, 2-decimal entries, with each gamma entry
    replaced with probability 0.4 by one subnormal value per system.  The
    shortest decimal of a subnormal differs from its float by up to 1.2%,
    so the quotient of two different subnormals differs between the float
    and the exact reading; one value per system keeps such quotients at 1."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n, tiny = rng.randint(1, 5), rng.randint(1, 5), rng.choice(SUBNORMALS)

        def entry():
            return tiny if rng.random() < 0.4 else round(rng.random(), 2)

        gamma = tuple(tuple(entry() for _ in range(n)) for _ in range(m))
        beta = tuple(round(rng.random(), 2) for _ in range(m))
        yield FuzzySystem(gamma, beta, ImplicationKind.GOGUEN)


class TestSubnormalGamma:
    def test_exact_distance(self):
        system = FuzzySystem(*SUBNORMAL_GAMMA, ImplicationKind.GOGUEN)
        assert exact_membership(system, 0.3)
        assert not exact_membership(system, 0.299)

    def test_distance_agrees_with_the_oracle(self):
        system = FuzzySystem(*SUBNORMAL_GAMMA, ImplicationKind.GOGUEN)
        estimate = bisect_infimum(lambda delta: tolerance_membership(system, delta))
        assert goguen_distance(system).nabla == pytest.approx(estimate.inf_value, abs=1e-8)

    def test_report_is_the_exact_distance(self):
        # exact, not against the float bisection, whose Goguen residuum y / x
        # errs by up to 2e-5 on a subnormal max-t image.  exact_membership
        # snaps a float delta to 12 decimals, so "at nabla" reads nabla +
        # 1e-11; an unguarded quotient fails here in about 5% of the systems
        system = FuzzySystem(*SUBNORMAL_GAMMA, ImplicationKind.GOGUEN)
        assert exact_membership(system, goguen_distance(system).nabla)
        for system in (system, *subnormal_systems(5, 300)):
            nabla = goguen_distance(system).nabla
            assert exact_membership(system, min(nabla + 1e-11, 1.0)), system
            assert nabla < 1e-6 or not exact_membership(system, nabla - 1e-6), system
