"""Membership predicates, bisection bracketing and sampling utilities."""

from decimal import Decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzrel import (
    Attainability,
    DomainError,
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    PredicateNotUpClosed,
    bisect_infimum,
    check_consistency,
    closure,
    distance_report,
    generate_random_system,
    godel_distance,
    sample_consistent_rhs,
    shifted_bounds,
    sup_distance,
    tolerance_membership,
)
from fuzzrel.algebra import leq
from fuzzrel.cli import MEMBERSHIP_SLACK
from fuzzrel.oracle import exact_maxt_membership, exact_membership
from helpers import BoolLike, iter_random_systems, tied_systems
from test_exact_maxt import pooled_entries, wide_entries, with_examples
from test_front import NO_SHRINK

#: Entries at which a branch of a residuum or a clamp shows: both ends of
#: [0, 1], the least subnormal, the float below one and 0.5.
EDGE_VALUES = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)


class TestToleranceMembership:
    def test_row_membership_at_attained_distance(self, inconsistent_godel):
        assert tolerance_membership(inconsistent_godel, 0.15, row=0)

    def test_everything_within_one(self):
        for system in iter_random_systems(61, 30):
            assert tolerance_membership(system, 1.0)

    def test_row_fails_at_infimum(self, infimum_godel):
        assert not tolerance_membership(infimum_godel, 0.15, row=1)

    def test_row_index_checked(self, infimum_godel):
        with pytest.raises(IndexError):
            tolerance_membership(infimum_godel, 0.5, row=2)

    @pytest.mark.parametrize("row", [True, 0.5, "1"])
    def test_row_index_must_be_an_integer(self, infimum_godel, row):
        # row=True used to test row 1
        with pytest.raises(TypeError, match="^row: expected an integer index"):
            tolerance_membership(infimum_godel, 0.15, row=row)

    def test_upward_closed_empirically(self):
        for system in iter_random_systems(62, 50):
            for j in list(range(system.m)) + [None]:
                previous = None
                for k in range(0, 11):
                    current = tolerance_membership(system, k / 10, row=j, slack=1e-9)
                    if previous is not None and previous:
                        assert current
                    previous = current

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
    def test_slack_must_be_finite_non_negative(self, inconsistent_godel, slack):
        # NaN made every delta fail, 1.0 included, and inf every delta hold
        with pytest.raises(ValueError, match="slack must be a finite non-negative number"):
            tolerance_membership(inconsistent_godel, 1.0, slack=slack)
        with pytest.raises(ValueError, match="slack"):
            tolerance_membership(inconsistent_godel, 0.0, row=0, slack=slack)

    @pytest.mark.parametrize(
        "slack", [True, "1e-9", None, BoolLike(), Decimal("0.1")],
        ids=["true", "str", "none", "bool-like", "decimal"],
    )
    def test_slack_must_be_a_number_but_no_bool(self, inconsistent_godel, slack):
        # True was read as 1, so delta 0 passed on a system at distance
        # 0.15, and so was a stand-in for numpy's bool; a string or None
        # raised the comparison's TypeError, and a Decimal the TypeError of
        # the membership loop's float sum
        with pytest.raises(ValueError, match=r"^slack must be a finite non-negative number, got "):
            tolerance_membership(inconsistent_godel, 0.0, slack=slack)
        assert tolerance_membership(inconsistent_godel, 0.0, slack=1)

    def test_nan_slack_is_not_reported_as_a_predicate_fault(self, inconsistent_godel):
        # it used to surface as PredicateNotUpClosed("predicate must hold at 1.0")
        with pytest.raises(ValueError, match="slack"):
            bisect_infimum(lambda d: tolerance_membership(inconsistent_godel, d, slack=math.nan))


class TestExactMembership:
    def test_agrees_at_plain_points(self, inconsistent_godel):
        assert exact_membership(inconsistent_godel, 0.15, row=0)
        assert exact_membership(inconsistent_godel, 1.0)

    def test_detects_unattained_boundary(self, infimum_godel):
        assert not exact_membership(infimum_godel, 0.15, row=1)
        assert exact_membership(infimum_godel, 0.150001, row=1)

    def test_row_index_checked(self, infimum_godel):
        with pytest.raises(IndexError):
            exact_membership(infimum_godel, 0.5, row=-1)

    @pytest.mark.parametrize("row", [True, 0.5, "1"])
    def test_row_index_must_be_an_integer(self, infimum_godel, row):
        # row=True used to test row 1
        with pytest.raises(TypeError, match="^row: expected an integer index"):
            exact_membership(infimum_godel, 0.15, row=row)

    @pytest.mark.parametrize(
        "delta", [-0.1, 1.5, math.nan, Fraction(-1, 10), Fraction(3, 2)],
        ids=["negative", "above-one", "nan", "negative-fraction", "above-one-fraction"],
    )
    def test_delta_outside_unit_interval_rejected(self, infimum_godel, delta):
        with pytest.raises(DomainError, match="delta"):
            exact_membership(infimum_godel, delta)
        maxt = MaxTSystem(infimum_godel.gamma, infimum_godel.beta, infimum_godel.kind)
        with pytest.raises(DomainError, match="delta"):
            exact_maxt_membership(maxt, delta)


GODEL, GOGUEN, LUKA = ImplicationKind

#: (entries, kind, grid point) whose columns exercise the fronts that
#: `tolerance_membership` reads: equal (g, beta) pairs in one column (rows 0
#: and 1 of column 0), an all-zero column, beta entries 0.0 and 1.0, and a
#: Goguen column with the entry 5e-324, each at a delta of the 1/120 grid.
FRONT_EXAMPLES = (
    ((((0.6, 0.3), (0.6, 0.8), (0.2, 0.5)), (0.4, 0.4, 0.7)), GODEL, 30),
    ((((0.6, 0.3), (0.6, 0.8), (0.2, 0.5)), (0.4, 0.4, 0.7)), LUKA, 30),
    ((((0.0, 0.7), (0.0, 0.2), (0.0, 0.9)), (0.3, 0.6, 0.1)), GOGUEN, 40),
    ((((0.5, 0.9), (0.8, 0.1), (0.3, 0.3)), (0.0, 1.0, 0.5)), GODEL, 12),
    ((((0.5, 0.9), (0.8, 0.1), (0.3, 0.3)), (0.0, 1.0, 0.5)), LUKA, 60),
    ((((5e-324, 0.4), (0.7, 5e-324), (5e-324, 1.0)), (0.8, 0.2, 0.5)), GOGUEN, 7),
)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@with_examples(FRONT_EXAMPLES)
@given(
    st.one_of(wide_entries(max_dim=12), tied_systems(max_dim=12), pooled_entries(EDGE_VALUES)),
    st.sampled_from(list(ImplicationKind)),
    st.integers(0, 120),
)
def test_tolerance_membership_is_the_closure_inequality(entries, kind, k):
    # the membership test reads only the front pairs of each column and stops
    # each row at its first deciding residuum; it must still be
    # leq(closure(lower), upper, slack) of the plain closure, which reads no
    # front, on ties, subnormals, 0.0 and 1.0 entries and 1 x n and m x 1
    # shapes, at the distance, the floats next to it and every delta a
    # bisection probes.  It computes each solution entry on a row's first
    # read of it, so with `row=` it reduces only the columns that one row
    # reaches: each row is checked alone too, last row first, and the rows'
    # verdicts must make up the whole one
    system = FuzzySystem(*entries, kind)
    nabla = distance_report(system).nabla
    probed = []

    def predicate(delta):
        probed.append(delta)
        return tolerance_membership(system, delta, slack=MEMBERSHIP_SLACK)

    bisect_infimum(predicate)
    deltas = {
        nabla, max(nabla - 1e-12, 0.0), math.nextafter(nabla, 0), math.nextafter(nabla, 1),
        k / 120, *probed,
    }
    for delta in deltas:
        lower, upper = shifted_bounds(system.beta, delta)
        image = closure(system, lower)
        for slack in (0.0, MEMBERSHIP_SLACK):
            whole = tolerance_membership(system, delta, slack=slack)
            assert whole is leq(image, upper, slack)
            rows = []
            for j in reversed(range(system.m)):
                want = leq((image[j],), (upper[j],), slack)
                rows.append(tolerance_membership(system, delta, row=j, slack=slack))
                assert rows[-1] is want
            assert whole is all(rows)


class TestBisectInfimum:
    def test_closed_threshold_predicate(self):
        predicate = lambda d: d >= 0.3
        estimate = bisect_infimum(predicate)
        assert estimate.inf_value == pytest.approx(0.3, abs=1e-9)
        assert estimate.bracket_width <= 1e-9
        assert estimate.member_at_inf
        # the far end of the bracket is always certified
        assert predicate(estimate.inf_value + estimate.bracket_width)

    def test_degenerate_always_true(self):
        estimate = bisect_infimum(lambda d: True)
        assert estimate.inf_value == 0.0
        assert estimate.bracket_width == 0.0
        assert estimate.member_at_inf

    def test_distance_of_attained_kind(self, inconsistent_luka):
        from fuzzrel import luka_distance

        report = luka_distance(inconsistent_luka)
        estimate = bisect_infimum(
            lambda d: tolerance_membership(inconsistent_luka, d, slack=1e-9)
        )
        assert estimate.inf_value == pytest.approx(report.nabla, abs=1e-6)

    def test_open_row_boundary_not_member(self, infimum_godel):
        estimate = bisect_infimum(lambda d: exact_membership(infimum_godel, d, row=1))
        assert estimate.inf_value == pytest.approx(0.15, abs=1e-9)
        assert not estimate.member_at_inf

    def test_rejects_predicate_false_at_one(self):
        with pytest.raises(PredicateNotUpClosed):
            bisect_infimum(lambda d: False)

    def test_rejects_down_closed_predicate(self):
        with pytest.raises(PredicateNotUpClosed):
            bisect_infimum(lambda d: d <= 0.5)

    def test_rejects_non_positive_tolerance(self):
        with pytest.raises(ValueError):
            bisect_infimum(lambda d: True, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        calls = []
        with pytest.raises(ValueError, match="tol"):
            bisect_infimum(lambda d: calls.append(d) or d >= 0.3, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("tol", [True, "1e-9", None], ids=["true", "str", "none"])
    def test_rejects_bool_or_unordered_tolerance(self, tol):
        # tol=True stopped at the probe bracket [0, 0.25] and returned
        # inf_value 0.0 for a predicate that holds from 0.3 on
        calls = []
        with pytest.raises(ValueError, match=r"^tol must be a finite positive number, got "):
            bisect_infimum(lambda d: calls.append(d) or d >= 0.3, tol=tol)
        assert calls == []

    def test_stops_at_adjacent_floats(self):
        # a tol below the spacing of the floats near the threshold: the
        # bracket ends at two adjacent floats, whose midpoint is one of
        # them, after 51 splits of the 60 allowed; then one last call at
        # the estimate
        threshold = math.nextafter(1.0, 0.0)
        calls = []
        predicate = lambda d: calls.append(d) or d >= threshold
        estimate = bisect_infimum(predicate, tol=1e-300)
        assert len(calls) == 5 + 51 + 1
        assert estimate.inf_value == 0.9999999999999998
        assert estimate.bracket_width == 2.0**-53
        assert predicate(estimate.inf_value + estimate.bracket_width)
        assert not predicate(estimate.inf_value)

    def test_falls_back_to_the_midpoint(self):
        # all 60 splits are made, and the final bracket, of width 2^-62,
        # holds no decimal of 17 or fewer places: the estimate is the
        # bracket's midpoint, then one last call at it
        calls = []
        predicate = lambda d: calls.append(d) or d >= 1.00000005e-10
        estimate = bisect_infimum(predicate, tol=1e-300)
        assert len(calls) == 5 + 60 + 1
        assert estimate.inf_value == 1.0000000491301037e-10
        assert estimate.bracket_width == 2.0**-62
        assert predicate(estimate.inf_value + estimate.bracket_width)
        assert not predicate(estimate.inf_value)

    def test_member_flag_matches_verdict_off_borderline(self):
        for system in iter_random_systems(63, 150, kind=ImplicationKind.GODEL):
            report = godel_distance(system)
            estimate = bisect_infimum(lambda d: exact_membership(system, d))
            assert estimate.inf_value == pytest.approx(report.nabla, abs=1e-6)
            if not report.borderline:
                assert estimate.member_at_inf == (
                    report.verdict is Attainability.MINIMUM
                )


class TestSampling:
    def test_projection_is_fixed_for_consistent_rhs(self, consistent_godel):
        from fuzzrel import closure

        assert closure(consistent_godel, consistent_godel.beta) == consistent_godel.beta

    def test_samples_are_consistent(self):
        for system in iter_random_systems(64, 40):
            for seed in range(3):
                rhs = sample_consistent_rhs(system, seed=seed)
                projected = FuzzySystem(system.gamma, rhs, system.kind)
                assert check_consistency(projected).consistent

    def test_samples_respect_distance_lower_bound(self, infimum_godel):
        report = godel_distance(infimum_godel)
        for seed in range(1000):
            rhs = sample_consistent_rhs(infimum_godel, seed=seed)
            assert sup_distance(infimum_godel.beta, rhs) >= report.nabla - 1e-9


class TestGenerateRandomSystem:
    def test_deterministic(self):
        a = generate_random_system(2, 2, ImplicationKind.GODEL, seed=7, decimals=2)
        b = generate_random_system(2, 2, ImplicationKind.GODEL, seed=7, decimals=2)
        assert a == b

    def test_minimal_dimensions(self):
        system = generate_random_system(1, 1, ImplicationKind.LUKASIEWICZ, seed=0)
        assert (system.m, system.n) == (1, 1)

    def test_decimals_respected(self):
        system = generate_random_system(4, 4, ImplicationKind.GOGUEN, seed=42, decimals=2)
        for row in system.gamma:
            for value in row:
                assert value == round(value, 2)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            generate_random_system(0, 3, ImplicationKind.GODEL)
