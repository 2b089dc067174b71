"""Lowest Chebyshev approximations and their optimality."""

import dataclasses
import math

import pytest

from fuzzrel import (
    ApproximationStatus,
    Attainability,
    DomainError,
    FuzzySystem,
    ImplicationKind,
    ReportMismatch,
    build_approximation,
    closure,
    distance_report,
    generate_random_system,
    godel_distance,
    luka_distance,
    min_impl_compose,
    near_approximation,
    shifted_bounds,
    sup_distance,
    verify_lowest,
)
from helpers import iter_random_systems


class TestBuildApproximation:
    def test_empty_for_infimum(self, infimum_godel):
        report = godel_distance(infimum_godel)
        result = build_approximation(infimum_godel, report)
        assert result.status is ApproximationStatus.APPROXIMATION_SET_EMPTY
        assert result.lowest_approximation is None
        assert result.approximate_solution is None
        assert result.achieved_distance is None

    def test_consistent_system_reproduces_rhs(self, consistent_godel):
        report = godel_distance(consistent_godel)
        result = build_approximation(consistent_godel, report)
        assert result.status is ApproximationStatus.MINIMUM_ATTAINED
        assert result.lowest_approximation == consistent_godel.beta
        assert result.achieved_distance == 0.0

    def test_attained_distance_realised(self, inconsistent_luka):
        report = luka_distance(inconsistent_luka)
        result = build_approximation(inconsistent_luka, report)
        lower, upper = shifted_bounds(inconsistent_luka.beta, report.nabla)
        expected = closure(inconsistent_luka, lower)
        assert result.lowest_approximation == expected
        assert result.achieved_distance == pytest.approx(report.nabla, abs=1e-12)
        # the lowest approximation stays inside the band around beta
        assert all(
            lo <= v <= hi + 1e-12
            for lo, v, hi in zip(lower, result.lowest_approximation, upper)
        )

    def test_kind_mismatch_rejected(self, inconsistent_godel, inconsistent_goguen):
        report = godel_distance(inconsistent_godel)
        with pytest.raises(ReportMismatch):
            build_approximation(inconsistent_goguen, report)

    def test_report_of_another_system_rejected(self, inconsistent_godel):
        # same kind, but a 2-row report cannot describe a 3-row system
        report = godel_distance(inconsistent_godel)
        three_rows = FuzzySystem(
            ((0.6, 0.49), (0.26, 0.9), (0.3, 0.3)), (0.1, 0.4, 0.5), ImplicationKind.GODEL
        )
        with pytest.raises(ReportMismatch, match="rows"):
            build_approximation(three_rows, report)

    def test_unknown_verdict_rejected(self, inconsistent_godel):
        report = dataclasses.replace(godel_distance(inconsistent_godel), verdict="minimum")
        with pytest.raises(ReportMismatch):
            build_approximation(inconsistent_godel, report)


class TestApproximationInvariants:
    def test_lowest_is_fixed_point_and_solution_solves(self):
        for system in iter_random_systems(51, 200):
            report = distance_report(system)
            if report.verdict is not Attainability.MINIMUM:
                continue
            result = build_approximation(system, report)
            lowest = result.lowest_approximation
            # fixed point of the closure map: a consistent right-hand side
            assert sup_distance(closure(system, lowest), lowest) <= 1e-9
            # the approximate solution reproduces the lowest approximation
            recomposed = min_impl_compose(system.gamma, system.kind,
                                          result.approximate_solution)
            assert sup_distance(recomposed, lowest) <= 1e-12
            # and the distance is exactly the report's
            assert abs(result.achieved_distance - report.nabla) <= 1e-9


class TestVerifyLowest:
    def test_consistent_system(self, consistent_godel):
        result = build_approximation(consistent_godel, godel_distance(consistent_godel))
        assert verify_lowest(consistent_godel, result, trials=50, seed=1)

    def test_random_inconsistent_systems(self):
        checked = 0
        for system in iter_random_systems(52, 60, max_dim=3):
            report = distance_report(system)
            if report.verdict is not Attainability.MINIMUM:
                continue
            result = build_approximation(system, report)
            assert verify_lowest(system, result, trials=200, seed=2)
            checked += 1
        assert checked > 30

    def test_requires_attained_result(self, infimum_godel):
        result = build_approximation(infimum_godel, godel_distance(infimum_godel))
        with pytest.raises(ValueError):
            verify_lowest(infimum_godel, result)

    def test_rejects_a_vector_above_the_lowest(self):
        system = generate_random_system(3, 3, ImplicationKind.LUKASIEWICZ, 13, decimals=2)
        result = build_approximation(system, distance_report(system))
        _, upper = shifted_bounds(system.beta, result.achieved_distance)
        # The greatest consistent vector in the band is a member, not the lowest.
        highest = dataclasses.replace(result, lowest_approximation=closure(system, upper))
        assert verify_lowest(system, result, trials=200)
        assert not verify_lowest(system, highest, trials=200)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_tol_must_be_finite_non_negative(self, tol):
        # With these tols the vector above the lowest used to be certified.
        system = generate_random_system(3, 3, ImplicationKind.LUKASIEWICZ, 13, decimals=2)
        result = build_approximation(system, distance_report(system))
        _, upper = shifted_bounds(system.beta, result.achieved_distance)
        highest = dataclasses.replace(result, lowest_approximation=closure(system, upper))
        with pytest.raises(ValueError, match="tol must be a finite non-negative number"):
            verify_lowest(system, highest, trials=200, tol=tol)

    @pytest.mark.parametrize("tol", [True, "1e-9", None], ids=["true", "str", "none"])
    def test_tol_must_be_a_number_but_no_bool(self, tol):
        # True was read as 1, which certified the vector above the lowest
        system = generate_random_system(3, 3, ImplicationKind.LUKASIEWICZ, 13, decimals=2)
        result = build_approximation(system, distance_report(system))
        _, upper = shifted_bounds(system.beta, result.achieved_distance)
        highest = dataclasses.replace(result, lowest_approximation=closure(system, upper))
        with pytest.raises(ValueError, match=r"^tol must be a finite non-negative number, got "):
            verify_lowest(system, highest, trials=200, tol=tol)

    @pytest.mark.parametrize("trials", [-3, 0, 2.0, True, "5"])
    def test_trials_must_be_a_positive_int(self, consistent_godel, trials):
        result = build_approximation(consistent_godel, godel_distance(consistent_godel))
        with pytest.raises(ValueError, match="trials must be a positive int"):
            verify_lowest(consistent_godel, result, trials=trials)

    def test_result_of_another_system(self):
        gamma, beta = ((0.6, 0.49), (0.26, 0.9), (0.3, 0.3)), (0.1, 0.4, 0.2)
        taller = FuzzySystem(gamma, beta, ImplicationKind.GODEL)
        result = build_approximation(taller, distance_report(taller))
        shorter = FuzzySystem(gamma[:2], beta[:2], ImplicationKind.GODEL)
        with pytest.raises(ReportMismatch, match="3 entries, system has 2"):
            verify_lowest(shorter, result)


class TestNearApproximation:
    def test_supplies_vector_when_set_is_empty(self, infimum_godel):
        report = godel_distance(infimum_godel)
        near = near_approximation(infimum_godel, 0.2)
        assert near.delta > report.nabla
        assert not near.optimal
        assert near.vector == (1.0, 0.26)
        assert near.achieved_distance == pytest.approx(0.2, abs=1e-12)
        # it really is a consistent right-hand side
        assert sup_distance(closure(infimum_godel, near.vector), near.vector) <= 1e-12

    def test_delta_validated(self, infimum_godel):
        with pytest.raises(Exception):
            near_approximation(infimum_godel, 1.5)

    @pytest.mark.parametrize("system, delta", [
        ("inconsistent_godel", 0.05),
        ("infimum_godel", None),
    ], ids=["below-attained-distance", "at-infimum"])
    def test_delta_not_above_distance_rejected(self, request, system, delta):
        # the vectors found here lie 0.16 and 0.54 from beta, farther than delta
        system = request.getfixturevalue(system)
        if delta is None:
            delta = godel_distance(system).nabla
        with pytest.raises(DomainError, match="^delta: "):
            near_approximation(system, delta)

    def test_delta_just_above_infimum(self, infimum_godel):
        near = near_approximation(infimum_godel, godel_distance(infimum_godel).nabla + 1e-6)
        assert near.achieved_distance == pytest.approx(0.150001, abs=1e-12)
