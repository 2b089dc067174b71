"""Godel-kind distance: cell statistics, closed form, attainability."""

import pytest

from fuzzrel import (
    Attainability,
    FuzzySystem,
    ImplicationKind,
    KindMismatch,
    build_approximation,
    godel_cell,
    godel_distance,
    godel_threshold,
)
from fuzzrel.oracle import exact_membership
from helpers import iter_random_systems


class TestGodelThreshold:
    def test_hand_checked(self):
        assert godel_threshold(0.6, 0.4, 0.2) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("x,z", [(0.2, 0.3), (0.5, 0.5), (0.0, 0.9)])
    def test_zero_when_first_below_third(self, x, z):
        assert godel_threshold(x, 0.8, z) == 0.0

    def test_half_gap_branch(self):
        assert godel_threshold(0.4, 0.26, 0.1) == pytest.approx(0.15, abs=1e-12)


class TestGodelCell:
    def test_cells_of_attained_system(self, inconsistent_godel):
        cell = godel_cell(inconsistent_godel, 0, 0)
        assert cell.theta == pytest.approx(-0.5, abs=1e-12)
        assert cell.zeta == pytest.approx(0.15, abs=1e-12)
        assert cell.support

        cell = godel_cell(inconsistent_godel, 0, 1)
        assert cell.theta == pytest.approx(-0.09, abs=1e-12)
        assert cell.zeta == pytest.approx(0.15, abs=1e-12)

    def test_cells_of_infimum_system(self, infimum_godel):
        cell = godel_cell(infimum_godel, 1, 1)
        assert cell.theta == pytest.approx(0.15, abs=1e-12)
        assert cell.zeta == 0.0

    def test_index_out_of_range(self, inconsistent_godel):
        with pytest.raises(IndexError):
            godel_cell(inconsistent_godel, 2, 0)
        with pytest.raises(IndexError):
            godel_cell(inconsistent_godel, 0, -1)

    @pytest.mark.parametrize(
        "row, col, name",
        [(True, 0, "row"), (0, False, "col"), (0.5, 0, "row"), (0, 1.0, "col"), ("0", 0, "row")],
    )
    def test_index_must_be_an_integer(self, inconsistent_godel, row, col, name):
        # a bool used to pick row or column 1 and a float to fail unnamed
        with pytest.raises(TypeError, match=f"^{name}: expected an integer index"):
            godel_cell(inconsistent_godel, row, col)

    def test_index_accepts_integer_types(self, inconsistent_godel):
        class Index:
            def __index__(self):
                return 1

        assert godel_cell(inconsistent_godel, Index(), Index()) == godel_cell(
            inconsistent_godel, 1, 1
        )

    def test_kind_checked(self, inconsistent_goguen):
        with pytest.raises(KindMismatch) as expected:
            godel_distance(inconsistent_goguen)
        with pytest.raises(KindMismatch) as raised:
            godel_cell(inconsistent_goguen, 0, 0)
        assert str(raised.value) == str(expected.value)


class TestGodelDistance:
    def test_attained_system(self, inconsistent_godel):
        report = godel_distance(inconsistent_godel)
        row = report.rows[0]
        assert row.tau_j == pytest.approx(0.15, abs=1e-12)
        assert row.one_minus_beta == pytest.approx(0.9, abs=1e-12)
        assert row.nabla_j == pytest.approx(0.15, abs=1e-12)
        assert report.nabla == pytest.approx(0.15, abs=1e-12)
        assert report.verdict is Attainability.MINIMUM

    def test_infimum_system(self, infimum_godel):
        report = godel_distance(infimum_godel)
        assert report.rows[0].nabla_j == pytest.approx(0.12, abs=1e-12)
        assert report.rows[1].nabla_j == pytest.approx(0.15, abs=1e-12)
        assert report.nabla == pytest.approx(0.15, abs=1e-12)
        assert report.verdict is Attainability.INFIMUM
        assert report.rows[0].attainable  # nabla_1 hits 1 - beta_1
        assert not report.rows[1].attainable

    def test_consistent_system_has_zero_distance(self, consistent_godel):
        report = godel_distance(consistent_godel)
        assert report.nabla == 0.0
        assert report.verdict is Attainability.MINIMUM

    def test_kind_checked(self, inconsistent_goguen):
        with pytest.raises(KindMismatch):
            godel_distance(inconsistent_goguen)

    def test_unit_rhs_forces_zero_row_distance(self):
        system = FuzzySystem(((0.2, 0.0), (0.7, 0.1)), (1.0, 0.3), ImplicationKind.GODEL)
        report = godel_distance(system)
        assert report.rows[0].nabla_j == 0.0

    def test_unsupported_row_falls_back_to_one_minus_beta(self):
        system = FuzzySystem(((0.0, 0.0), (0.7, 0.1)), (0.3, 0.2), ImplicationKind.GODEL)
        report = godel_distance(system)
        row = report.rows[0]
        assert row.tau_j == 1.0
        assert row.argmin_col is None
        assert row.nabla_j == pytest.approx(0.7, abs=1e-12)
        assert row.attainable


class TestRowInvariants:
    def test_row_distance_below_one_minus_beta(self):
        for system in iter_random_systems(17, 200, kind=ImplicationKind.GODEL):
            report = godel_distance(system)
            for row in report.rows:
                assert row.nabla_j <= row.one_minus_beta + 1e-15

    def test_one_minus_beta_always_workable(self):
        for system in iter_random_systems(18, 100, kind=ImplicationKind.GODEL):
            report = godel_distance(system)
            for j, row in enumerate(report.rows):
                assert exact_membership(system, row.one_minus_beta, row=j)

    def test_zeta_bounded_on_supported_cells(self):
        for system in iter_random_systems(19, 150, kind=ImplicationKind.GODEL):
            report = godel_distance(system)
            for row in report.rows:
                if row.one_minus_beta == 0.0:
                    continue
                for cell in row.cells:
                    if cell.support:
                        assert cell.zeta <= row.one_minus_beta / 2 + 1e-12

    def test_nabla_tilde_dominates_row_distance(self):
        for system in iter_random_systems(20, 200, kind=ImplicationKind.GODEL):
            report = godel_distance(system)
            for row in report.rows:
                if row.nabla_j < row.one_minus_beta:
                    assert row.nabla_j <= row.nabla_tilde_j + 1e-15


class TestAttainabilityClassification:
    def test_verdict_matches_exact_membership(self):
        flagged = 0
        for system in iter_random_systems(21, 500, kind=ImplicationKind.GODEL):
            report = godel_distance(system)
            member = exact_membership(system, report.nabla)
            if report.borderline:
                flagged += 1
                continue
            assert member == (report.verdict is Attainability.MINIMUM)
        assert flagged < 500 * 0.02

    def test_membership_above_but_not_at_infimum(self, infimum_godel):
        report = godel_distance(infimum_godel)
        assert not exact_membership(infimum_godel, report.nabla)
        for exponent in range(1, 10):
            assert exact_membership(infimum_godel, report.nabla + 10.0**-exponent)

    def test_attained_distance_is_achieved(self, inconsistent_godel):
        report = godel_distance(inconsistent_godel)
        result = build_approximation(inconsistent_godel, report)
        assert result.achieved_distance == pytest.approx(report.nabla, abs=1e-12)

    def test_tied_cell_flags_borderline(self, tied_godel):
        # theta and zeta coincide at the deciding cell, so the float
        # classifier's verdict is a coin toss; the report must say so
        report = godel_distance(tied_godel)
        cell = report.rows[0].cells[0]
        assert abs(cell.theta - cell.zeta) <= 1e-9
        assert report.rows[0].borderline
        assert report.borderline
        # exact arithmetic settles it: the distance is not attained
        assert not exact_membership(tied_godel, report.nabla)
