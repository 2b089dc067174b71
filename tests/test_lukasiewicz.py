"""Lukasiewicz-kind distance: cell statistics, closed form, continuity."""

import pytest
from hypothesis import assume, given, strategies as st

from fuzzrel import (
    Attainability,
    FuzzySystem,
    ImplicationKind,
    KindMismatch,
    bisect_infimum,
    closure,
    luka_cell,
    luka_distance,
    luka_threshold,
    shifted_bounds,
    tolerance_membership,
)
from fuzzrel.algebra import pos
from helpers import iter_random_systems

# subnormal floats underflow products catastrophically and cannot arise
# from unit-interval data; exclude them
units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)

SLACK = 1e-9


class TestLukaThreshold:
    def test_hand_checked(self):
        assert luka_threshold(0.3, 0.4, 0.5, 0.2) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("u,v,x,y", [(0.2, 0.8, 0.3, 0.5), (0.0, 0.5, 0.5, 0.9)])
    def test_zero_when_both_parts_vanish(self, u, v, x, y):
        assert u <= y and x <= v
        assert luka_threshold(u, v, x, y) == 0.0

    def test_first_part_dominates(self):
        assert luka_threshold(0.4, 0.74, 0.4, 0.1) == pytest.approx(0.3, abs=1e-12)

    @given(units, units, units, units, units)
    def test_solves_shifted_inequality(self, u, v, x, y, delta):
        assume(delta < 1.0 - y - 1e-9)
        threshold = luka_threshold(u, v, x, y)

        def holds(d: float) -> bool:
            return pos(pos(x - d) - v) <= min(y + d, 1.0) - u

        if delta >= threshold + 1e-9:
            assert holds(delta)
        if delta <= threshold - 1e-9:
            assert not holds(delta)


class TestLukaCell:
    def test_hand_checked(self, inconsistent_luka):
        assert luka_cell(inconsistent_luka, 0, 0).zeta == pytest.approx(0.3, abs=1e-12)
        assert luka_cell(inconsistent_luka, 0, 1).zeta == pytest.approx(0.41, abs=1e-12)

    def test_degenerate_zero_system(self):
        system = FuzzySystem(((0.0,),), (0.0,), ImplicationKind.LUKASIEWICZ)
        assert luka_cell(system, 0, 0).zeta == 1.0

    def test_index_out_of_range(self, inconsistent_luka):
        with pytest.raises(IndexError):
            luka_cell(inconsistent_luka, -1, 0)

    def test_kind_checked(self, inconsistent_goguen):
        with pytest.raises(KindMismatch) as expected:
            luka_distance(inconsistent_goguen)
        with pytest.raises(KindMismatch) as raised:
            luka_cell(inconsistent_goguen, 0, 0)
        assert str(raised.value) == str(expected.value)


class TestLukaDistance:
    def test_hand_checked(self, inconsistent_luka):
        report = luka_distance(inconsistent_luka)
        row = report.rows[0]
        assert row.tau_j == pytest.approx(0.3, abs=1e-12)
        assert row.nabla_j == pytest.approx(0.3, abs=1e-12)
        assert report.verdict is Attainability.MINIMUM

    def test_full_distance_against_oracle(self, inconsistent_luka):
        report = luka_distance(inconsistent_luka)
        estimate = bisect_infimum(
            lambda d: tolerance_membership(inconsistent_luka, d, slack=SLACK)
        )
        assert report.nabla == pytest.approx(estimate.inf_value, abs=1e-6)

    def test_unit_rhs(self):
        system = FuzzySystem(((0.3, 0.9),), (1.0,), ImplicationKind.LUKASIEWICZ)
        assert luka_distance(system).nabla == 0.0

    def test_kind_checked(self, inconsistent_goguen):
        with pytest.raises(KindMismatch):
            luka_distance(inconsistent_goguen)

    def test_aggregates_over_unsupported_columns_too(self):
        # unlike the other two kinds, a zero column still contributes its
        # zeta: an all-zero matrix yields a finite tau, not the empty-set 1
        system = FuzzySystem(((0.0,),), (0.9,), ImplicationKind.LUKASIEWICZ)
        report = luka_distance(system)
        row = report.rows[0]
        assert row.tau_j == pytest.approx(0.1, abs=1e-12)
        assert row.argmin_col == 0
        assert row.nabla_j == pytest.approx(0.1, abs=1e-12)


class TestLukaInvariants:
    def test_every_row_distance_is_attained(self):
        for system in iter_random_systems(41, 300, kind=ImplicationKind.LUKASIEWICZ):
            report = luka_distance(system)
            for j, row in enumerate(report.rows):
                assert tolerance_membership(system, row.nabla_j, row=j, slack=SLACK)

    def test_distance_is_attained(self):
        for system in iter_random_systems(42, 300, kind=ImplicationKind.LUKASIEWICZ):
            report = luka_distance(system)
            assert report.verdict is Attainability.MINIMUM
            assert tolerance_membership(system, report.nabla, slack=SLACK)

    def test_shifted_rhs_varies_continuously(self):
        # the projected right-hand side is 2-Lipschitz in the tolerance
        for system in iter_random_systems(43, 20, kind=ImplicationKind.LUKASIEWICZ):
            step = 1e-3
            previous = None
            for k in range(0, 1001, 25):
                delta = k * step
                lower, _ = shifted_bounds(system.beta, delta)
                value = closure(system, lower)
                if previous is not None:
                    jump = max(abs(a - b) for a, b in zip(value, previous))
                    assert jump <= 2 * 25 * step + 1e-12
                previous = value
