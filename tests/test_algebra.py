"""Scalar algebra and composition tests, including the adjunction laws."""

import math

import pytest
from hypothesis import given, strategies as st

from fuzzrel import (
    DimensionMismatch,
    DomainError,
    ImplicationKind,
    max_t_compose,
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
from fuzzrel.algebra import pos

KINDS = list(ImplicationKind)

# subnormal floats underflow products catastrophically and cannot arise
# from unit-interval data; exclude them
units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
kinds = st.sampled_from(KINDS)

# Slack for comparisons whose two sides are equal in exact arithmetic but
# reach the comparison through different float paths (quotients, sums).
FLOAT_GUARD = 1e-12


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

    def test_vector_needs_entries(self):
        with pytest.raises(DomainError):
            unit_vector([])

    def test_matrix_must_be_rectangular(self):
        with pytest.raises(DimensionMismatch):
            unit_matrix([[0.1, 0.2], [0.3]])

    def test_error_names_offending_entry(self):
        with pytest.raises(DomainError, match=r"gamma\[1\]\[0\]"):
            unit_matrix([[0.1], [1.5]], "gamma")


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
