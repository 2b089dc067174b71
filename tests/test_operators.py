"""Consistency decisions, the closure-map laws and the prepared systems."""

import dataclasses
import pickle
from decimal import Decimal
from fractions import Fraction
import random
import re

import pytest

from fuzzrel import (
    DimensionMismatch,
    DomainError,
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    bisect_infimum,
    build_approximation,
    check_consistency,
    closure,
    distance_report,
    exact_maxt_distance,
    exact_membership,
    godel_cell,
    goguen_cell,
    luka_cell,
    max_t_compose,
    maxt_closure,
    maxt_distance,
    potential_solution,
    sup_distance,
    tolerance_membership,
    transpose,
)
from fuzzrel.algebra import front
from helpers import BoolLike, iter_random_systems, random_unit_vector


class TestSystemValidation:
    def test_row_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            FuzzySystem(((0.1, 0.2),), (0.3, 0.4), ImplicationKind.GODEL)

    def test_kind_must_be_enum(self):
        with pytest.raises(TypeError):
            FuzzySystem(((0.1,),), (0.3,), "godel")

    def test_entries_become_tuples(self):
        system = FuzzySystem([[0.1, 0.2]], [0.3], ImplicationKind.GODEL)
        assert system.gamma == ((0.1, 0.2),)
        assert system.beta == (0.3,)
        assert (system.m, system.n) == (1, 2)


class TestPotentialSolution:
    def test_consistent_system(self, consistent_godel):
        assert potential_solution(consistent_godel) == (0.58, 0.88)

    def test_zero_rhs(self):
        system = FuzzySystem(((0.3, 0.9), (0.5, 0.2)), (0.0, 0.0), ImplicationKind.GOGUEN)
        assert potential_solution(system) == (0.0, 0.0)

    def test_hand_checked(self, infimum_godel):
        assert potential_solution(infimum_godel) == (0.41, 0.31)


class TestCheckConsistency:
    def test_consistent_with_exact_zero_residual(self, consistent_godel):
        result = check_consistency(consistent_godel)
        assert result.consistent
        assert result.residual == 0.0
        assert result.epsilon == (0.58, 0.88)

    def test_all_ones_rhs_always_consistent(self):
        rng = random.Random(7)
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            gamma = tuple(tuple(rng.random() for _ in range(n)) for _ in range(m))
            kind = rng.choice(list(ImplicationKind))
            system = FuzzySystem(gamma, (1.0,) * m, kind)
            assert check_consistency(system).consistent

    def test_inconsistent(self, inconsistent_godel):
        result = check_consistency(inconsistent_godel)
        assert not result.consistent
        assert result.residual > 0.1

    def test_negative_tolerance_rejected(self, consistent_godel):
        with pytest.raises(ValueError):
            check_consistency(consistent_godel, tol=-1.0)

    def test_nan_tolerance_rejected(self, consistent_godel):
        with pytest.raises(ValueError, match="tol"):
            check_consistency(consistent_godel, tol=float("nan"))

    def test_infinite_tolerance_rejected(self, inconsistent_godel):
        # an infinite tolerance would declare every system consistent
        with pytest.raises(ValueError, match="tol"):
            check_consistency(inconsistent_godel, tol=float("inf"))

    @pytest.mark.parametrize(
        "tol",
        [True, False, "1e-9", None, Decimal("NaN"), BoolLike(), Decimal("0.5")],
        ids=["true", "false", "str", "none", "decimal-nan", "bool-like", "decimal"],
    )
    def test_bool_or_unordered_tolerance_rejected(self, inconsistent_godel, tol):
        # True was read as 1 and declared this system, residual 0.16,
        # consistent, and so was a stand-in for numpy's bool, which is no
        # `bool`; a string or None raised the comparison's TypeError, and a
        # Decimal NaN decimal.InvalidOperation.  No Decimal is a real number
        # that float arithmetic takes, so none is a tolerance.
        with pytest.raises(ValueError, match=r"^tol must be a finite non-negative number, got "):
            check_consistency(inconsistent_godel, tol=tol)
        assert check_consistency(inconsistent_godel, tol=1).consistent
        assert check_consistency(inconsistent_godel, tol=Fraction(1, 5)).consistent
        assert not check_consistency(inconsistent_godel, tol=0).consistent


class TestClosure:
    def test_fixed_point_at_consistent_rhs(self, consistent_godel):
        assert closure(consistent_godel, consistent_godel.beta) == (0.58, 0.88)

    def test_all_ones_fixed(self, inconsistent_goguen):
        assert closure(inconsistent_goguen, (1.0, 1.0)) == (1.0, 1.0)

    def test_lower_shift_projection(self, inconsistent_godel):
        # at the attained distance the first component lands on the band edge
        image = closure(inconsistent_godel, (0.0, 0.25))
        assert image[0] == pytest.approx(0.25, abs=1e-15)

    def test_shape_mismatch(self, consistent_godel):
        with pytest.raises(DimensionMismatch):
            closure(consistent_godel, (0.5,))

    @pytest.mark.parametrize("xi, field", [
        ((2.0, 0.3), "xi[0]"),
        ((0.3, float("nan")), "xi[1]"),
        ((0.3, "0.5"), "xi[1]"),
    ], ids=["above-one", "nan", "string"])
    def test_bad_entry_named(self, consistent_godel, xi, field):
        with pytest.raises(DomainError, match=rf"^{re.escape(field)}: "):
            closure(consistent_godel, xi)


class TestMaxTClosure:
    def test_consistent_second_member_is_fixed(self):
        rng = random.Random(11)
        for kind in ImplicationKind:
            a = tuple(tuple(rng.random() for _ in range(3)) for _ in range(3))
            xi = tuple(rng.random() for _ in range(3))
            c = max_t_compose(a, kind, xi)
            assert sup_distance(maxt_closure(a, kind, c), c) <= 1e-9

    def test_all_ones_row_saturates(self):
        a = ((1.0, 1.0), (0.3, 0.2))
        out = maxt_closure(a, ImplicationKind.GODEL, (1.0, 1.0))
        assert out[0] == 1.0

    def test_candidate_solution_image(self, consistent_godel):
        a = transpose(consistent_godel.gamma)
        assert maxt_closure(a, ImplicationKind.GODEL, (0.58, 0.88)) == (0.58, 0.88)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            maxt_closure(((0.1,), (0.2,)), ImplicationKind.GODEL, (0.5,))

    @pytest.mark.parametrize("a, c, field", [
        (((0.3, 0.6), (0.2, 0.9)), (float("nan"), 2.0), "c[0]"),
        (((0.3, 0.6), (0.2, 7.0)), (0.5, 0.5), "a[1][1]"),
    ], ids=["nan-in-c", "above-one-in-a"])
    def test_bad_entry_named(self, a, c, field):
        with pytest.raises(DomainError, match=rf"^{re.escape(field)}: "):
            maxt_closure(a, ImplicationKind.GODEL, c)


class TestClosureLaws:
    """Inflation, monotonicity, idempotence and the kernel identity."""

    def test_inflationary(self):
        rng = random.Random(101)
        for system in iter_random_systems(101, 300):
            xi = random_unit_vector(rng, system.m, decimals=None)
            image = closure(system, xi)
            # 1e-12 absorbs double-rounding in the product-kind quotients
            assert all(x <= g + 1e-12 for x, g in zip(xi, image))

    def test_monotone(self):
        rng = random.Random(202)
        for system in iter_random_systems(202, 300):
            lo = random_unit_vector(rng, system.m, decimals=None)
            hi = tuple(min(1.0, x + rng.random() * (1.0 - x)) for x in lo)
            assert all(a <= b for a, b in zip(closure(system, lo), closure(system, hi)))

    def test_idempotent(self):
        rng = random.Random(303)
        for system in iter_random_systems(303, 300):
            xi = random_unit_vector(rng, system.m, decimals=None)
            once = closure(system, xi)
            assert sup_distance(closure(system, once), once) <= 1e-9

    def test_kernel_identity(self):
        rng = random.Random(404)
        for system in iter_random_systems(404, 300):
            xi = random_unit_vector(rng, system.m, decimals=None)
            gamma_t = transpose(system.gamma)
            via_closure = max_t_compose(gamma_t, system.kind, closure(system, xi))
            direct = max_t_compose(gamma_t, system.kind, xi)
            assert sup_distance(via_closure, direct) <= 1e-9

    def test_image_is_consistent_rhs(self):
        rng = random.Random(505)
        for system in iter_random_systems(505, 200):
            xi = random_unit_vector(rng, system.m, decimals=None)
            projected = FuzzySystem(system.gamma, closure(system, xi), system.kind)
            assert check_consistency(projected).consistent


#: A 2x3 matrix and a right-hand side, of either system.
PREPARED = (((0.6, 0.49, 0.3), (0.26, 0.9, 0.0)), (0.1, 0.4))
SYSTEMS = [FuzzySystem, MaxTSystem]


def matrix_of(system):
    return system.gamma if isinstance(system, FuzzySystem) else system.a


class TestPreparedSystem:
    """Both systems keep their matrix's transpose as `columns`, built once."""

    @pytest.mark.parametrize("cls", SYSTEMS, ids=lambda cls: cls.__name__)
    def test_columns_outside_init_repr_and_equality(self, cls):
        system = cls(*PREPARED, ImplicationKind.GOGUEN)
        assert system.columns == transpose(matrix_of(system))
        (columns,) = [f for f in dataclasses.fields(cls) if f.name == "columns"]
        assert (columns.init, columns.repr, columns.compare) == (False, False, False)
        assert "columns" not in repr(system)
        with pytest.raises(TypeError):
            cls(*PREPARED, ImplicationKind.GOGUEN, columns=((0.6, 0.26),))
        twin = cls(*PREPARED, ImplicationKind.GOGUEN)
        object.__setattr__(twin, "columns", ())
        assert twin == system and hash(twin) == hash(system)

    @pytest.mark.parametrize("cls", SYSTEMS, ids=lambda cls: cls.__name__)
    def test_replace_and_pickle_round_trip(self, cls):
        system = cls(*PREPARED, ImplicationKind.LUKASIEWICZ)
        if cls is MaxTSystem:
            maxt_distance(system)  # a kept scan travels with the pickle
        swapped = ((0.2, 0.7, 1.0), (0.0, 0.5, 0.5))
        changes = {"gamma": swapped} if cls is FuzzySystem else {"a": swapped}
        for copy in (dataclasses.replace(system), pickle.loads(pickle.dumps(system))):
            assert copy == system and hash(copy) == hash(system)
            assert copy.columns == transpose(matrix_of(system))
        replaced = dataclasses.replace(system, **changes)
        assert replaced.columns == transpose(swapped)

    def test_maxt_distances_share_one_scan(self, monkeypatch):
        # `maxt_distance` scans the float cells once, each column over its
        # kept pairs, and `exact_maxt_distance` reads that scan and those
        # pairs: each column is reduced once per system, and the max-min and
        # max-product cells reduce by the system's falling `fronts`.  `front`
        # and `top_pairs` are counted where `Fronts` and `MaxTSystem.kept`
        # look them up
        from fuzzrel import algebra, operators

        reduced, front, top = [], algebra.front, operators.top_pairs

        def counted(name, reduce):
            def reducer(*args):
                reduced.append(name)
                return reduce(*args)
            return reducer

        monkeypatch.setattr(algebra, "front", counted("front", front))
        monkeypatch.setattr(operators, "top_pairs", counted("top_pairs", top))
        for kind in ImplicationKind:
            system = MaxTSystem(*PREPARED, kind)
            reduced.clear()
            delta = maxt_distance(system)
            assert float(exact_maxt_distance(system)) == pytest.approx(delta, abs=1e-12)
            assert maxt_distance(system) == delta
            name = "top_pairs" if kind is ImplicationKind.LUKASIEWICZ else "front"
            assert reduced == [name] * system.m
            assert ("fronts" in vars(system)) is (name == "front")


    @pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
    def test_each_column_front_is_built_once(self, kind, monkeypatch):
        # across the report, a bisection of the float membership test, the
        # exact membership test at every row and at all rows, and the cell
        # functions, each column's front is built at most once per system;
        # the closure steps, the approximation and the Godel and Lukasiewicz
        # reports build none.  `front` is counted where `Fronts` looks it up
        from fuzzrel import algebra

        built, real = [], algebra.front

        def counted(us, *args):
            built.append(us)
            return real(us, *args)

        monkeypatch.setattr(algebra, "front", counted)
        cell = {ImplicationKind.GODEL: godel_cell, ImplicationKind.GOGUEN: goguen_cell,
                ImplicationKind.LUKASIEWICZ: luka_cell}[kind]
        for system in iter_random_systems(609, 30, kind=kind, max_dim=6):
            built.clear()
            check_consistency(system)
            closure(system, system.beta)
            potential_solution(system)
            assert built == []
            report = distance_report(system)
            build_approximation(system, report)
            assert len(built) == (system.n if kind is ImplicationKind.GOGUEN else 0)
            bisect_infimum(lambda delta: tolerance_membership(system, delta, slack=1e-12))
            exact_membership(system, report.nabla)
            for row in range(system.m):
                exact_membership(system, report.nabla, row)
                for col in range(system.n):
                    cell(system, row, col)
            indices = [
                next(i for i, column in enumerate(system.columns) if column is us) for us in built
            ]
            assert len(set(indices)) == len(indices)


class TestMaxTFronts:
    """A `MaxTSystem` keeps the falling front of each column's pairs (a[k][j],
    b[k]) as `fronts`, each built on its first read."""

    @pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
    def test_fronts_are_the_falling_column_fronts(self, kind):
        system = MaxTSystem(*TIED, kind)
        # of the pairs (0.6, 0.4) in column 0 the first is kept, and beats
        # (0.2, 0.7); (0.8, 0.4) beats both other pairs of column 1
        assert [system.fronts[j] for j in range(system.m)] == [((0.6, 0.4),), ((0.8, 0.4),)]
        for system in iter_random_systems(607, 100, kind=kind):
            system = MaxTSystem(system.gamma, system.beta, kind)
            for j, column in enumerate(system.columns):
                assert system.fronts[j] == front(column, system.b, False)

    def test_built_per_column_on_first_read(self):
        system = MaxTSystem(*TIED, ImplicationKind.LUKASIEWICZ)
        assert "fronts" not in vars(system)
        maxt_distance(system)
        exact_maxt_distance(system)
        assert "fronts" not in vars(system)
        assert dict(system.fronts) == {}
        system.fronts[1]
        assert [*system.fronts] == [1]

    @pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
    def test_kept_fronts_travel_with_pickles_and_copies(self, kind):
        system = MaxTSystem(*TIED, kind)
        system.fronts[1]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(system, protocol))
            assert copy == system and dict(copy.fronts) == dict(system.fronts)
            assert copy.fronts[0] == system.fronts[0]
        replaced = dataclasses.replace(system, b=(0.9, 0.4, 0.1))
        assert "fronts" not in vars(replaced)
        assert replaced.fronts[0] == ((0.6, 0.4), (0.2, 0.1))


#: A 3x2 system whose column 0 holds the pair (0.6, 0.4) in rows 0 and 1.
TIED = (((0.6, 0.3), (0.6, 0.8), (0.2, 0.5)), (0.4, 0.4, 0.7))


def fronts_of(system):
    """The system's `fronts`, each column's read in order."""
    return [system.fronts[i] for i in range(system.n)]


class TestFronts:
    """A `FuzzySystem` keeps its column fronts as `fronts`, the pairs
    (gamma[l][i], beta[l]) that the rising `front` keeps, each built on its
    first read (`Fronts`): by the Goguen report column, `checked_cell`, the
    membership test of the bisection oracle and `exact_membership`."""

    @pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
    def test_fronts_are_the_column_fronts_as_pairs(self, kind):
        system = FuzzySystem(*TIED, kind)
        # the pair (0.6, 0.4) that column 0 holds twice is kept once
        assert fronts_of(system) == [((0.6, 0.4), (0.2, 0.7)), ((0.8, 0.4), (0.5, 0.7))]
        for system in (system, *iter_random_systems(606, 100, kind=kind)):
            for i, column in enumerate(system.columns):
                assert system.fronts[i] == front(column, system.beta)

    def test_not_a_field_and_outside_repr_and_equality(self):
        system = FuzzySystem(*TIED, ImplicationKind.GODEL)
        assert "fronts" not in {f.name for f in dataclasses.fields(FuzzySystem)}
        system.fronts
        assert "fronts" not in repr(system)
        twin = FuzzySystem(*TIED, ImplicationKind.GODEL)
        twin.__dict__["fronts"] = ()
        assert twin == system and hash(twin) == hash(system)

    @pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
    def test_built_by_the_membership_test_only(self, kind):
        # of the steps solve-large and screen-small run, the closure steps,
        # the approximation and the Godel and Lukasiewicz reports build no
        # front; the Goguen report reads each column's, and the membership
        # test of the bisection oracle the columns its rows reach
        system = FuzzySystem(*TIED, kind)
        check_consistency(system)
        closure(system, system.beta)
        potential_solution(system)
        assert "fronts" not in vars(system)
        build_approximation(system, distance_report(system))
        goguen = kind is ImplicationKind.GOGUEN
        assert ("fronts" in vars(system)) is goguen
        assert goguen or dict(FuzzySystem(*TIED, kind).fronts) == {}
        if goguen:
            assert [*system.fronts] == [0, 1]
        tolerance_membership(system, 0.5)
        assert "fronts" in vars(system)

    @pytest.mark.parametrize("kind", list(ImplicationKind), ids=lambda kind: kind.value)
    def test_a_cell_builds_its_own_column_only(self, kind):
        # a Goguen cell reads its own column's front; the Godel and
        # Lukasiewicz cells read none
        system = FuzzySystem(*TIED, kind)
        cell = {ImplicationKind.GODEL: godel_cell, ImplicationKind.GOGUEN: goguen_cell,
                ImplicationKind.LUKASIEWICZ: luka_cell}[kind]
        cell(system, 0, 1)
        assert [*vars(system).get("fronts", ())] == ([1] if kind is ImplicationKind.GOGUEN else [])

    def test_replace_with_another_beta_gets_its_own(self):
        system = FuzzySystem(*TIED, ImplicationKind.GOGUEN)
        fronts_of(system)
        replaced = dataclasses.replace(system, beta=(0.9, 0.4, 0.1))
        assert "fronts" not in vars(replaced)
        assert fronts_of(replaced) == [((0.6, 0.9),), ((0.3, 0.9), (0.8, 0.4))]
        assert fronts_of(system) == [((0.6, 0.4), (0.2, 0.7)), ((0.8, 0.4), (0.5, 0.7))]
