"""The eight frozen result classes and the `__init__` of `_dict_init`.

`RowDiagnostics`, `FuzzySystem`, `MaxTSystem`, `ConsistencyResult`,
`ChebyshevReport`, `ApproximationResult`, `NearApproximation` and
`OracleEstimate` are frozen dataclasses declared with `init=False`, whose
`__init__` (`algebra._dict_init`) stores each field straight into the
instance's `__dict__`.  Each is held here to a twin: a subclass that keeps
the `__init__` `dataclass` generates, one `object.__setattr__` per field.
Both take the same arguments and give the same signature, field values and
their order, eq, hash and repr, the same `dataclasses.replace` (under which
a system validates again and recomputes `columns`), pickle, copy and
deepcopy round trips and `FrozenInstanceError`, and the lazy
`RowDiagnostics.cells` reads, unread, read and replaced with records, alike.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from conftest import SHARED_MATRIX
from fuzzrel import (
    ApproximationResult,
    ChebyshevReport,
    ConsistencyResult,
    DomainError,
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    NearApproximation,
    OracleEstimate,
    RowDiagnostics,
    bisect_infimum,
    build_approximation,
    check_consistency,
    distance_report,
    near_approximation,
    transpose,
)

GODEL = ImplicationKind.GODEL


def twin_of(cls):
    """A subclass of `cls` with the `__init__` that `dataclass` generates,
    kept in this module's globals under its own name, so that it pickles."""
    twin = dataclasses.dataclass(frozen=True)(type(f"{cls.__name__}Twin", (cls,), {}))
    globals()[twin.__name__] = twin
    return twin


def samples():
    """Per class, the field values of one instance computed by the library
    and a change of one field for `dataclasses.replace` and inequality."""
    system = FuzzySystem(SHARED_MATRIX, (0.1, 0.4), GODEL)
    report = distance_report(system)
    infimum = FuzzySystem(((0.41, 0.07), (0.29, 0.31)), (0.88, 0.46), GODEL)
    near = near_approximation(infimum, distance_report(infimum).nabla + 0.05)
    swapped = ((0.2, 0.7), (0.0, 0.5))
    instances = {
        RowDiagnostics: (report.rows[0], {"nabla_j": 0.5}),
        FuzzySystem: (system, {"gamma": swapped}),
        MaxTSystem: (MaxTSystem(SHARED_MATRIX, (0.1, 0.4), GODEL), {"a": swapped}),
        ConsistencyResult: (check_consistency(system), {"residual": 0.25}),
        ChebyshevReport: (report, {"borderline": True}),
        ApproximationResult: (build_approximation(system, report), {"achieved_distance": 0.5}),
        NearApproximation: (near, {"optimal": True}),
        OracleEstimate: (bisect_infimum(lambda delta: delta >= 0.3), {"member_at_inf": False}),
    }
    return {
        cls: ({f.name: getattr(made, f.name) for f in dataclasses.fields(cls) if f.init}, change)
        for cls, (made, change) in instances.items()
    }


SAMPLES = samples()
CLASSES = list(SAMPLES)
TWINS = {cls: twin_of(cls) for cls in CLASSES}

per_class = pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)


def both(cls, change=None):
    """The instance of `cls` and that of its twin, from the sample values
    with `change` applied."""
    values, _ = SAMPLES[cls]
    values = {**values, **(change or {})}
    return cls(**values), TWINS[cls](**values)


def state(made):
    """The instance's class name, read without the twin's suffix, and its
    fields, read as its `__dict__` holds them, in their order."""
    return type(made).__name__.removesuffix("Twin"), list(vars(made).items())


def same_repr(made, twin):
    return repr(twin) == repr(made).replace(type(made).__name__, type(twin).__name__, 1)


@per_class
def test_one_constructor_of_the_same_signature(cls):
    assert not cls.__dataclass_params__.init
    assert cls.__init__ is not TWINS[cls].__init__
    assert inspect.signature(cls) == inspect.signature(TWINS[cls])
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@per_class
def test_fields_are_stored_as_by_the_generated_init(cls):
    made, twin = both(cls)
    assert state(made) == state(twin)
    # positional and keyword arguments bind alike
    values = SAMPLES[cls][0]
    positional = cls(*values.values())
    assert state(positional) == state(made) and positional == made


@per_class
def test_eq_hash_and_repr(cls):
    made, twin = both(cls)
    again, twin_again = both(cls)
    changed, twin_changed = both(cls, SAMPLES[cls][1])
    assert made == again and twin == twin_again
    assert (made == changed) is (twin == twin_changed) is False
    assert made != twin
    assert hash(made) == hash(twin) == hash(again)
    assert hash(changed) == hash(twin_changed)
    assert same_repr(made, twin) and same_repr(changed, twin_changed)


@per_class
def test_replace(cls):
    made, twin = both(cls)
    change = SAMPLES[cls][1]
    for changes in ({}, change):
        replaced, twin_replaced = (dataclasses.replace(x, **changes) for x in (made, twin))
        assert type(replaced) is cls and type(twin_replaced) is TWINS[cls]
        assert state(replaced) == state(twin_replaced)
    with pytest.raises(TypeError) as made_error:
        dataclasses.replace(made, no_such_field=1)
    with pytest.raises(TypeError) as twin_error:
        dataclasses.replace(twin, no_such_field=1)
    assert str(made_error.value).replace(cls.__name__, "") == str(twin_error.value).replace(
        TWINS[cls].__name__, ""
    )


@pytest.mark.parametrize("cls", [FuzzySystem, MaxTSystem], ids=lambda cls: cls.__name__)
def test_replace_validates_a_system_again(cls):
    made, twin = both(cls)
    matrix = "gamma" if cls is FuzzySystem else "a"
    vector = "beta" if cls is FuzzySystem else "b"
    given = [[0.2, 0.7], [0.0, -0.0]]
    for system in (made, twin):
        replaced = dataclasses.replace(system, **{matrix: given})
        assert getattr(replaced, matrix) == ((0.2, 0.7), (0.0, 0.0))
        assert repr(getattr(replaced, matrix)[1][1]) == "0.0"
        assert replaced.columns == transpose(getattr(replaced, matrix))
        with pytest.raises(DomainError, match=rf"^{vector}\[0\]: 2.0 is outside"):
            dataclasses.replace(system, **{vector: (2.0, 0.1)})


@per_class
def test_pickle_copy_and_deepcopy_round_trips(cls):
    made, twin = both(cls)
    copies = [
        (pickle.loads(pickle.dumps(made, protocol)), pickle.loads(pickle.dumps(twin, protocol)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    copies += [(copy.copy(made), copy.copy(twin)), (copy.deepcopy(made), copy.deepcopy(twin))]
    for made_copy, twin_copy in copies:
        assert type(made_copy) is cls and type(twin_copy) is TWINS[cls]
        assert made_copy == made and twin_copy == twin
        assert state(made_copy) == state(twin_copy)
        assert hash(made_copy) == hash(made)


@per_class
def test_frozen(cls):
    for made in both(cls):
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(made, f.name)


def test_row_cells_unread_read_and_replaced():
    # a report row holds its cells as field tuples until the first read
    values = dict(vars(distance_report(FuzzySystem(SHARED_MATRIX, (0.1, 0.4), GODEL)).rows[1]))
    made, twin = RowDiagnostics(**values), TWINS[RowDiagnostics](**values)
    assert type(vars(made)["cells"]) is type(vars(twin)["cells"]) is not tuple
    assert state(made) == state(twin)
    # eq, hash and repr read the cells, which builds their records once
    assert made == RowDiagnostics(**values) and hash(made) == hash(twin)
    assert same_repr(made, twin)
    assert type(vars(made)["cells"]) is type(vars(twin)["cells"]) is tuple
    assert made.cells is made.cells and made.cells == twin.cells
    assert state(made) == state(twin)
    records = tuple(made.cells)
    for row in (made, twin):
        replaced = dataclasses.replace(row, cells=records)
        assert replaced.cells is records and replaced == row
