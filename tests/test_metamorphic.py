"""Metamorphic relations of the min-implication report.

Each relation compares the report of a system with the report of a system
derived from it, so it needs no second implementation (Chen, Cheung and Yiu
1998; Segura et al., IEEE TSE 2016):

- permuting the rows permutes the report's rows;
- permuting or duplicating the columns leaves nabla and the verdict as they
  are, since a row's tau is a min over its columns;
- duplicating a row leaves nabla as it is: the copy adds equal pairs to
  every column, and its own row distance is the original's;
- `closure(beta)` is a consistent right-hand side, so taken as beta it has a
  distance of at most DEFAULT_TOL.

All three kinds run on tie-heavy non-square systems (`helpers.tied_systems`)
and on full-precision random ones.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from fuzzrel import DEFAULT_TOL, FuzzySystem, ImplicationKind, closure, distance_report
from helpers import tied_systems

kinds = st.sampled_from(list(ImplicationKind))


@st.composite
def full_precision(draw, max_dim=12):
    """(gamma, beta) of full-precision entries, dims 1..max_dim."""
    rng = draw(st.randoms(use_true_random=False))
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    gamma = tuple(tuple(rng.random() for _ in range(n)) for _ in range(m))
    return gamma, tuple(rng.random() for _ in range(m))


systems = st.builds(
    lambda entries, kind: FuzzySystem(*entries, kind),
    st.one_of(
        tied_systems(max_dim=12).filter(lambda entries: len(entries[0]) != len(entries[0][0])),
        full_precision(),
    ),
    kinds,
)


def rebuilt(system, rows, cols):
    """The system whose row k is row rows[k] of `system`, and whose column
    k is its column cols[k]."""
    gamma = tuple(tuple(system.gamma[j][i] for i in cols) for j in rows)
    return FuzzySystem(gamma, tuple(system.beta[j] for j in rows), system.kind)


@settings(max_examples=100, deadline=None)
@given(systems, st.randoms(use_true_random=False))
def test_permuting_rows_permutes_the_report_rows(system, rng):
    rows = list(range(system.m))
    rng.shuffle(rows)
    report = distance_report(system)
    permuted = distance_report(rebuilt(system, rows, range(system.n)))
    assert permuted.rows == tuple(
        dataclasses.replace(report.rows[j], row=k) for k, j in enumerate(rows)
    )
    assert (permuted.nabla, permuted.verdict) == (report.nabla, report.verdict)


@settings(max_examples=100, deadline=None)
@given(systems, st.randoms(use_true_random=False))
def test_permuting_or_duplicating_columns_keeps_nabla_and_verdict(system, rng):
    report = distance_report(system)
    cols = list(range(system.n))
    rng.shuffle(cols)
    cols += rng.choices(range(system.n), k=rng.randint(0, 3))
    changed = distance_report(rebuilt(system, range(system.m), cols))
    assert (changed.nabla, changed.verdict) == (report.nabla, report.verdict)


@settings(max_examples=100, deadline=None)
@given(systems, st.randoms(use_true_random=False))
def test_duplicating_a_row_keeps_nabla(system, rng):
    rows = list(range(system.m))
    rows.insert(rng.randint(0, system.m), rng.randrange(system.m))
    changed = distance_report(rebuilt(system, rows, range(system.n)))
    assert changed.nabla == distance_report(system).nabla


@settings(max_examples=100, deadline=None)
@given(systems)
def test_closure_of_beta_is_at_distance_zero(system):
    closed = FuzzySystem(system.gamma, closure(system, system.beta), system.kind)
    assert distance_report(closed).nabla <= DEFAULT_TOL
