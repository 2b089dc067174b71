"""Min-implication reports on adversarial systems, against the oracles.

Every other random stream of the reports draws dims 1..5 with 2-decimal
entries.  These systems have dims up to 12, 2-decimal or full-precision
entries and, on purpose, the structure the row rules treat apart: all-zero
columns (the tau_j = 1 convention), beta entries exactly 0.0 and 1.0,
shapes 1 x n and m x 1, and entries within CLAMP_EPS of the ends of
[0, 1], outside them (which `FuzzySystem` clamps) and inside.  There are
no subnormals: on subnormal Goguen entries the float bisection oracle
itself errs by up to 2e-5, more than the bound below.

For each system:

- `exact_membership` holds at nabla + 1e-11, and fails at nabla - 1e-6
  when nabla >= 1e-6;
- nabla lies within 1e-9 + DEFAULT_TOL + 1e-12 of the bisection oracle,
  the bound of `fuzzrel verify`: the bracket width plus the membership
  slack plus rounding;
- a `minimum` report that is not borderline has a lowest approximation
  that achieves nabla within DEFAULT_TOL.  This fails on Goguen systems
  with an entry far below the others, such as FAR_LOWEST, so that test is
  a strict xfail, run on FAR_LOWEST first so that it fails on every run.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzrel import (
    DEFAULT_TOL,
    ApproximationStatus,
    Attainability,
    FuzzySystem,
    ImplicationKind,
    bisect_infimum,
    build_approximation,
    distance_report,
    exact_membership,
    tolerance_membership,
)
from fuzzrel.algebra import CLAMP_EPS
from fuzzrel.cli import MEMBERSHIP_SLACK
from test_front import NO_SHRINK

#: Entries within CLAMP_EPS of 0 and of 1: outside [0, 1], where a system
#: clamps them onto its ends, and inside.
NEAR_ENDS = (
    -CLAMP_EPS, -CLAMP_EPS / 3, CLAMP_EPS / 10,
    1 - CLAMP_EPS / 10, 1 + CLAMP_EPS / 3, 1 + CLAMP_EPS,
)

ORACLE_TOL = 1e-9


@st.composite
def adversarial_systems(draw, max_dim=12):
    """A FuzzySystem of any kind, shape 1 x n, m x 1 or m x n with dims
    1..max_dim, 2-decimal or full-precision entries, some columns all
    zero, some beta entries exactly 0.0 or 1.0 and some entries within
    CLAMP_EPS of the ends of [0, 1]."""
    # a seeded random.Random draws no subnormal and no other special float
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.sampled_from([2, None]))
    shape = draw(st.sampled_from(["1 x n", "m x 1", "m x n"]))
    m = 1 if shape == "1 x n" else draw(st.integers(1, max_dim))
    n = 1 if shape == "m x 1" else draw(st.integers(1, max_dim))

    def entry():
        x = rng.random()
        return round(x, 2) if decimals == 2 else x

    gamma = [[entry() for _ in range(n)] for _ in range(m)]
    beta = [entry() for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in gamma:
            row[j] = 0.0
    for i in draw(st.sets(st.integers(0, m - 1), max_size=3)):
        beta[i] = rng.choice((0.0, 1.0))
    for _ in range(draw(st.integers(0, 3))):
        if rng.random() < 0.5:
            beta[rng.randrange(m)] = rng.choice(NEAR_ENDS)
        else:
            gamma[rng.randrange(m)][rng.randrange(n)] = rng.choice(NEAR_ENDS)
    kind = draw(st.sampled_from(list(ImplicationKind)))
    return FuzzySystem(tuple(map(tuple, gamma)), tuple(beta), kind)


#: A 3 x 1 Goguen system whose row 1 reads its residuum through the entry
#: 1e-13: `build_approximation`'s lowest approximation lies 1.1e-4 farther
#: from beta than nabla.  The float shift 0.94 - nabla keeps a relative error
#: of about 1e-4, and the quotient by 1e-13 carries it to the result.
FAR_LOWEST = FuzzySystem(
    ((0.11,), (1e-13,), (0.65,)), (0.94, 1e-13, 0.26), ImplicationKind.GOGUEN
)

systems = adversarial_systems()
adversarial = settings(max_examples=200, deadline=None, phases=NO_SHRINK)


@adversarial
@given(systems)
def test_exact_membership_brackets_nabla(system):
    nabla = distance_report(system).nabla
    assert exact_membership(system, min(nabla + 1e-11, 1.0))
    if nabla >= 1e-6:
        assert not exact_membership(system, nabla - 1e-6)


@adversarial
@given(systems)
def test_nabla_agrees_with_the_bisection_oracle(system):
    nabla = distance_report(system).nabla
    oracle = bisect_infimum(
        lambda d: tolerance_membership(system, d, slack=MEMBERSHIP_SLACK), tol=ORACLE_TOL
    )
    assert abs(nabla - oracle.inf_value) <= ORACLE_TOL + DEFAULT_TOL + 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="FOUND: build_approximation's lowest approximation of a Goguen system with a"
    " 1e-13 entry lies up to 3e-4 farther from beta than nabla (FAR_LOWEST)",
)
@adversarial
@example(FAR_LOWEST)
@given(systems)
def test_lowest_approximation_achieves_nabla(system):
    report = distance_report(system)
    if report.verdict is Attainability.MINIMUM and not report.borderline:
        result = build_approximation(system, report)
        assert result.status is ApproximationStatus.MINIMUM_ATTAINED
        assert abs(result.achieved_distance - report.nabla) <= DEFAULT_TOL
