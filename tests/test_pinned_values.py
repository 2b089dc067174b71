"""Bit-exact pins of the closed-form distances on fixed-seed systems.

The agreement suites compare values within 1e-12, so a change that moves a
result by one ulp, or flips which of two equal values a max keeps, passes
them.  These tests hash the exact `repr` of every value instead: the max-t
distances in float and in exact rationals, and each report's nabla, verdict,
borderline flag and every row's tau_j and argmin_col.  A new digest means
some output changed; the assertion message lists the new values.

The closure-side pins hash what the two compositions feed on the same
systems: `check_consistency`, `closure` of a fixed xi, the max-t closure of
b, the lowest approximation, the bisection oracle over
`tolerance_membership` and `exact_membership` at nabla.
"""

import hashlib
import random

import pytest

from fuzzrel import (
    DEFAULT_TOL,
    ImplicationKind,
    MaxTSystem,
    bisect_infimum,
    build_approximation,
    check_consistency,
    closure,
    distance_report,
    exact_maxt_distance,
    exact_membership,
    generate_random_system,
    maxt_closure,
    maxt_distance,
    tolerance_membership,
)
from helpers import iter_random_systems, random_unit_vector

#: Systems per case; sizes are drawn in 1..MAX_DIM.
COUNT = 30
MAX_DIM = 8

PINNED = {
    ("godel", 2): "b2ec10feeab14c0394778e4ec60c418ab417c0210f582ca57f0ed782a71898f3",
    ("godel", None): "78db0e4b530b8815c8fa4d0e526e9cd8660fd0eb5247886651bc5ff16220aa74",
    ("goguen", 2): "32c249e4d2d037c0bcd394ca2cc9ce2f90dae6ec17e18c881beb247d5878dc6f",
    ("goguen", None): "de87cb1bb72e36364e95b5d752f8703c566a77d8bef90c5f485b03d71553d240",
    ("lukasiewicz", 2): "3bcecfa7f53a1bef0bb412654d1046f77220308755218222cb67c58237590e48",
    ("lukasiewicz", None): "61dd915a06763f52a8d6266ae8acd5a28f465892a4702831ad78d3a8831c3164",
}


#: Shapes (m, n) of the large cases, the sizes of the `solve-large` bench
#: workload, where a column has enough rows for its Pareto front to drop most
#: of them.
LARGE_SHAPES = ((20, 64), (40, 40), (64, 64))

#: Pins over LARGE_SHAPES; the same values are hashed, but the max-t distance
#: in float only.
PINNED_LARGE = {
    ("godel", 2): "62b88b74889d62133013a85be31b8ed29a0c84affc50e841380f0ae911bd6438",
    ("godel", None): "9f0a3da4f146fabc64182a3a09371a3726e3d4eaeff0f75c49f86ef80e4fee74",
    ("goguen", 2): "d33d1134835003a024f7219d7e25ba8b881349fa3f8ab82cba5587271a2bbc45",
    ("goguen", None): "3b41794f17eb9d128a043d80a078935a1561d3673a2f5e86855a99bdc634d242",
    ("lukasiewicz", 2): "f9ee5198efbc029e4728b22753c63915ec0e77d1a44dcf2297f0cfbb978783e2",
    ("lukasiewicz", None): "ab5df50a65895610f04d8f6f4ee485827b185003c45596c81e89b5a9f3868a4f",
}


def _report_lines(report):
    yield f"report {report.nabla!r} {report.verdict.value} {report.borderline}"
    for row in report.rows:
        yield f"  row {row.row} {row.tau_j!r} {row.argmin_col}"


def _systems(kind: ImplicationKind, decimals):
    seed = 500 + list(ImplicationKind).index(kind) * 10 + (decimals is None)
    return iter_random_systems(seed, COUNT, kind, MAX_DIM, decimals)


def _large_systems(kind: ImplicationKind, decimals):
    seed = 700 + list(ImplicationKind).index(kind) * 10 + (decimals is None)
    for index, (m, n) in enumerate(LARGE_SHAPES):
        yield generate_random_system(m, n, kind, seed + 100 * index, decimals=decimals)


def _lines(kind: ImplicationKind, decimals):
    for system in _systems(kind, decimals):
        maxt = MaxTSystem(system.gamma, system.beta, kind)
        yield f"maxt {maxt_distance(maxt)!r} {exact_maxt_distance(maxt)!r}"
        yield from _report_lines(distance_report(system))


def _large_lines(kind: ImplicationKind, decimals):
    for system in _large_systems(kind, decimals):
        yield f"maxt {maxt_distance(MaxTSystem(system.gamma, system.beta, kind))!r}"
        yield from _report_lines(distance_report(system))


@pytest.mark.parametrize("kind, decimals", list(PINNED), ids=lambda v: str(v))
def test_distances_bit_exact(kind, decimals):
    lines = "\n".join(_lines(ImplicationKind(kind), decimals))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == PINNED[kind, decimals], lines


@pytest.mark.parametrize("kind, decimals", list(PINNED_LARGE), ids=lambda v: str(v))
def test_large_distances_bit_exact(kind, decimals):
    lines = "\n".join(_large_lines(ImplicationKind(kind), decimals))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == PINNED_LARGE[kind, decimals], lines


#: Pins of `_closure_lines` over the systems of PINNED.
PINNED_CLOSURE = {
    ("godel", 2): "23cce28b5557ff243f86412c31b9c70ab1fe948c6bb95678aab693c4560564d9",
    ("godel", None): "d7b16347d58c2be5210b439b2c1235a32fb6163296e1b25cfad459d9c5d9b066",
    ("goguen", 2): "5b712a35de98f4ab45adee8ec9980fb8e6173a33cf19a6df3358bc5c626ff572",
    ("goguen", None): "52b693e538b95e0389a335826ca1a9beebe767ab9ec045e8b2744ea9c78e4529",
    ("lukasiewicz", 2): "e1487ece1d9b8dffc44f80284e6b1b5b938d57e924c61f1868b592eaf717d469",
    ("lukasiewicz", None): "4aa864a2f3cdcaee6672ebb1b7d07f687bcd3aeb9d1edfe85ffcc1e854d35fd3",
}

#: Pins of `_closure_lines` over the systems of PINNED_LARGE, with the
#: bisection oracle.
PINNED_CLOSURE_LARGE = {
    ("godel", 2): "936c7d58bb912c1b346b98f852c343473373cb182bec4d9812ef7f9b1e09b269",
    ("godel", None): "682abc3a56a3b82a3f1aa9d1bd58787d4f42dbda2f5fc49280734ba90a52902b",
    ("goguen", 2): "204ed1df019e1f2feef078848f9f6102a6d16d0638b44383f1f6fb6e34b8f2c3",
    ("goguen", None): "a292cee62fd5b728533846ba67e5515a66642644c17b8acd12e7d284e622485a",
    ("lukasiewicz", 2): "53bb709dcb335bb9e35e8e64aead085bdcf0f66abb339a20e5ea3b89e54b74c1",
    ("lukasiewicz", None): "4301694da184e88174c928b19911714742466e7c529727d85e9c71a9481e0fd5",
}


def _closure_lines(system, seed: int, decimals):
    """The closure-side outputs of one system; xi is drawn from `seed` with
    the system's decimals.  The bisection runs on the predicate and slack
    of `fuzzrel verify`."""
    result = check_consistency(system)
    yield f"consistency {result.residual!r} {result.epsilon!r}"
    xi = random_unit_vector(random.Random(seed), system.m, decimals)
    yield f"closure {closure(system, xi)!r}"
    yield f"maxt_closure {maxt_closure(system.gamma, system.kind, system.beta)!r}"
    report = distance_report(system)
    approximation = build_approximation(system, report)
    yield (
        f"approximation {approximation.status.value} {approximation.lowest_approximation!r}"
        f" {approximation.approximate_solution!r} {approximation.achieved_distance!r}"
    )
    estimate = bisect_infimum(
        lambda delta: tolerance_membership(system, delta, slack=DEFAULT_TOL)
    )
    yield f"bisect {estimate.inf_value!r} {estimate.bracket_width!r} {estimate.member_at_inf}"
    yield f"exact_membership {exact_membership(system, report.nabla)}"


@pytest.mark.parametrize("kind, decimals", list(PINNED_CLOSURE), ids=lambda v: str(v))
def test_closure_side_bit_exact(kind, decimals):
    systems = _systems(ImplicationKind(kind), decimals)
    lines = "\n".join(
        line for index, system in enumerate(systems)
        for line in _closure_lines(system, index, decimals)
    )
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == PINNED_CLOSURE[kind, decimals], lines


@pytest.mark.parametrize("kind, decimals", list(PINNED_CLOSURE_LARGE), ids=lambda v: str(v))
def test_large_closure_side_bit_exact(kind, decimals):
    systems = _large_systems(ImplicationKind(kind), decimals)
    lines = "\n".join(
        line for index, system in enumerate(systems)
        for line in _closure_lines(system, index, decimals)
    )
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == PINNED_CLOSURE_LARGE[kind, decimals], lines
