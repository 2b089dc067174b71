"""Bit-exact pins of the closed-form distances on fixed-seed systems.

The agreement suites compare values within 1e-12, so a change that moves a
result by one ulp, or flips which of two equal values a max keeps, passes
them.  These tests hash the exact `repr` of every value instead: the max-t
distances in float and in exact rationals, and each report's nabla, verdict,
borderline flag and every row's tau_j and argmin_col.  A new digest means
some output changed; the assertion message lists the new values.
"""

import hashlib

import pytest

from fuzzrel import (
    ImplicationKind,
    MaxTSystem,
    distance_report,
    exact_maxt_distance,
    generate_random_system,
    maxt_distance,
)
from helpers import iter_random_systems

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


def _lines(kind: ImplicationKind, decimals):
    seed = 500 + list(ImplicationKind).index(kind) * 10 + (decimals is None)
    for system in iter_random_systems(seed, COUNT, kind, MAX_DIM, decimals):
        maxt = MaxTSystem(system.gamma, system.beta, kind)
        yield f"maxt {maxt_distance(maxt)!r} {exact_maxt_distance(maxt)!r}"
        yield from _report_lines(distance_report(system))


def _large_lines(kind: ImplicationKind, decimals):
    seed = 700 + list(ImplicationKind).index(kind) * 10 + (decimals is None)
    for index, (m, n) in enumerate(LARGE_SHAPES):
        system = generate_random_system(m, n, kind, seed + 100 * index, decimals=decimals)
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
