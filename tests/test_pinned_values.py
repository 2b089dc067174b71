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


def _lines(kind: ImplicationKind, decimals):
    seed = 500 + list(ImplicationKind).index(kind) * 10 + (decimals is None)
    for system in iter_random_systems(seed, COUNT, kind, MAX_DIM, decimals):
        maxt = MaxTSystem(system.gamma, system.beta, kind)
        yield f"maxt {maxt_distance(maxt)!r} {exact_maxt_distance(maxt)!r}"
        report = distance_report(system)
        yield f"report {report.nabla!r} {report.verdict.value} {report.borderline}"
        for row in report.rows:
            yield f"  row {row.row} {row.tau_j!r} {row.argmin_col}"


@pytest.mark.parametrize("kind, decimals", list(PINNED), ids=lambda v: str(v))
def test_distances_bit_exact(kind, decimals):
    lines = "\n".join(_lines(ImplicationKind(kind), decimals))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == PINNED[kind, decimals], lines
