"""The report skeleton on `EXACT`: whole min-implication reports in Fractions.

`report._report` aggregates the rows that the row rules of an `Arithmetic`
build from its cells, and runs on `FLOAT` and `EXACT` alike.  On the
decimal readings of a system's entries the exact report must hold only
Fractions, lie within NABLA_ETA of the float report of the same system,
and give its verdict wherever the float report is not `borderline`; on
systems of dims up to 4 it must equal a brute-force evaluation of the
formulas stated in `fuzzrel.report`'s docstring.  The systems are those of
`test_exact_cells.py`: tie-heavy ones and full-precision ones with edge
entries (0, subnormals, 2^-53, 1 - 2^-53 and 1), at dims up to 30.

The float `borderline` flag does not cover every near-tie.  Three gaps are
known, all in Godel reports, and a strict xfail on `UNFLAGGED` pins them:

- a row counted attained because its float tau equals its 1 - beta,
  though its exact tau lies just below (`FuzzySystem(((1e-17,),), (0.5,),
  GODEL)`: theta 0.5 - 1e-17 rounds to 0.5; MINIMUM in floats, INFIMUM
  exactly);
- a row counted attained by a robust witness whose value ties, by
  rounding alone, that of a cell that is no witness, which the exact row
  takes as its tau (`FuzzySystem(((1e-17, 0.5, 0.2), (0.0, 0.4, 0.3)),
  (0.1, 0.3), GODEL)`: MINIMUM in floats, INFIMUM exactly);
- a row at nabla that is not attained, with an attained row below it by
  less than BORDERLINE_EPS that is the exact max (`FuzzySystem(((1e-17,),
  (0.0,)), (0.1, 0.9), GODEL)`: INFIMUM in floats, MINIMUM exactly).

`near_a_tie` recognises all three from the float report alone, and the
verdict check skips the reports it marks until the flag covers them.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fuzzrel import Attainability, FuzzySystem, ImplicationKind, distance_report
from fuzzrel.oracle import EXACT, _exact_matrix, _exact_vector
from fuzzrel.report import BORDERLINE_EPS, _report
from helpers import tied_systems
from test_exact_cells import NO_SHRINK, edge_systems, without_subnormals
from test_kernels import cell_references

GODEL, GOGUEN, LUKA = ImplicationKind

#: A bound on |float nabla - exact nabla|: nabla is a max of row minima of
#: cells and of 1 - beta[j], so it errs by no more than a cell, and the
#: cells keep within a few eps = 2^-53 on these entries.
NABLA_ETA = 2.0 ** -50

kinds = st.sampled_from(list(ImplicationKind))


def exact_report(system: FuzzySystem):
    """The skeleton on `EXACT` over the decimal readings of `system`, from
    its `readings`: of its columns, of its right-hand side and of its float
    `fronts`, which the Goguen entry reads from a stand-in for the system.
    Reading a float as its shortest decimal is strictly increasing, so the
    readings of a float front are the front of the read column
    (`test_front.py` checks it), and the exact report sorts no Fraction."""
    read = system.readings.__getitem__
    columns = tuple(tuple(map(read, column)) for column in system.columns)
    fronts = [tuple((read(g), read(b)) for g, b in system.fronts[i]) for i in range(system.n)]
    prepared = SimpleNamespace(fronts=fronts)
    return _report(EXACT, system.kind, columns, tuple(map(read, system.beta)), prepared)


def numbers(report) -> list:
    """Every number of `report`: nabla, the numeric fields of each row and
    the theta and zeta of each cell."""
    found = [report.nabla]
    for row in report.rows:
        found += [row.nabla_j, row.tau_j, row.one_minus_beta]
        if row.nabla_tilde_j is not None:
            found.append(row.nabla_tilde_j)
        for cell in row.cells:
            found += [getattr(cell, name) for name in ("theta", "zeta") if name in cell._fields]
    return found


def near_a_tie(report) -> bool:
    """Whether the verdict of a Godel report hinges on a comparison within
    BORDERLINE_EPS that its `borderline` flag may miss (module docstring):
    rows within BORDERLINE_EPS of nabla that differ in attainment, or such
    a row counted attained while its tau lies within BORDERLINE_EPS of its
    1 - beta or, below it, of the value of a supporting cell that is no
    robust witness (theta > zeta - BORDERLINE_EPS).  The other kinds attain
    every row, in floats and exactly."""
    if report.kind is not GODEL:
        return False
    near = [r for r in report.rows if abs(r.nabla_j - report.nabla) <= BORDERLINE_EPS]
    if len({r.attainable for r in near}) > 1:
        return True
    return any(
        abs(r.tau_j - r.one_minus_beta) <= BORDERLINE_EPS
        or r.tau_j < r.one_minus_beta and any(
            support and theta > zeta - BORDERLINE_EPS
            and abs(max(theta, zeta) - r.tau_j) <= BORDERLINE_EPS
            for theta, zeta, support, _ in r.cells
        )
        for r in near if r.attainable
    )


#: Godel systems whose float verdict differs from the exact one with no
#: `borderline` flag, one per gap of the module docstring.
UNFLAGGED = (
    FuzzySystem(((1e-17,),), (0.5,), GODEL),
    FuzzySystem(((1e-17, 0.5, 0.2), (0.0, 0.4, 0.3)), (0.1, 0.3), GODEL),
    FuzzySystem(((1e-17,), (0.0,)), (0.1, 0.9), GODEL),
)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(st.one_of(tied_systems(max_dim=30), edge_systems()), kinds)
def test_exact_report_is_near_the_float_report(entries, kind):
    gamma, beta = entries
    if kind is GOGUEN:
        # the theta quotient of two different subnormals reads up to a
        # percent off its decimals (see `test_exact_cells.without_subnormals`)
        gamma = without_subnormals(gamma)
    system = FuzzySystem(gamma, beta, kind)
    report, exact = distance_report(system), exact_report(system)
    assert {type(value) for value in numbers(exact)} == {Fraction}
    assert exact.kind is kind and len(exact.rows) == system.m
    assert abs(Fraction(report.nabla) - exact.nabla) <= NABLA_ETA
    if not (report.borderline or near_a_tie(report)):
        assert exact.verdict is report.verdict


def test_near_a_tie_marks_the_unflagged_reports():
    assert all(near_a_tie(distance_report(system)) for system in UNFLAGGED)


@pytest.mark.xfail(strict=True, reason="the float borderline flag misses three kinds of near-tie")
def test_float_verdict_is_exact_or_borderline():
    reports = [distance_report(system) for system in UNFLAGGED]
    exact = [exact_report(system).verdict for system in UNFLAGGED]
    assert [r.borderline or r.verdict is verdict for r, verdict in zip(reports, exact)] == [
        True
    ] * len(UNFLAGGED)


def brute_force(gamma, beta, kind):
    """(nabla, verdict, rows) of the report's docstring formulas, in
    Fractions, with every cell a max over its whole column; each row is
    (nabla_j, tau_j, one_minus_beta, attainable, argmin_col, nabla_tilde_j),
    nabla_tilde_j None but for Godel."""
    one = Fraction(1)
    cell = cell_references(EXACT)[kind]
    columns = list(zip(*gamma))
    rows = []
    for j, (entries, b) in enumerate(zip(gamma, beta)):
        cells = [cell(g, b, tuple(zip(column, beta))) for g, column in zip(entries, columns)]
        if kind is LUKA:
            values = {i: c.zeta for i, c in enumerate(cells)}
        else:
            values = {i: max(c.theta, c.zeta) for i, c in enumerate(cells) if entries[i] > 0}
        tau = min(values.values(), default=one)
        argmin = min(values, key=lambda i: (values[i], i), default=None)
        nabla_j = min(one - b, tau)
        nabla_tilde = None
        if kind is GODEL:
            nabla_tilde = min(
                (c.zeta for i, c in enumerate(cells) if entries[i] > 0 and c.theta < c.zeta),
                default=one,
            )
        attainable = kind is not GODEL or nabla_j in (one - b, nabla_tilde)
        rows.append((nabla_j, tau, one - b, attainable, argmin, nabla_tilde))
    nabla = max(row[0] for row in rows)
    minimum = all(row[3] for row in rows if row[0] == nabla)
    return nabla, Attainability.MINIMUM if minimum else Attainability.INFIMUM, rows


@settings(max_examples=150, deadline=None)
@given(st.one_of(tied_systems(max_dim=4), edge_systems(max_dim=4)), kinds)
def test_exact_report_is_the_row_formulas(entries, kind):
    system = FuzzySystem(*entries, kind)
    exact = exact_report(system)
    gamma, beta = _exact_matrix(system.gamma), _exact_vector(system.beta)
    nabla, verdict, rows = brute_force(gamma, beta, kind)
    assert (exact.nabla, exact.verdict) == (nabla, verdict)
    assert [
        (r.nabla_j, r.tau_j, r.one_minus_beta, r.attainable, r.argmin_col, r.nabla_tilde_j)
        for r in exact.rows
    ] == rows
