"""The benchmark's workloads: their inputs, one op each, and its output check.

Every workload builds a fixed pool of inputs from the seed and runs its op on
the pool in order, pass after pass.  The seed draws the entries and the
order of the pool; the sizes, kinds and precisions of the pool are a fixed
schedule, so that two seeds give different values but the same amount of
work.

An op calls fuzzrel's public functions through `tracer.call`, which records
a span per call in the traced run and calls straight through otherwise.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from fuzzrel import (
    DEFAULT_TOL,
    ApproximationResult,
    ApproximationStatus,
    Attainability,
    ChebyshevReport,
    ConsistencyResult,
    FuzzySystem,
    ImplicationKind,
    MaxTSystem,
    OracleEstimate,
    bisect_infimum,
    build_approximation,
    check_consistency,
    closure,
    distance_report,
    exact_maxt_distance,
    exact_maxt_membership,
    exact_membership,
    maxt_distance,
    tolerance_membership,
)
from fuzzrel import cli

from spans import NoTrace
from speed import loop_speed, process_speed

KINDS = tuple(ImplicationKind)
#: Span of distance_report, named after the solver module for the kind.
SOLVER_SPAN = {kind: f"{kind.value}.distance" for kind in KINDS}

#: Agreement bound of `fuzzrel verify` at its default --oracle-tol 1e-9: the
#: bisection bracket plus the membership slack (see cli._cmd_verify).
ORACLE_THRESHOLD = 1e-9 + cli.MEMBERSHIP_SLACK + 1e-12
#: Bound on |maxt_distance - float(exact_maxt_distance)|.
MAXT_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    """One generated system, as raw tuples; ops build the fuzzrel objects."""

    gamma: tuple
    beta: tuple
    kind: ImplicationKind

    @property
    def m(self) -> int:
        return len(self.gamma)

    @property
    def n(self) -> int:
        return len(self.gamma[0])


@dataclass(frozen=True)
class Outcome:
    """What one library op returned; fields of steps the op skipped are None."""

    consistency: ConsistencyResult | None = None
    report: ChebyshevReport | None = None
    approx: ApproximationResult | None = None
    estimate: OracleEstimate | None = None
    exact: bool | None = None
    maxt: float | None = None
    exact_maxt: Fraction | None = None
    attained: bool | None = None


def _draw(rng: random.Random, decimals: int | None) -> float:
    x = rng.random()
    return round(x, decimals) if decimals is not None else x


def random_item(rng, m, n, kind, decimals) -> Item:
    gamma = tuple(tuple(_draw(rng, decimals) for _ in range(n)) for _ in range(m))
    beta = tuple(_draw(rng, decimals) for _ in range(m))
    return Item(gamma, beta, kind)


def membership_predicate(tracer, system):
    """The predicate handed to bisect_infimum; each call is one span."""
    return lambda delta: tracer.call(
        "oracle.membership", tolerance_membership, system, delta, slack=cli.MEMBERSHIP_SLACK
    )


def oracle_estimate(system) -> OracleEstimate:
    return bisect_infimum(membership_predicate(NoTrace(), system))


# --- ops -------------------------------------------------------------------


def solve_op(tracer, item: Item) -> Outcome:
    """FuzzySystem -> check_consistency -> distance_report -> build_approximation."""
    system = tracer.call("operators.FuzzySystem", FuzzySystem, item.gamma, item.beta, item.kind)
    consistency = tracer.call("operators.check_consistency", check_consistency, system)
    report = tracer.call(SOLVER_SPAN[item.kind], distance_report, system)
    approx = tracer.call("approximation.build", build_approximation, system, report)
    return Outcome(consistency, report, approx)


def screen_op(tracer, item: Item) -> Outcome:
    """Check first; diagnose only an inconsistent system."""
    system = tracer.call("operators.FuzzySystem", FuzzySystem, item.gamma, item.beta, item.kind)
    consistency = tracer.call("operators.check_consistency", check_consistency, system)
    if consistency.consistent:
        return Outcome(consistency)
    report = tracer.call(SOLVER_SPAN[item.kind], distance_report, system)
    approx = tracer.call("approximation.build", build_approximation, system, report)
    return Outcome(consistency, report, approx)


def verify_op(tracer, item: Item) -> Outcome:
    """The `fuzzrel verify` loop in-process, plus the max-t cross-check."""
    system = tracer.call("operators.FuzzySystem", FuzzySystem, item.gamma, item.beta, item.kind)
    report = tracer.call(SOLVER_SPAN[item.kind], distance_report, system)
    estimate = tracer.call(
        "oracle.bisect", bisect_infimum, membership_predicate(tracer, system)
    )
    exact = tracer.call("oracle.exact_membership", exact_membership, system, report.nabla)
    maxt_system = tracer.call("maxt.MaxTSystem", MaxTSystem, item.gamma, item.beta, item.kind)
    maxt = tracer.call("maxt.distance", maxt_distance, maxt_system)
    exact_maxt = tracer.call("oracle.exact_maxt", exact_maxt_distance, maxt_system)
    attained = tracer.call("oracle.exact_maxt", exact_maxt_membership, maxt_system, exact_maxt)
    return Outcome(None, report, None, estimate, exact, maxt, exact_maxt, attained)


# --- output checks -----------------------------------------------------------


def check_outcome(item: Item, out: Outcome) -> bool:
    """True when every result the op produced passes its independent check.

    - a report's nabla agrees with the bisection oracle (the op's own
      estimate when it ran one) within ORACLE_THRESHOLD;
    - a system found consistent has oracle distance 0 within that bound;
    - a `minimum` verdict comes with a lowest approximation whose achieved
      distance equals nabla within DEFAULT_TOL, an `infimum` verdict with an
      empty approximation set.  A `borderline` report flags its verdict as
      numerically fragile, so there the approximation, a consistent
      right-hand side, need only be no nearer than nabla (see
      `borderline_miss`);
    - maxt_distance equals float(exact_maxt_distance) within MAXT_TOL.
    """
    system = FuzzySystem(item.gamma, item.beta, item.kind)
    if out.report is not None:
        estimate = out.estimate or oracle_estimate(system)
        if not abs(out.report.nabla - estimate.inf_value) <= ORACLE_THRESHOLD:
            return False
    elif out.consistency is not None:
        if not (out.consistency.consistent and oracle_estimate(system).inf_value <= ORACLE_THRESHOLD):
            return False
    if out.approx is not None:
        if out.report.verdict is Attainability.MINIMUM:
            if out.approx.status is not ApproximationStatus.MINIMUM_ATTAINED:
                return False
            if out.approx.achieved_distance < out.report.nabla - DEFAULT_TOL:
                return False
            if not out.report.borderline and borderline_miss(out):
                return False
        elif out.approx.status is not ApproximationStatus.APPROXIMATION_SET_EMPTY:
            return False
    if out.maxt is not None and not abs(out.maxt - float(out.exact_maxt)) <= MAXT_TOL:
        return False
    return True


def borderline_miss(out: Outcome) -> bool:
    """True when a `minimum` verdict's lowest approximation does not achieve
    nabla within DEFAULT_TOL.

    fuzzrel guarantees the verdict only off the `borderline` flag: a row tied
    with nabla in exact arithmetic but split off by float rounding can turn
    an infimum into a reported minimum.  Such misses on borderline reports
    are counted (`approximation.borderline_misses`), not failed.
    """
    return (
        out.approx is not None
        and out.report.verdict is Attainability.MINIMUM
        and not abs(out.approx.achieved_distance - out.report.nabla) <= DEFAULT_TOL
    )


def digest_outcome(out: Outcome) -> str:
    """Every output value that must stay bit-identical, as one line."""
    parts = []
    if out.consistency is not None:
        parts.append(f"consistent={out.consistency.consistent} residual={out.consistency.residual!r}")
    if out.report is not None:
        r = out.report
        parts.append(f"nabla={r.nabla!r} verdict={r.verdict.value} borderline={r.borderline}")
    if out.approx is not None:
        parts.append(f"lowest={out.approx.lowest_approximation!r}")
    if out.estimate is not None:
        parts.append(f"oracle={out.estimate.inf_value!r}")
    if out.exact is not None:
        parts.append(f"exact={out.exact}")
    if out.maxt is not None:
        parts.append(f"maxt={out.maxt!r} exact_maxt={out.exact_maxt} attained={out.attained}")
    return " ".join(parts)


# --- workloads ---------------------------------------------------------------


class LibraryWorkload:
    """A pool of systems run through one op in the benchmark's own process."""

    in_process = True
    speed = staticmethod(loop_speed)

    def __init__(self, seed: int, small: bool):
        rng = random.Random(seed)
        self.pool = self.make_pool(rng, small)

    def make_pool(self, rng, small):
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the op once on the smallest item of each kind."""
        for kind in KINDS:
            items = [item for item in self.pool if item.kind is kind]
            if items:
                self.op(NoTrace(), min(items, key=lambda it: it.m * it.n))

    def check(self, item, out) -> bool:
        return check_outcome(item, out)

    def digest(self, out) -> str:
        return digest_outcome(out)

    def work(self, item, out) -> dict:
        """Counts computed from the input sizes of one op."""
        counts = {"operators.FuzzySystem.entries": item.m * item.n + item.m}
        if out.report is not None:
            counts[SOLVER_SPAN[item.kind] + ".threshold_evals"] = item.m * item.m * item.n
        return counts

    def close(self) -> None:
        pass


class SolveLarge(LibraryWorkload):
    """Full pipeline on 20..64-sized systems, where the O(m^2 n) scans dominate."""

    op = staticmethod(solve_op)

    def make_pool(self, rng, small):
        # 15 slots: p50 and p90 then fall mid-way between neighbouring slots.
        sizes = (3, 4, 5, 6, 7) if small else tuple(20 + round(k * 44 / 14) for k in range(15))
        slots = []
        for k, m in enumerate(sizes):
            n = sizes[(k + len(sizes) // 2) % len(sizes)]
            slots.append((m, n, KINDS[k % 3], 2 if k % 2 == 0 else None))
        rng.shuffle(slots)
        return [random_item(rng, m, n, kind, decimals) for m, n, kind, decimals in slots]


class ScreenSmall(LibraryWorkload):
    """Check many 2..8-sized systems; diagnose only the inconsistent ones."""

    op = staticmethod(screen_op)

    def make_pool(self, rng, small):
        pairs = list(itertools.product(range(2, 9), repeat=2))
        count = 15 if small else 15 * len(pairs)
        slots = [(*pairs[k % len(pairs)], KINDS[k % 3], k % 2 == 0) for k in range(count)]
        rng.shuffle(slots)
        pool = []
        for m, n, kind, project in slots:
            item = random_item(rng, m, n, kind, 2)
            if project:
                xi = tuple(_draw(rng, 2) for _ in range(m))
                beta = closure(FuzzySystem(item.gamma, item.beta, kind), xi)
                item = Item(item.gamma, beta, kind)
            pool.append(item)
        return pool


class VerifySmall(LibraryWorkload):
    """Closed forms against the bisection oracle and exact rationals, 3..8-sized."""

    op = staticmethod(verify_op)

    def make_pool(self, rng, small):
        pairs = list(itertools.product(range(3, 9), repeat=2))
        slots = list(itertools.product(pairs[:2] if small else pairs, KINDS, (2, None)))
        rng.shuffle(slots)
        return [random_item(rng, m, n, kind, decimals) for (m, n), kind, decimals in slots]


@dataclass(frozen=True)
class CliItem:
    argv: tuple
    big: bool


class CliDocs:
    """One `fuzzrel` process per op, on JSON documents written at set-up."""

    in_process = False
    speed = staticmethod(process_speed)
    SUBCOMMANDS = ("check", "distance", "approx", "verify", "maxt-distance")

    def __init__(self, seed: int, small: bool, workdir: str, src: str):
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.main_busy = 0.0
        self.main_calls = 0
        self.exit_nonzero = 0
        self._references: dict = {}
        big_size = 20 if small else 200
        # A cycle of 25 processes: every fifth checks a big document, the
        # others rotate over the five subcommands on documents up to 8x8.
        self.pool = []
        for pos in range(10 if small else 25):
            path = os.path.join(workdir, f"doc{pos}.json")
            if pos % 5 == 4:
                item = random_item(rng, big_size, big_size, KINDS[pos % 3], 2)
                command = "check"
            else:
                slot = pos - pos // 5
                m, n = 2 + (3 * slot) % 7, 2 + (5 * slot + 1) % 7
                item = random_item(rng, m, n, KINDS[slot % 3], 2)
                command = self.SUBCOMMANDS[slot % 5]
            doc = {"implication": item.kind.value}
            if command == "maxt-distance":
                doc.update(a=item.gamma, b=item.beta)
            else:
                doc.update(gamma=item.gamma, beta=item.beta)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc, separators=(",", ":")))
            self.pool.append(CliItem((command, "--input", path), pos % 5 == 4))

    def op(self, tracer, item: CliItem):
        proc = tracer.call(
            "cli.process",
            subprocess.run,
            [sys.executable, "-m", "fuzzrel.cli", *item.argv],
            env=self.env,
            capture_output=True,
            text=True,
        )
        if proc.returncode:
            self.exit_nonzero += 1
        return proc.returncode, proc.stdout

    def warm_up(self) -> None:
        self.op(NoTrace(), self.pool[0])

    def reference(self, argv) -> tuple[int, str]:
        """Exit code and stdout of in-process `fuzzrel.cli.main(argv)`,
        computed once per document."""
        if argv not in self._references:
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
            self.main_busy += time.perf_counter() - start
            self.main_calls += 1
            self._references[argv] = (code, buffer.getvalue())
        return self._references[argv]

    def check(self, item: CliItem, out) -> bool:
        returncode, stdout = out
        return returncode == 0 and (returncode, stdout) == self.reference(item.argv)

    def digest(self, out) -> str:
        return f"exit={out[0]} stdout={out[1]!r}"

    def work(self, item, out) -> dict:
        return {}

    def process_seconds(self, args, repeats: int) -> float:
        """Median wall time of `repeats` runs of the interpreter with `args`."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=self.env, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


CLASSES = {
    "solve-large": SolveLarge,
    "screen-small": ScreenSmall,
    "verify-small": VerifySmall,
    "cli-docs": CliDocs,
}
