"""Command-line front end.

Subcommands operate on JSON documents:

    min-implication systems   {"implication": "godel" | "goguen" | "lukasiewicz",
                               "gamma": [[...], ...],   # m rows of n columns
                               "beta": [...],           # m numbers
                               "name": "optional label"}

    max-t-norm systems        {"implication": ..., "a": [[...], ...], "b": [...]}

The two families deliberately use distinct field names (gamma/beta vs a/b)
so a document can never be fed to the wrong solver by accident.  Output is
single-line JSON by default (--pretty renders a human table); row and column
indices in output are 1-based to match hand-worked presentations.

Exit status: 0 success, 1 validation error (malformed document or flags,
including argparse usage errors), 2 internal invariant violation (including
a formula/oracle disagreement found by `verify`).  A reader that closes
stdout early, as `fuzzrel ... | head -1` may, gives exit status 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# The layers every subcommand runs.  Each handler imports the others it
# runs, `report`, `approximation` and `oracle`, so a process compiles only
# the layers of its subcommand.
from .algebra import ImplicationKind, unit
from .errors import FuzzrelError, InvariantViolation
from .operators import DEFAULT_TOL, ConsistencyResult, FuzzySystem, MaxTSystem, check_consistency

#: Slack used when the oracle re-tests membership exactly at a computed
#: distance, where the two sides of the comparison are equal in exact
#: arithmetic and differ only by float drift.
MEMBERSHIP_SLACK = DEFAULT_TOL

#: Trials of `verify --random M N` when neither TRIALS nor --trials is given.
DEFAULT_TRIALS = 1000


class CliError(Exception):
    """User-facing validation error; rendered as `error: ...`, exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error; 2 is reserved for invariant
    # violations, so usage errors become validation errors instead.
    def error(self, message):
        raise CliError(message)


def _real(requirement: str, holds):
    """argparse type for a finite number that `holds` accepts; NaN and the
    infinities always fail."""

    def real(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and holds(value)):
            raise argparse.ArgumentTypeError(f"must be a finite {requirement} number, got {text!r}")
        return value

    return real


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc
    # ValueError: a JSONDecodeError or an integer over the digit limit;
    # RecursionError: nesting too deep for the parser
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path!r}: top-level value must be a JSON object")
    return doc


def _parse_kind(doc: dict) -> ImplicationKind:
    tag = doc.get("implication")
    choices = ", ".join(k.value for k in ImplicationKind)
    if not isinstance(tag, str):
        raise CliError(f"implication: required string field, one of {choices}")
    try:
        return ImplicationKind(tag)
    except ValueError:
        raise CliError(f"implication: {tag!r} is not one of {choices}") from None


def _read_system(path: str, system_type, matrix: str, vector: str) -> tuple:
    """(system, payload): the `system_type` built from the fields `matrix`
    and `vector` of the document at `path`, and the payload head every
    subcommand starts from, its name and implication."""
    doc = _load_document(path)
    kind = _parse_kind(doc)
    for field, shape in ((matrix, "2-D"), (vector, "1-D")):
        if field not in doc:
            raise CliError(f"{field}: required field ({shape} array of numbers)")
    try:
        system = system_type(doc[matrix], doc[vector], kind)
    except (FuzzrelError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    return system, {"name": doc.get("name"), "implication": kind.value}


def _consistency_payload(result: ConsistencyResult) -> dict:
    return {"consistent": result.consistent, "residual": result.residual}


def _distance(args) -> tuple:
    """The system of --input, its distance report and the `distance` payload."""
    from .report import distance_report

    system, payload = _read_system(args.input, FuzzySystem, "gamma", "beta")
    report = distance_report(system)
    per_row = []
    for row in report.rows:
        entry = {
            "j": row.row + 1,
            "nabla_j": row.nabla_j,
            "tau_j": row.tau_j,
            "one_minus_beta": row.one_minus_beta,
            "attainable": row.attainable,
            "argmin_i": None if row.argmin_col is None else row.argmin_col + 1,
            "borderline": row.borderline,
        }
        if row.nabla_tilde_j is not None:
            entry["nabla_tilde_j"] = row.nabla_tilde_j
        per_row.append(entry)
    payload.update(
        nabla=report.nabla,
        verdict=report.verdict.value,
        borderline=report.borderline,
        per_row=per_row,
        consistency=_consistency_payload(check_consistency(system, args.tolerance)),
    )
    return system, report, payload


def _cmd_check(args) -> tuple[int, dict]:
    system, payload = _read_system(args.input, FuzzySystem, "gamma", "beta")
    result = check_consistency(system, args.tolerance)
    payload.update(consistency=_consistency_payload(result), epsilon=list(result.epsilon))
    return 0, payload


def _cmd_distance(args) -> tuple[int, dict]:
    return 0, _distance(args)[2]


def _cmd_approx(args) -> tuple[int, dict]:
    from .approximation import ApproximationStatus, build_approximation, near_approximation

    system, report, payload = _distance(args)
    if args.delta is not None:
        if args.delta <= report.nabla:
            raise CliError(
                f"delta: must exceed the distance {report.nabla!r} "
                f"to yield a near approximation, got {args.delta!r}"
            )
        unit(args.delta, "delta")
    result = build_approximation(system, report)
    if result.status is ApproximationStatus.MINIMUM_ATTAINED:
        payload["approximation"] = {
            "vector": list(result.lowest_approximation),
            "solution": list(result.approximate_solution),
            "distance": result.achieved_distance,
        }
    else:
        payload["approximation"] = {"empty": True}
        if args.delta is not None:
            near = near_approximation(system, args.delta)
            payload["near"] = {
                "delta": near.delta,
                "vector": list(near.vector),
                "solution": list(near.solution),
                "distance": near.achieved_distance,
                "optimal": near.optimal,
            }
    return 0, payload


def _cmd_maxt_distance(args) -> tuple[int, dict]:
    from .oracle import exact_maxt_distance, exact_maxt_membership
    from .report import maxt_distance

    system, payload = _read_system(args.input, MaxTSystem, "a", "b")
    payload.update(
        delta=maxt_distance(system),
        attained=exact_maxt_membership(system, exact_maxt_distance(system)),
    )
    return 0, payload


def _oracle_nabla(system: FuzzySystem, oracle_tol: float):
    from .oracle import bisect_infimum, tolerance_membership

    return bisect_infimum(
        lambda d: tolerance_membership(system, d, slack=MEMBERSHIP_SLACK),
        tol=oracle_tol,
    )


def _comparison(system: FuzzySystem, oracle_tol: float) -> dict:
    """The closed-form nabla of `system` against the oracle's estimate."""
    from .report import distance_report

    formula = distance_report(system).nabla
    oracle = _oracle_nabla(system, oracle_tol).inf_value
    return {"nabla_formula": formula, "nabla_oracle": oracle, "difference": abs(formula - oracle)}


def _cmd_verify(args) -> tuple[int, dict]:
    # The oracle can sit below the closed form by up to the membership
    # slack (the relaxed inequality flips slightly early) plus the bracket
    # width; disagreement beyond that means a genuine defect.
    threshold = max(args.oracle_tol, 1e-9) + MEMBERSHIP_SLACK + 1e-12

    if (args.input is None) == (args.random is None):
        raise CliError("verify: provide exactly one of --input or --random")

    if args.input is not None:
        system, head = _read_system(args.input, FuzzySystem, "gamma", "beta")
        comparison = _comparison(system, args.oracle_tol)
        agree = comparison["difference"] <= threshold
        payload = {"mode": "file", **head, **comparison, "threshold": threshold, "agree": agree}
        return (0 if agree else 2), payload

    values = args.random
    if len(values) == 2:
        m, n = values
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
    elif len(values) == 3:
        if args.trials is not None:
            raise CliError("--random M N TRIALS and --trials both set the trial count; give one")
        m, n, trials = values
    else:
        raise CliError("--random: expected M N [TRIALS]")
    if m < 1 or n < 1 or trials < 1:
        raise CliError("--random: M, N and TRIALS must be positive")

    import random

    from .oracle import generate_random_system

    master = random.Random(args.seed)
    disagreements = 0
    max_difference = 0.0
    worst = None
    for _ in range(trials):
        for kind in ImplicationKind:
            instance_seed = master.randrange(2**32)
            system = generate_random_system(m, n, kind, instance_seed, decimals=2)
            comparison = _comparison(system, args.oracle_tol)
            difference = comparison["difference"]
            if difference > max_difference:
                max_difference = difference
                worst = {"implication": kind.value, "seed": instance_seed, **comparison}
            if difference > threshold:
                disagreements += 1
    payload = {
        "mode": "random",
        "m": m,
        "n": n,
        "trials": trials,
        "seed": args.seed,
        "systems_checked": trials * len(ImplicationKind),
        "threshold": threshold,
        "max_difference": max_difference,
        "disagreements": disagreements,
        "worst": worst,
    }
    return (0 if disagreements == 0 else 2), payload


def _render_pretty(payload: dict) -> str:
    lines = []
    name = payload.get("name")
    if name:
        lines.append(f"system: {name}")
    if "implication" in payload:
        lines.append(f"implication: {payload['implication']}")
    if "consistency" in payload:
        cons = payload["consistency"]
        state = "consistent" if cons["consistent"] else "inconsistent"
        lines.append(f"consistency: {state} (residual {cons['residual']:.12g})")
    if "epsilon" in payload:
        lines.append("epsilon: " + _fmt_vector(payload["epsilon"]))
    if "nabla" in payload:
        lines.append(
            f"nabla: {payload['nabla']:.12g}  verdict: {payload['verdict']}"
            + ("  [borderline]" if payload.get("borderline") else "")
        )
    if "per_row" in payload:
        header = f"{'j':>3} {'nabla_j':>12} {'tau_j':>12} {'1-beta_j':>12} {'attainable':>10} {'argmin_i':>8}"
        lines.append(header)
        for row in payload["per_row"]:
            argmin = "-" if row["argmin_i"] is None else str(row["argmin_i"])
            lines.append(
                f"{row['j']:>3} {row['nabla_j']:>12.6g} {row['tau_j']:>12.6g} "
                f"{row['one_minus_beta']:>12.6g} {str(row['attainable']).lower():>10} {argmin:>8}"
                + ("  [borderline]" if row["borderline"] else "")
            )
    if "approximation" in payload:
        approx = payload["approximation"]
        if approx.get("empty"):
            lines.append("approximation: set is empty (distance is an infimum)")
        else:
            lines.append("lowest approximation: " + _fmt_vector(approx["vector"]))
            lines.append("approximate solution: " + _fmt_vector(approx["solution"]))
            lines.append(f"achieved distance: {approx['distance']:.12g}")
    if "near" in payload:
        near = payload["near"]
        lines.append(
            f"near approximation at delta {near['delta']:.12g} "
            f"(non-optimal): {_fmt_vector(near['vector'])}"
        )
        lines.append(f"near achieved distance: {near['distance']:.12g}")
    if "delta" in payload and "per_row" not in payload:
        lines.append(
            f"delta: {payload['delta']:.12g}"
            + ("  (attained)" if payload.get("attained") else "")
        )
    if payload.get("mode") == "file":
        lines.append(
            f"formula {payload['nabla_formula']:.12g} vs oracle "
            f"{payload['nabla_oracle']:.12g}: "
            + ("agree" if payload["agree"] else "DISAGREE")
            + f" (difference {payload['difference']:.3g})"
        )
    if payload.get("mode") == "random":
        lines.append(
            f"checked {payload['systems_checked']} systems "
            f"({payload['trials']} trials x 3 kinds, {payload['m']}x{payload['n']}): "
            f"max difference {payload['max_difference']:.3g}, "
            f"{payload['disagreements']} disagreement(s)"
        )
    return "\n".join(lines)


def _fmt_vector(values) -> str:
    return "[" + ", ".join(f"{v:.12g}" for v in values) + "]"


def _add_common_flags(sub, *, tolerance=True):
    sub.add_argument(
        "--input",
        required=True,
        metavar="PATH",
        help="JSON document to read, or - for standard input",
    )
    if tolerance:
        sub.add_argument(
            "--tolerance",
            type=_real("non-negative", lambda value: value >= 0.0),
            default=DEFAULT_TOL,
            metavar="REAL",
            help="residual tolerance for consistency decisions (default 1e-9)",
        )
    sub.add_argument(
        "--pretty",
        action="store_true",
        help="human-readable table instead of single-line JSON",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuzzrel",
        description=(
            "Consistency and Chebyshev-approximation diagnostics for "
            "min-implication fuzzy relational equation systems."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="decide consistency of a system")
    _add_common_flags(check)
    check.set_defaults(handler=_cmd_check)

    distance = subparsers.add_parser(
        "distance", help="Chebyshev distance report for a system"
    )
    _add_common_flags(distance)
    distance.set_defaults(handler=_cmd_distance)

    approx = subparsers.add_parser(
        "approx", help="distance report plus lowest Chebyshev approximation"
    )
    _add_common_flags(approx)
    approx.add_argument(
        "--delta",
        type=float,
        default=None,
        metavar="REAL",
        help=(
            "when the distance is an infimum, also emit the non-optimal "
            "near approximation at this tolerance (must be at most 1 and "
            "exceed the distance, whatever the verdict)"
        ),
    )
    approx.set_defaults(handler=_cmd_approx)

    verify = subparsers.add_parser(
        "verify", help="cross-check the closed forms against the bisection oracle"
    )
    verify.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="JSON document to verify, or - for standard input",
    )
    verify.add_argument(
        "--random",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="verify random M N [TRIALS] systems of all three kinds instead of a file",
    )
    verify.add_argument(
        "--oracle-tol",
        type=_real("positive", lambda value: value > 0.0),
        default=1e-9,
        metavar="REAL",
        help="bisection bracket width (default 1e-9)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, metavar="INT", help="random seed (default 0)"
    )
    verify.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="INT",
        help=f"trial count when --random omits it (default {DEFAULT_TRIALS})",
    )
    verify.add_argument("--pretty", action="store_true", help="human-readable output")
    verify.set_defaults(handler=_cmd_verify)

    maxt = subparsers.add_parser(
        "maxt-distance", help="Chebyshev distance for a max-t-norm system (fields a, b)"
    )
    _add_common_flags(maxt, tolerance=False)
    maxt.set_defaults(handler=_cmd_maxt_distance)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, payload = args.handler(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (CliError, FuzzrelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render_pretty(payload) if args.pretty else json.dumps(payload, separators=(",", ":"))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`fuzzrel ... | head -1`).  Python flushes
        # stdout again at exit, so point it at devnull to keep that silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
