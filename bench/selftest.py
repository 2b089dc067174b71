"""Quick test of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

Runs every workload at a tiny size on two seeds, traced and untraced, and
checks that each metric BENCHMARK.json names is emitted with its unit, and
that the output checks count a wrong nabla as a failed op.
"""

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_fuzzrel()

import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def tiny(name, seed=1, trace=False):
    return run.measure(name, seed, 0.01, trace, small=True, min_ops=1)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, seed, trace, section):
    result, _ = tiny(name, seed, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.CLASSES)


def test_digest_repeats_for_a_seed_and_differs_between_seeds():
    _, first = tiny("screen-small", seed=3)
    _, again = tiny("screen-small", seed=3)
    _, other = tiny("screen-small", seed=4)
    assert first == again != other


def _wrong_nabla(out):
    nabla = out.report.nabla
    report = dataclasses.replace(out.report, nabla=nabla + 0.25 if nabla < 0.5 else nabla - 0.25)
    return dataclasses.replace(out, report=report)


def test_checker_rejects_a_wrong_nabla():
    workload = workloads.VerifySmall(1, small=True)
    for item in workload.pool:
        out = workload.op(run.NoTrace(), item)
        assert workload.check(item, out)
        assert not workload.check(item, _wrong_nabla(out))


def test_wrong_nabla_counts_every_op_as_failed(monkeypatch):
    op = workloads.SolveLarge.op

    def wrong_op(tracer, item):
        return _wrong_nabla(op(tracer, item))

    monkeypatch.setattr(workloads.SolveLarge, "op", staticmethod(wrong_op))
    result, _ = tiny("solve-large")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ops_ok_ratio"]["value"] == 0.0


def test_output_changing_between_passes_counts_as_failed():
    ledger = run.Ledger(1)
    for output in ("a", "a", "b"):
        ledger.record(0, output, None)
    assert (ledger.ran, ledger.bad) == ([3], [1])


#: A Godel system whose rows 1 and 2 tie at nabla = 0.1 in exact arithmetic;
#: float rounding puts row 2, which does not attain it, just below, so the
#: report reads `minimum` and flags itself borderline.
SPLIT_TIE = workloads.Item(
    ((0.64, 0.37, 0.73, 0.04, 0.82, 0.95), (0.39, 0.71, 0.34, 0.73, 0.08, 0.13),
     (0.51, 0.42, 0.21, 0.37, 0.18, 0.35), (0.27, 0.94, 0.33, 0.56, 0.81, 0.39)),
    (0.41, 0.23, 0.61, 0.91),
    workloads.ImplicationKind.GODEL,
)


def test_approximation_check_is_lenient_only_on_a_borderline_report():
    out = workloads.solve_op(run.NoTrace(), SPLIT_TIE)
    assert out.report.borderline and workloads.borderline_miss(out)
    assert workloads.check_outcome(SPLIT_TIE, out)
    unflagged = dataclasses.replace(out, report=dataclasses.replace(out.report, borderline=False))
    assert not workloads.check_outcome(SPLIT_TIE, unflagged)
