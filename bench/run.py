"""Benchmark of fuzzrel: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports fuzzrel from the checkout's
`src` directory.  With --trace 0 the last line of stdout holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, and the
spans are written as JSON lines to .bench_out/.  The line before it is a
digest of the outputs.  bench/README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import speed
from spans import ROOT_SPAN, NoTrace, SpanSummary, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("solve-large", "screen-small", "verify-small", "cli-docs")
#: Set-ups per run; setup_s reports the median.
SETUP_REPS = 5
#: Fewest ops in an untraced run, so that ten latency samples lie beyond p90.
MIN_OPS = 100
#: Processes per median of cli.interpreter_s and cli.import_s.
STARTUP_REPS = 7
#: Seconds of op time between two speed measurements.
SPEED_EVERY = 0.05
LAYERS = ("bench", "operators", "godel", "goguen", "lukasiewicz", "approximation",
          "oracle", "maxt", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


def import_fuzzrel() -> None:
    """Import fuzzrel from this checkout's src."""
    if not os.path.isfile(os.path.join(SRC, "fuzzrel", "__init__.py")):
        raise BenchError(f"no fuzzrel package under {SRC}")
    sys.path.insert(0, SRC)
    import fuzzrel.cli  # the CLI module imports the whole package

    if not os.path.abspath(fuzzrel.__file__).startswith(SRC + os.sep):
        raise BenchError(f"fuzzrel was imported from {fuzzrel.__file__}, not from {SRC}")


_IMPORT_PROBE = "import time; t = time.perf_counter(); import fuzzrel.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import fuzzrel.cli from src."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


def set_up(name: str, seed: int, small: bool):
    """Set the workload up SETUP_REPS times; return the last one and the
    median set-up time, scaled by machine speed.

    One set-up is the import of fuzzrel.cli in a fresh interpreter, building
    the inputs and warming up.
    """
    import workloads

    cls = workloads.CLASSES[name]
    args = (seed, small)
    if name == "cli-docs":
        args += (os.path.join(OUT, f"cli-docs-{os.getpid()}"), SRC)
    times = []
    workload = None
    speeds = [cls.speed()]
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = cls(*args)
        workload.warm_up()
        elapsed = time.perf_counter() - start + import_seconds()
        speeds.append(cls.speed())
        times.append(elapsed * (speeds[-2] + speeds[-1]) / 2)
    return workload, statistics.median(times)


class Ledger:
    """Per pool item: ops run, ops failed outright, and the first output,
    which every later output for the same item must equal."""

    def __init__(self, size: int):
        self.ran = [0] * size
        self.bad = [0] * size
        self.reference: list = [None] * size
        self.first_error: str | None = None

    def record(self, index: int, output, error: str | None) -> None:
        self.ran[index] += 1
        if error is not None:
            self.bad[index] += 1
            self.first_error = self.first_error or error
        elif self.reference[index] is None:
            self.reference[index] = output
        elif output != self.reference[index]:
            self.bad[index] += 1
            self.first_error = self.first_error or f"item {index}: output changed between passes"


class Timeline:
    """Op latencies in windows of about SPEED_EVERY seconds, with the
    machine speed measured between windows."""

    def __init__(self, speed_of):
        self._speed_of = speed_of
        self.speeds = [speed_of()]
        self.windows = [array("d")]
        self.count = 0
        self._window_s = 0.0

    def add(self, seconds: float) -> None:
        self.windows[-1].append(seconds)
        self.count += 1
        self._window_s += seconds
        if self._window_s >= SPEED_EVERY:
            self.speeds.append(self._speed_of())
            self.windows.append(array("d"))
            self._window_s = 0.0

    def scaled(self) -> array:
        """The latencies, each scaled by the speed measured around it."""
        if self.windows[-1]:
            self.speeds.append(self._speed_of())
        else:
            self.windows.pop()
        return speed.scale(self.windows, self.speeds)


def timed_passes(workload, tracer, seconds: float, min_ops: int, ledger: Ledger) -> Timeline:
    """Run whole passes over the pool until `seconds` have passed and at
    least `min_ops` ops ran; return their latencies.

    Op k runs pool item k % len(pool).  Output bookkeeping and speed
    measurements happen between the timed calls.
    """
    timeline = Timeline(workload.speed)
    start = time.perf_counter()
    while True:
        for index, item in enumerate(workload.pool):
            tracer.begin_op()
            output = error = None
            t0 = time.perf_counter()
            try:
                output = tracer.call(ROOT_SPAN, workload.op, tracer, item)
            except Exception as exc:  # a raising op counts as failed; the run goes on
                error = f"item {index}: {type(exc).__name__}: {exc}"
            timeline.add(time.perf_counter() - t0)
            ledger.record(index, output, error)
        if timeline.count >= min_ops and time.perf_counter() - start >= seconds:
            return timeline


def throughput(latencies) -> float:
    return len(latencies) / sum(latencies)


def count_failed(workload, ledger: Ledger) -> int:
    """Check each item's first output; return the number of failed ops."""
    failed = 0
    for index, (item, ref) in enumerate(zip(workload.pool, ledger.reference)):
        if ref is not None and workload.check(item, ref):
            failed += ledger.bad[index]
        else:
            failed += ledger.ran[index]
            if ref is not None:
                ledger.first_error = ledger.first_error or f"item {index}: output check failed"
    return failed


def digest(workload, ledger: Ledger) -> str:
    """sha256 over the first output of every pool item, in pool order."""
    sha = hashlib.sha256()
    for ref in ledger.reference:
        sha.update((workload.digest(ref) if ref is not None else "raised").encode() + b"\n")
    return sha.hexdigest()


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup_s: float, latencies, peak_rss: float, failed: int) -> dict:
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_per_s": (throughput(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
        "ops_ok_ratio": (1.0 - failed / len(ms), "ratio"),
    }


def per_layer(workload, tracer, ledger: Ledger, untraced: Timeline, traced: Timeline,
              failed: int) -> dict:
    """Per-layer metrics of the traced window; README.md describes each."""
    import workloads

    summary = SpanSummary(tracer.spans)
    pool = workload.pool
    refs = [ref for ref in ledger.reference if ref is not None]
    metrics = {}

    def spans_of(name, busy="busy_s"):
        time_of = summary.busy if busy == "busy_s" else summary.self_time
        metrics[f"{name}.{busy}"] = (time_of[name], "s")
        metrics[f"{name}.calls"] = (summary.calls[name], "count")
        metrics[f"{name}.raised"] = (summary.raised[name], "count")

    untraced_s, traced_s = untraced.scaled(), traced.scaled()
    # Work computed from input sizes, summed over the traced ops.
    work: dict = {}
    for k in range(traced.count):
        ref = ledger.reference[k % len(pool)]
        if ref is not None:
            for key, value in workload.work(pool[k % len(pool)], ref).items():
                work[key] = work.get(key, 0) + value

    spans_of("operators.FuzzySystem")
    metrics["operators.FuzzySystem.entries"] = (work.get("operators.FuzzySystem.entries", 0), "count")
    spans_of("operators.check_consistency")
    decided = [ref.consistency.consistent for ref in refs
               if workload.in_process and ref.consistency is not None]
    metrics["operators.check_consistency.consistent_share"] = (
        sum(decided) / len(decided) if decided else 0.0, "ratio")
    for module in ("godel", "goguen", "lukasiewicz"):
        name = f"{module}.distance"
        spans_of(name)
        evals = work.get(f"{name}.threshold_evals", 0)
        metrics[f"{name}.threshold_evals"] = (evals, "count")
        metrics[f"{name}.ns_per_threshold_eval"] = (
            summary.busy[name] * 1e9 / evals if evals else 0.0, "ns")
    spans_of("approximation.build")
    metrics["approximation.borderline_misses"] = (
        sum(workloads.borderline_miss(ref) and ref.report.borderline
            for ref in refs if workload.in_process), "count")

    spans_of("oracle.bisect", busy="self_s")
    bisects = summary.calls["oracle.bisect"]
    spans_of("oracle.membership")
    metrics["oracle.membership.calls_per_bisect"] = (
        summary.calls["oracle.membership"] / bisects if bisects else 0.0, "count")
    spans_of("oracle.exact_membership")
    metrics["oracle.exact_membership.verdict_disagreements"] = (
        sum(ref.exact != (ref.report.verdict.value == "minimum")
            for ref in refs if workload.in_process and ref.exact is not None), "count")
    spans_of("oracle.exact_maxt")
    spans_of("maxt.MaxTSystem")
    spans_of("maxt.distance")

    if workload.in_process:
        interpreter = importing = startup_share = main_busy = 0.0
        main_calls = exit_nonzero = 0
    else:
        bare = workload.process_seconds(("-c", "pass"), STARTUP_REPS)
        with_import = workload.process_seconds(("-c", "import fuzzrel.cli"), STARTUP_REPS)
        # Unscaled, like the two medians above.
        raw = [x for window in traced.windows for x in window]
        small = [x for k, x in enumerate(raw) if not pool[k % len(pool)].big]
        interpreter, importing = bare, with_import - bare
        startup_share = with_import / statistics.median(small)
        main_busy, main_calls = workload.main_busy, workload.main_calls
        exit_nonzero = workload.exit_nonzero
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (importing, "s")
    metrics["cli.startup_share"] = (startup_share, "ratio")
    metrics["cli.main.busy_s"] = (main_busy, "s")
    metrics["cli.main.calls"] = (main_calls, "count")
    spans_of("cli.process")
    metrics["cli.exit_nonzero"] = (exit_nonzero, "count")

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (summary.layer_self(layer), "s")
        metrics[f"{layer}.share"] = (summary.layer_share(layer), "ratio")
    metrics["trace.overhead_ops_per_s"] = (throughput(traced_s) - throughput(untraced_s), "1/s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["machine.speed"] = (statistics.median(untraced.speeds + traced.speeds), "ratio")
    metrics["ops_failed_ratio"] = (failed / (untraced.count + traced.count), "ratio")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
            min_ops: int = MIN_OPS) -> tuple[dict, str]:
    """Run one workload; return the result object and the output digest.

    A traced run spends half its seconds untraced and half traced, for the
    tracing overhead.
    """
    workload, setup_median = set_up(name, seed, small)
    try:
        ledger = Ledger(len(workload.pool))
        if trace:
            untraced = timed_passes(workload, NoTrace(), seconds / 2, 1, ledger)
            tracer = Tracer()
            traced = timed_passes(workload, tracer, seconds / 2, 1, ledger)
            attempted = untraced.count + traced.count
            failed = count_failed(workload, ledger)
            metrics = per_layer(workload, tracer, ledger, untraced, traced, failed)
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))
        else:
            timeline = timed_passes(workload, NoTrace(), seconds, min_ops, ledger)
            # Read before the statistics and checks below allocate more.
            peak_rss = peak_rss_mb(workload)
            latencies = timeline.scaled()
            attempted = len(latencies)
            failed = count_failed(workload, ledger)
            metrics = end_to_end(setup_median, latencies, peak_rss, failed)
    finally:
        workload.close()
    if ledger.first_error:
        print(f"bench: {name}: first failure: {ledger.first_error}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, digest(workload, ledger)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_fuzzrel()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, sha = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"digest {args.workload} seed={args.seed} sha256={sha}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
