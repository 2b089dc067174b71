"""In-memory spans recorded around the benchmark's calls into fuzzrel.

Every call the benchmark makes into a public fuzzrel function goes through
`call(name, fn, *args, **kwargs)`.  `NoTrace.call` just calls `fn`; the
untraced run, which gives the end-to-end metrics, uses it.  `Tracer.call`
also records a span: its name, start and end, the span that was open when it
started (its parent), whether it raised, and the id of the op it belongs to.

Span names are `<module>.<function>`, where the module is the fuzzrel module
that holds the function.  The module is the span's layer; the root span of an
op is named `op` and its layer is `bench`, the harness's own glue.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

ROOT_SPAN = "op"


class NoTrace:
    """Calls straight through; records nothing."""

    def begin_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call, kept in memory until `write`."""

    def __init__(self):
        # (op, id, parent, name, start_ns, end_ns, raised), in order of start.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self) -> None:
        self._op += 1

    def call(self, name, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        raised = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (self._op, span_id, parent, name, start, end, raised)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "raised")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_of(name: str) -> str:
    return "bench" if name == ROOT_SPAN else name.split(".", 1)[0]


class SpanSummary:
    """Totals over a tracer's spans, in seconds.

    busy[name] sums the durations of the spans with that name; self_time[name]
    sums the same durations minus the part their child spans cover.  op_time
    sums the durations of the root spans.
    """

    def __init__(self, spans):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self.op_time = 0.0
        for _, span_id, parent, name, start, end, raised in spans:
            self.busy[name] += (end - start) / 1e9
            self.self_time[name] += (end - start - child_ns[span_id]) / 1e9
            self.calls[name] += 1
            self.raised[name] += raised
            if parent is None:
                self.op_time += (end - start) / 1e9

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if layer_of(name) == layer)

    def layer_share(self, layer: str) -> float:
        return self.layer_self(layer) / self.op_time if self.op_time else 0.0
