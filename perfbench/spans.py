"""In-memory spans and counters recorded around bfchart's public functions.

The benchmark never edits the package: ``hooks(tracer)`` replaces each
function under test with a wrapper at the place its caller looks it up (a
module attribute, a name imported into another module, a method or a
property), and puts the originals back on exit.

Every wrapped call records a span ``[name, start, end, parent, op]``: the
parent is the index of the enclosing span (-1 for a root) and ``op`` the
index of the root operation that caused it.  Functions called once per row,
step or chunk are marked ``hot``; they must not call other wrapped
functions, and they are recorded as one aggregate per (parent span, name)
holding the call count and summed duration, which keeps the trace small.
Counters are kept at the same wrappers.
"""

from __future__ import annotations

import collections
import contextlib
import os
from time import perf_counter

import numpy as np

LAYERS = ("chart", "dwr", "diagnostics", "linalg", "bayesfactor", "workflow",
          "cli", "svg")


class Tracer:
    """Spans, hot-call aggregates and counters of one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.hot: dict[tuple[int, str], list] = {}
        self.counters: collections.Counter = collections.Counter()
        self.op_kinds: dict[int, str] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        op = self.spans[parent][4] if parent >= 0 else index
        self.spans.append([name, perf_counter(), None, parent, op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span[2] = end
        return end - span[1]

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span around one benchmark operation (one CLI call)."""
        index = self._open("cli.main")
        self.op_kinds[index] = kind
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, func, name: str, hot: bool = False, count=None):
        """Return ``func`` recording a span (or hot aggregate) and counters."""
        counters = self.counters
        errors = name.split(".")[0] + ".errors"
        calls, seconds = name + ".calls", name + ".s"

        if hot:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    counters[errors] += 1
                    raise
                finally:
                    took = perf_counter() - start
                    parent = self._stack[-1] if self._stack else -1
                    entry = self.hot.get((parent, name))
                    if entry is None:
                        self.hot[(parent, name)] = [1, took]
                    else:
                        entry[0] += 1
                        entry[1] += took
                    counters[calls] += 1
                    counters[seconds] += took
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    counters[errors] += 1
                    raise
                finally:
                    counters[calls] += 1
                    counters[seconds] += self._close(index)
                if count is not None:
                    count(counters, args, kwargs, result)
                return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        return self_times(self.spans, self.hot)

    def summary(self) -> dict:
        """Self seconds by span name and, per op kind, by layer per op."""
        selfs = self.self_times()
        by_name: collections.Counter = collections.Counter()
        per_kind: dict[str, collections.Counter] = {}
        op_count: collections.Counter = collections.Counter()
        op_seconds: collections.Counter = collections.Counter()
        for index, kind in self.op_kinds.items():
            span = self.spans[index]
            op_count[kind] += 1
            op_seconds[kind] += span[2] - span[1]
            per_kind.setdefault(kind, collections.Counter())
        for span, own in zip(self.spans, selfs):
            by_name[span[0]] += own
            kind = self.op_kinds.get(span[4])
            if kind is not None:
                per_kind[kind][span[0].split(".")[0]] += own
        for (parent, name), (_, took) in self.hot.items():
            by_name[name] += took
            kind = self.op_kinds.get(self.spans[parent][4]) if parent >= 0 else None
            if kind is not None:
                per_kind[kind][name.split(".")[0]] += took
        return {
            "self_s": dict(by_name),
            "ops": {
                kind: {
                    "count": op_count[kind],
                    "mean_s": op_seconds[kind] / op_count[kind],
                    "self_s_per_op_by_layer": {
                        layer: per_kind[kind][layer] / op_count[kind]
                        for layer in sorted(per_kind[kind])
                    },
                }
                for kind in sorted(op_count)
            },
        }

    def mean_inclusive(self, name: str, kind: str) -> float:
        """Mean over ops of ``kind`` of the summed duration of ``name`` spans."""
        ops = [i for i, k in self.op_kinds.items() if k == kind]
        if not ops:
            return float("nan")
        roots = set(ops)
        total = sum(s[2] - s[1] for s in self.spans
                    if s[0] == name and s[4] in roots)
        return total / len(ops)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "hot_fields": ["parent", "name", "calls", "seconds"],
            "hot": [[p, n, c, s] for (p, n), (c, s) in self.hot.items()],
            "op_kinds": {str(k): v for k, v in self.op_kinds.items()},
            "counters": dict(self.counters),
            "summary": self.summary(),
        }


def self_times(spans, hot=None) -> list[float]:
    """Self time of each span: its duration minus the union of the intervals
    its direct child spans cover, minus the summed duration of the hot calls
    aggregated under it.  ``spans`` rows are ``[name, start, end, parent, ...]``
    with parents listed before their children."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    hot_total: collections.Counter = collections.Counter()
    for (parent, _), (_, took) in (hot or {}).items():
        hot_total[parent] += took
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, -np.inf
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append((span[2] - span[1]) - covered - hot_total[index])
    return out


# ---------------------------------------------------------------------------
# the wrapped functions
# ---------------------------------------------------------------------------


def _count_calibration(counters, args, kwargs, result):
    counters["chart.calibrate_c.evaluations"] += result.evaluations


def _count_arl(counters, args, kwargs, result):
    reps = kwargs["reps"] if "reps" in kwargs else args[2]
    counters["chart.replications"] += int(reps)
    counters["chart.censored"] += int(result[2])


def _count_chunk(counters, args, kwargs, result):
    counters["chart.simulated_steps"] += int(result[0])
    counters["chart.noise_drawn"] += len(args[0])


def _count_filter_rows(counters, args, kwargs, result):
    counters["dwr.run_filter.rows"] += len(args[1])


def _count_read_rows(counters, args, kwargs, result):
    counters["cli.read_data.rows"] += int(result[1].shape[0])


def _count_written(counters, args, kwargs, result):
    path, doc = args[0], args[1]
    kind = {"bfchart-model": "cli.model_bytes",
            "bfchart-report": "cli.report_bytes"}.get(doc.get("kind"))
    if kind is not None:
        counters[kind] += os.path.getsize(path)


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from bfchart import _accel, bayesfactor, chart, cli, diagnostics, dwr, svg
    from bfchart import workflow

    targets = [
        # (owner, attribute, span name, hot, counter)
        (workflow, "phase1", "workflow.phase1", False, None),
        (workflow, "phase2", "workflow.phase2", False, None),
        (workflow, "calibrate_c", "chart.calibrate_c", False, _count_calibration),
        (chart, "calibrate_c", "chart.calibrate_c", False, _count_calibration),
        (chart, "estimate_arl", "chart.estimate_arl", False, _count_arl),
        (_accel, "run_length_chunk", "chart.run_length_chunk", True, _count_chunk),
        (_accel, "ewma_path", "chart.ewma_path", False, None),
        (workflow, "fit_ar1", "chart.fit_ar1", False, None),
        (workflow, "run_filter", "dwr.run_filter", False, _count_filter_rows),
        (dwr.FilterState, "step", "dwr.step", True, None),
        (workflow, "fit_report", "diagnostics.fit_report", False, None),
        (diagnostics, "sym_inv_sqrt", "linalg.sym_inv_sqrt", True, None),
        (_accel, "lbf_path", "bayesfactor.lbf_path", False, None),
        (bayesfactor, "lbf_terms", "bayesfactor.lbf_terms", True, None),
        (bayesfactor, "lbf_series", "bayesfactor.lbf_series", False, None),
        (cli, "read_data", "cli.read_data", False, _count_read_rows),
        (cli, "_write_json", "cli.write_json", False, _count_written),
        (svg, "render_chart_svg", "svg.render_chart_svg", False, None),
    ]
    saved = []
    try:
        for owner, attr, name, hot, count in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, hot, count))
        warmup = dwr.FilterPath.__dict__["warmup"]
        saved.append((dwr.FilterPath, "warmup", warmup))
        dwr.FilterPath.warmup = property(tracer.wrap(warmup.fget, "dwr.warmup"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
