"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps public functions and methods of ``repro``'s
modules (and the ``__iter__`` of every physical operator) so that each
call, or each ``next()`` on an operator's iterator, records a span:
name, start, end, parent span and the statement that was running. The
spans stay in memory on a per-thread stack and are written out when the
run ends. A layer's self time is the duration of its spans minus the
part their child spans cover, so an operator's ``next()`` that pulls
from its child, loads a partition and evaluates a predicate is charged
only for its own work.

Nothing here changes what the program computes; the wrappers only add
their own cost, which the traced run reports as tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: statement id of spans recorded outside the statement stream
OUTSIDE = -1


class _ThreadSpans:
    __slots__ = ("names", "starts", "ends", "parents", "stmts", "stack")

    def __init__(self):
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stmts = array("i")
        self.stack: list[int] = []


class Recorder:
    """Spans of every thread, plus values reported at span sites."""

    def __init__(self):
        #: statement the benchmark loop is issuing (OUTSIDE between)
        self.stmt = OUTSIDE
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        #: name -> summed value, for stream statements only
        self.values: dict[str, float] = {}

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def start(self, name_id: int) -> int:
        spans = self._spans()
        index = len(spans.names)
        spans.names.append(name_id)
        spans.parents.append(spans.stack[-1] if spans.stack else -1)
        spans.stmts.append(self.stmt)
        spans.ends.append(0.0)
        spans.stack.append(index)
        spans.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        spans = self._spans()
        spans.ends[index] = now
        # tolerate a stack disturbed by an abandoned generator
        while spans.stack and spans.stack.pop() != index:
            pass

    def add(self, name: str, value: float) -> None:
        if self.stmt != OUTSIDE:
            self.values[name] = self.values.get(name, 0.0) + value

    def span(self, name: str):
        return _SpanCM(self, self.name_id(name))

    # -- results ---------------------------------------------------------
    def self_times(self, stmts: set[int] | None = None
                   ) -> tuple[dict[str, float], dict[str, int]]:
        """Self milliseconds and span counts by name, over spans of the
        statement stream (or of ``stmts`` only, when given)."""
        self_ms: dict[str, float] = {}
        counts: dict[str, int] = {}
        for spans in self._threads:
            n = len(spans.names)
            child = [0.0] * n
            for i in range(n):
                parent = spans.parents[i]
                if parent >= 0:
                    child[parent] += spans.ends[i] - spans.starts[i]
            for i in range(n):
                stmt = spans.stmts[i]
                if stmt == OUTSIDE or (stmts is not None
                                       and stmt not in stmts):
                    continue
                name = self._names[spans.names[i]]
                own = spans.ends[i] - spans.starts[i] - child[i]
                self_ms[name] = self_ms.get(name, 0.0) + own * 1e3
                counts[name] = counts.get(name, 0) + 1
        return self_ms, counts

    def write(self, path: Path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("thread\tspan\tname\tstart_us\tend_us\tparent\tstmt\n")
            for thread, spans in enumerate(self._threads):
                for i in range(len(spans.names)):
                    out.write(
                        f"{thread}\t{i}\t{self._names[spans.names[i]]}\t"
                        f"{spans.starts[i] * 1e6:.1f}\t"
                        f"{spans.ends[i] * 1e6:.1f}\t{spans.parents[i]}\t"
                        f"{spans.stmts[i]}\n")
                    written += 1
        return written


class _SpanCM:
    __slots__ = ("recorder", "name_id", "index")

    def __init__(self, recorder: Recorder, name_id: int):
        self.recorder = recorder
        self.name_id = name_id

    def __enter__(self):
        self.index = self.recorder.start(self.name_id)
        return self

    def __exit__(self, *exc):
        self.recorder.end(self.index)
        return False


class _TimedIter:
    """Times each ``next()`` (and ``send``/``throw``) of an iterator."""

    __slots__ = ("recorder", "name_id", "it")

    def __init__(self, recorder: Recorder, name_id: int, it):
        self.recorder = recorder
        self.name_id = name_id
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        index = self.recorder.start(self.name_id)
        try:
            return next(self.it)
        finally:
            self.recorder.end(index)

    def send(self, value):
        index = self.recorder.start(self.name_id)
        try:
            return self.it.send(value)
        finally:
            self.recorder.end(index)

    def throw(self, *args):
        index = self.recorder.start(self.name_id)
        try:
            return self.it.throw(*args)
        finally:
            self.recorder.end(index)

    def close(self):
        close = getattr(self.it, "close", None)
        if close is not None:
            close()


def _timed(recorder: Recorder, name: str, fn, on_result=None):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.start(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _patch_function(recorder: Recorder, module, attr: str, name: str,
                    on_result=None) -> None:
    """Wrap a module-level function in every ``repro`` module that
    holds a reference to it (``from x import f`` copies the name)."""
    original = getattr(module, attr)
    wrapper = _timed(recorder, name, original, on_result)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) \
                and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _patch_method(recorder: Recorder, cls, attr: str, name: str,
                  on_result=None) -> None:
    setattr(cls, attr, _timed(recorder, name, cls.__dict__[attr],
                              on_result))


def _patch_iter(recorder: Recorder, cls, name: str) -> None:
    original = cls.__dict__["__iter__"]
    name_id = recorder.name_id(name)

    def __iter__(self):
        return _TimedIter(recorder, name_id, original(self))

    cls.__iter__ = __iter__


def _patch_contextmanager(recorder: Recorder, cls, attr: str,
                          name: str) -> None:
    generator_fn = cls.__dict__[attr].__wrapped__
    name_id = recorder.name_id(name)

    @functools.wraps(generator_fn)
    def timed(*args, **kwargs):
        return _TimedIter(recorder, name_id, generator_fn(*args, **kwargs))

    setattr(cls, attr, contextmanager(timed))


def install() -> Recorder:
    """Wrap the program's layer boundaries; returns the recorder.

    Import-time only: call before the catalog is built, so every object
    the run creates sees the wrapped functions.
    """
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import WriteAheadLog
    from repro.engine import chunk, operators
    from repro.expr import eval as expr_eval
    from repro.obs.telemetry import TelemetrySink
    from repro.obs.trace import Span, Tracer
    from repro.plan.compiler import QueryCompiler
    from repro.plancache import parameterize
    from repro.pruning import (filter_pruning, join_pruning,
                               limit_pruning, sketches, stats_index,
                               topk_pruning)
    from repro.sql import parser, planner
    from repro.storage import builder, column, storage_layer, table

    rec = Recorder()
    fn, meth = _patch_function, _patch_method
    fn(rec, parser, "parse_statement", "sql.parse")
    fn(rec, parser, "parse_select", "sql.parse")
    fn(rec, planner, "plan_select", "sql.plan")
    fn(rec, parameterize, "parameterize_text", "plancache.parameterize")
    meth(rec, QueryCompiler, "compile", "plan.compile")
    meth(rec, QueryCompiler, "compile_rebound", "plan.compile")

    meth(rec, stats_index.VectorizedFilterPruner, "prune", "pruning.filter")
    meth(rec, filter_pruning.FilterPruner, "prune", "pruning.filter")
    meth(rec, sketches.SketchPruner, "prune", "pruning.sketch")
    meth(rec, sketches.ShapeSkipSet, "lookup", "pruning.sketch")
    meth(rec, sketches.ShapeSkipSet, "record", "pruning.sketch")
    meth(rec, limit_pruning.LimitPruner, "prune", "pruning.limit")
    fn(rec, topk_pruning, "initialize_boundary", "pruning.topk")
    fn(rec, stats_index, "topk_skip_mask", "pruning.topk")
    meth(rec, topk_pruning.TopKPruner, "should_skip", "pruning.topk")
    meth(rec, topk_pruning.TopKPruner, "peek_skip", "pruning.topk")
    fn(rec, join_pruning, "build_summary", "pruning.join")
    meth(rec, join_pruning.JoinPruner, "prune", "pruning.join")

    meth(rec, storage_layer.StorageLayer, "load", "storage.load")
    meth(rec, column.Column, "nbytes", "storage.nbytes")
    fn(rec, expr_eval, "evaluate", "expr.eval")
    fn(rec, expr_eval, "evaluate_predicate", "expr.eval")
    meth(rec, chunk.Chunk, "to_rows", "engine.materialize")
    for cls, name in ((operators.Scan, "engine.scan"),
                      (operators.Filter, "engine.filter"),
                      (operators.Project, "engine.project"),
                      (operators.HashJoin, "engine.join"),
                      (operators.HashAggregate, "engine.aggregate"),
                      (operators.Sort, "engine.sort"),
                      (operators.TopK, "engine.topk"),
                      (operators.Limit, "engine.limit")):
        _patch_iter(rec, cls, name)

    fn(rec, builder, "build_table", "storage.build")
    meth(rec, stats_index.StatsIndex, "__init__", "storage.stats_index")
    meth(rec, stats_index.StatsIndex, "with_changes", "storage.stats_index")
    meth(rec, table.Table, "stats_index", "storage.stats_index")
    fn(rec, sketches, "build_partition_sketches", "pruning.sketch_build")
    meth(rec, sketches.SketchBuildCache, "prewarm_ngrams",
         "pruning.sketch_build")
    meth(rec, WriteAheadLog, "append", "durability.wal_append",
         on_result=lambda r: rec.add("durability.wal_bytes", r[1]))
    meth(rec, DurabilityManager, "checkpoint", "durability.checkpoint")

    meth(rec, TelemetrySink, "record", "obs.telemetry")
    meth(rec, TelemetrySink, "annotate", "obs.telemetry")
    for attr in ("__init__", "start_span", "event", "finish"):
        meth(rec, Tracer, attr, "obs.trace")
    _patch_contextmanager(rec, Tracer, "span", "obs.trace")
    for attr in ("__init__", "end", "annotate"):
        meth(rec, Span, attr, "obs.trace")
    return rec
