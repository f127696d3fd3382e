"""Span tracing installed from outside the program.

The benchmark's traced run wraps the public entry points of each layer
where their callers look them up (a module attribute or a class
attribute), so the program itself carries no tracing code.  Every
wrapped call records a span — name, start, end, parent, and the trace
id of the benchmark operation it ran under — in memory; the spans are
written out when the run ends.  A span's *self time* is its duration
minus the time its child spans cover, accumulated as the spans close.

Spans opened on a thread other than the one driving the operation (the
sharded coordinator's fan-out pool) have no parent on that thread.
They are kept as *detached* spans: they count towards their layer's
totals (RPC wait) but not towards the operation's waterfall, whose
spans all nest on the driving thread and so cannot overlap.

Counters (``count``) record how often a boundary was crossed without a
span, for calls too frequent or too small to time individually.

The waterfall of an op class splits its traced wall time into the
layers' self times plus the unattributed remainder (the root span's
self time).  That sum equals the traced wall time by construction, so
it proves nothing by itself; what can fail is the comparison with a
clock the spans do not define: the class's mean latency in untraced
operations of the same run (:attr:`Tracer.untraced`).  The traced time
is larger by the tracing's own cost, estimated as the class's spans per
operation times the cost of one span (:func:`span_cost`); what remains
of the gap is error in the split the layers report.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ['Tracer', 'install', 'uninstall', 'span_cost']


class _Frame:
    __slots__ = ('span_id', 'child')

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """In-memory span recorder with running self-time totals."""

    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.op_class = None
        self.trace_id = 0
        self._local = threading.local()
        self._span_ids = itertools.count(1)   # next() is atomic
        self._lock = threading.Lock()
        #: (trace_id, span_id, parent_id, name, start, end); parent_id
        #: is -1 for a root and -2 for a detached span.
        self.spans: list[tuple] = []
        #: (op_class, span name) -> summed self seconds, driving thread
        self.self_time: dict = defaultdict(float)
        #: (op_class, span name) -> summed seconds of detached spans
        self.detached_time: dict = defaultdict(float)
        #: (op_class, span or counter name) -> calls
        self.calls: dict = defaultdict(int)
        #: op_class -> spans recorded, the root and detached ones too
        self.n_spans: dict = defaultdict(int)
        #: op_class -> summed wall seconds measured around each op
        self.wall: dict = defaultdict(float)
        self.ops: dict = defaultdict(int)
        #: (op_class, {counter: calls}) for every operation, in order
        self.per_op: list[tuple] = []
        #: op_class -> mean seconds of the same class run untraced
        self.untraced: dict = {}
        #: seconds one span adds to its operation (see span_cost)
        self.per_span = 0.0
        self._op_counts: dict = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, 'stack', None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._span_ids)
        if stack:
            parent = stack[-1].span_id
        else:
            parent = -1 if name == 'op' else -2
        frame = _Frame(span_id)
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            key = (self.op_class, name)
            if stack:
                stack[-1].child += duration
            # Pool threads close spans concurrently: the totals are
            # read-modify-write, so they are updated under the lock.
            with self._lock:
                if parent == -2:
                    self.detached_time[key] += duration
                else:
                    self.self_time[key] += duration - frame.child
                self.calls[key] += 1
                self.n_spans[self.op_class] += 1
                self._op_counts[name] += 1
                self.spans.append((self.trace_id, span_id, parent, name,
                                   start, end))

    def wrap(self, name: str, fn):
        """``fn`` recording a span ``name`` while the tracer is active
        and an operation runs, in this process (forked workers and
        calls outside :meth:`run_op` go straight through)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or tracer.op_class is None \
                    or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            return tracer._span(name, fn, args, kwargs)
        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls under ``name`` (no span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and tracer.op_class is not None \
                    and os.getpid() == tracer.pid:
                tracer.bump(name)
            return fn(*args, **kwargs)
        return counted

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` for the current operation."""
        with self._lock:
            self.calls[(self.op_class, name)] += n
            self._op_counts[name] += n

    def run_op(self, op_class: str, fn, *args):
        """Time ``fn(*args)`` as one operation under a root span
        ``op``, whose self time is the operation's unattributed time;
        returns (seconds, result)."""
        self.op_class = op_class
        self.trace_id += 1
        self._op_counts = defaultdict(int)
        started = perf_counter()
        try:
            result = self._span('op', fn, args, {})
        finally:
            elapsed = perf_counter() - started
            self.wall[op_class] += elapsed
            self.ops[op_class] += 1
            self.per_op.append((op_class, dict(self._op_counts)))
            self.op_class = None
        return elapsed, result

    # -- derived figures ------------------------------------------------

    def total(self, name: str, classes=None) -> float:
        """Summed self seconds of span ``name`` over ``classes``."""
        return sum(v for (c, n), v in self.self_time.items()
                   if n == name and (classes is None or c in classes))

    def detached(self, name: str, classes=None) -> float:
        return sum(v for (c, n), v in self.detached_time.items()
                   if n == name and (classes is None or c in classes))

    def n_calls(self, name: str, classes=None) -> int:
        return sum(v for (c, n), v in self.calls.items()
                   if n == name and (classes is None or c in classes))

    def waterfall(self) -> dict:
        """Per op class: mean ms per op of every span's self time, the
        unattributed remainder (the root's self time), the traced wall
        time (their sum), the tracing's estimated cost, and, where the
        class also ran untraced, its untraced mean latency and the
        relative gap between it and the traced time less that cost."""
        out = {}
        for op_class, n_ops in sorted(self.ops.items()):
            layers = {name: seconds * 1000.0 / n_ops
                      for (c, name), seconds in sorted(
                          self.self_time.items())
                      if c == op_class and name != 'op'}
            wall = self.wall[op_class] * 1000.0 / n_ops
            tracing = self.n_spans[op_class] * self.per_span * 1000.0 \
                / n_ops
            untraced = self.untraced.get(op_class)
            out[op_class] = {
                'ops': n_ops,
                'wall_ms': wall,
                'layers_ms': layers,
                'unattributed_ms': self.self_time.get(
                    (op_class, 'op'), 0.0) * 1000.0 / n_ops,
                'spans_per_op': self.n_spans[op_class] / n_ops,
                'tracing_ms': tracing,
                'untraced_ms': None if untraced is None
                else untraced * 1000.0,
                'gap_ratio': None if not untraced
                else abs((wall - tracing) / 1000.0 - untraced) / untraced,
            }
        return out

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, 'wt', compresslevel=1) as out:
            out.write('trace\tspan\tparent\tname\tstart_s\tend_s\n')
            for trace_id, span_id, parent, name, start, end in self.spans:
                out.write(f'{trace_id}\t{span_id}\t{parent}\t{name}\t'
                          f'{start:.9f}\t{end:.9f}\n')


def span_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one span adds to the operation around it: ``calls``
    traced calls of a no-op, less the same calls untraced, per call,
    under a throwaway tracer; the median over ``repeats``."""
    probe = Tracer()
    probe.active = True
    probe.op_class = 'calibration'

    def noop():
        return None

    traced = probe.wrap('probe', noop)
    costs = []
    for _ in range(repeats):
        started = perf_counter()
        probe._span('op', lambda: [traced() for _ in range(calls)], (), {})
        middle = perf_counter()
        [noop() for _ in range(calls)]
        costs.append((2 * middle - started - perf_counter()) / calls)
    return statistics.median(costs)


def install(tracer: Tracer, targets) -> list:
    """Replace each ``(owner, attribute, name, kind)`` target with its
    traced version and return an undo list for :func:`uninstall`.
    ``kind`` is ``'span'``, ``'count'``, or a factory ``kind(tracer,
    function)`` returning the wrapper."""
    undo = []
    for owner, attr, name, kind in targets:
        raw = getattr(owner, attr)
        own = attr in vars(owner)
        if kind == 'span':
            wrapper = tracer.wrap(name, raw)
        elif kind == 'count':
            wrapper = tracer.count(name, raw)
        else:
            wrapper = kind(tracer, raw)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, raw, own))
    return undo


def uninstall(undo: list) -> None:
    """Restore what :func:`install` replaced (an inherited method is
    un-shadowed rather than copied onto the subclass)."""
    for owner, attr, raw, own in reversed(undo):
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)
