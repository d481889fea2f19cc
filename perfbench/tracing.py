"""Tracing wrappers around the public ``llp`` layers.

Nothing here changes program code.  A traced solve hands ``run_solver``
three delegating objects built in this file:

* :class:`TracedProblem` wraps the adapter (``problems`` layer) and times
  ``init_state``, ``push_initial``, ``ensure``, ``is_forbidden``,
  ``advance`` and ``final_solution``;
* :class:`TracedWorklist` wraps the worklist (``worklists`` layer) and
  times ``push``/``push_all``/``pop``/``task_done``/``quiescent``;
* :class:`TracedCells` replaces ``state.values`` (``core`` layer) and
  times its monotone updates.

Counters live in one :class:`ThreadTrace` per thread and are merged by
:meth:`Tracer.totals` after ``run_solver`` has joined its workers, so
they are exact at every thread count (the shared ``Stats`` ``+=`` is
not).  Spans ``(thread, id, name, start, end, parent)`` stay in memory;
only the first ``SPAN_CAP`` per thread are kept, the rest are counted.

Phases are inferred from the calls themselves: the drain starts when
``push_initial`` (or, for scan strategies, ``init_state``) returns; the
post-solve scan starts with the first top-level ``is_forbidden`` on the
thread that called ``init_state``, because no strategy makes a bare
predicate check from that thread while draining; extraction starts with
``final_solution``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

from llp.core import Problem
from llp.worklists import Worklist

PROBLEMS = "problems"
WORKLISTS = "worklists"
CORE = "core"

#: Spans kept per thread; later ones are only counted as dropped.
SPAN_CAP = 5000


class ThreadTrace:
    """Counters, time sums and spans of one thread."""

    __slots__ = (
        "index", "caller", "stack", "seq", "spans", "dropped", "calls", "time", "busy",
        "check_self", "checks", "found", "advances", "failed", "pushes", "seed_items",
        "pops", "useful_pops", "empty_pops", "popped",
        "atomic_calls", "atomic_success", "cell_changes",
    )

    def __init__(self, index: int, caller: bool):
        self.index = index
        self.caller = caller
        self.stack = []  # open frames: [layer, foreign child time, span id]
        self.seq = 0
        self.spans = []
        self.dropped = 0
        self.calls = {}
        self.time = {}
        self.busy = 0.0  # drain time inside top-level layer calls
        self.check_self = 0.0  # problems-layer self time of those calls
        self.checks = self.found = self.advances = self.failed = 0
        self.pushes = self.seed_items = 0
        self.pops = self.useful_pops = self.empty_pops = 0
        self.popped = False
        self.atomic_calls = self.atomic_success = self.cell_changes = 0


_SUMMED = (
    "busy", "check_self", "checks", "found", "advances", "failed", "pushes", "seed_items",
    "pops", "useful_pops", "empty_pops", "atomic_calls", "atomic_success",
    "cell_changes", "dropped",
)


class Tracer:
    """Owns the per-thread traces and the phase timestamps of one solve."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._traces = []
        self.caller_ident = threading.get_ident()
        self.phase = "setup"
        self.marks = {}  # phase name -> perf_counter at its start

    def local(self) -> ThreadTrace:
        try:
            return self._tls.trace
        except AttributeError:
            with self._lock:
                trace = ThreadTrace(len(self._traces), threading.get_ident() == self.caller_ident)
                self._traces.append(trace)
            self._tls.trace = trace
            return trace

    def mark(self, phase: str, when: float) -> None:
        self.phase = phase
        self.marks[phase] = when

    def call(self, trace: ThreadTrace, name: str, layer: str, fn, args):
        """Run ``fn(*args)`` as a span of ``layer``; returns its result."""
        stack = trace.stack
        parent = stack[-1] if stack else None
        span_id = trace.seq
        trace.seq = span_id + 1
        frame = [layer, 0.0, span_id]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            d = t1 - t0
            calls = trace.calls
            calls[name] = calls.get(name, 0) + 1
            tsum = trace.time
            tsum[name] = tsum.get(name, 0.0) + d
            if parent is None:
                if self.phase == "drain":
                    trace.busy += d
                    if layer == PROBLEMS:
                        trace.check_self += d - frame[1]
            elif parent[0] == layer:
                parent[1] += frame[1]  # nested same-layer call: pass foreign time up
            else:
                parent[1] += d
            self._keep(trace, (span_id, name, t0, t1, None if parent is None else parent[2]))

    def _keep(self, trace: ThreadTrace, span: tuple) -> None:
        if len(trace.spans) < SPAN_CAP:
            trace.spans.append(span)
        else:
            trace.dropped += 1

    def span(self, name: str, t0: float, t1: float) -> None:
        """Record a coarse span measured by the caller on its own thread."""
        trace = self.local()
        span_id = trace.seq
        trace.seq = span_id + 1
        self._keep(trace, (span_id, name, t0, t1, None))

    def recorder(self, index: int, old: int, new: int) -> None:
        """``run_solver`` recorder hook: counts cell changes per thread."""
        self.local().cell_changes += 1

    def totals(self) -> dict:
        """Merge every thread's counters; call after the solve has joined."""
        out = {key: 0 for key in _SUMMED}
        calls, time = {}, {}
        for trace in self._traces:
            for key in _SUMMED:
                out[key] += getattr(trace, key)
            for src, dst in ((trace.calls, calls), (trace.time, time)):
                for name, value in src.items():
                    dst[name] = dst.get(name, 0) + value
        out["calls"], out["time"] = calls, time
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write all kept spans as JSON."""
        spans = [
            [trace.index, sid, name, t0, t1, parent]
            for trace in self._traces
            for sid, name, t0, t1, parent in trace.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["thread", "id", "name", "start", "end", "parent"],
                    "dropped": sum(t.dropped for t in self._traces),
                    "marks": self.marks,
                    "spans": spans,
                },
                fh,
            )


class TracedCells:
    """Stands in for ``state.values``; times and counts its atomic updates.

    The workloads' adapters update cells only through ``monotone_min`` and
    ``monotone_max``; reads and any other method go to the real array.
    An untraced update would show as ``cell_changes`` exceeding the traced
    successful updates.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _update(self, name, fn, index, candidate):
        tracer = self._tracer
        trace = tracer.local()
        res = tracer.call(trace, name, CORE, fn, (index, candidate))
        trace.atomic_calls += 1
        if res.updated:
            trace.atomic_success += 1
        return res

    def monotone_min(self, index, candidate):
        return self._update("atomic.monotone_min", self._inner.monotone_min, index, candidate)

    def monotone_max(self, index, candidate):
        return self._update("atomic.monotone_max", self._inner.monotone_max, index, candidate)


class TracedWorklist(Worklist):
    """Delegating worklist that times and counts every call."""

    def __init__(self, inner: Worklist, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.multi_consumer = inner.multi_consumer

    def push(self, item) -> None:
        tracer = self._tracer
        trace = tracer.local()
        tracer.call(trace, "push", WORKLISTS, self._inner.push, (item,))
        self._count_pushes(trace, 1)

    def push_all(self, items) -> None:
        # Materialize first: a generator belongs to the adapter that built it.
        batch = list(items)
        tracer = self._tracer
        trace = tracer.local()
        tracer.call(trace, "push_all", WORKLISTS, self._inner.push_all, (batch,))
        self._count_pushes(trace, len(batch))

    def _count_pushes(self, trace: ThreadTrace, count: int) -> None:
        trace.pushes += count
        if self._tracer.phase == "seed":
            trace.seed_items += count

    def pop(self):
        tracer = self._tracer
        trace = tracer.local()
        item = tracer.call(trace, "pop", WORKLISTS, self._inner.pop, ())
        if item is None:
            trace.empty_pops += 1
        else:
            trace.pops += 1
            trace.popped = True
        return item

    def task_done(self) -> None:
        tracer = self._tracer
        tracer.call(tracer.local(), "task_done", WORKLISTS, self._inner.task_done, ())

    def quiescent(self) -> bool:
        tracer = self._tracer
        return tracer.call(tracer.local(), "quiescent", WORKLISTS, self._inner.quiescent, ())

    def bind(self, slot: int) -> None:
        self._inner.bind(slot)

    def seal_pending(self) -> None:
        self._inner.seal_pending()


class TracedProblem(Problem):
    """Delegating adapter that times the problem contract.

    An adapter that keeps the default ``Problem.ensure`` is driven through
    that same default with this wrapper as ``self``, so its nested
    ``is_forbidden`` and ``advance`` calls are traced too.  An adapter
    with its own ``ensure`` is called as is; an advance is then inferred
    from a successful atomic update during the call.
    """

    def __init__(self, inner: Problem, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.size = inner.size
        self.lattice = inner.lattice
        self.memoizes = inner.memoizes
        self.bound = inner.bound
        self._default_ensure = type(inner).ensure is Problem.ensure
        self._views = {}  # id(solver-made worklist) -> traced view

    def _view(self, worklist):
        """Traced view of a worklist the solver built itself (scan strategies)."""
        if isinstance(worklist, TracedWorklist):
            return worklist
        view = self._views.get(id(worklist))
        if view is None or view._inner is not worklist:
            view = TracedWorklist(worklist, self.tracer)
            self._views[id(worklist)] = view
        return view

    def init_state(self, recorder=None):
        tracer = self.tracer
        trace = tracer.local()
        tracer.mark("init", perf_counter())
        state = tracer.call(trace, "init_state", PROBLEMS, self.inner.init_state, (recorder,))
        state.values = TracedCells(state.values, tracer)
        tracer.mark("drain", perf_counter())
        return state

    def push_initial(self, state, worklist) -> None:
        tracer = self.tracer
        tracer.mark("seed", perf_counter())
        tracer.call(tracer.local(), "push_initial", PROBLEMS, self.inner.push_initial,
                    (state, self._view(worklist)))
        tracer.mark("drain", perf_counter())

    def is_forbidden(self, state, index) -> bool:
        tracer = self.tracer
        trace = tracer.local()
        if trace.stack:
            return tracer.call(trace, "is_forbidden", PROBLEMS, self.inner.is_forbidden,
                               (state, index))
        if trace.caller:
            if tracer.phase == "drain":
                tracer.mark("scan", perf_counter())
            return tracer.call(trace, "scan", PROBLEMS, self.inner.is_forbidden, (state, index))
        found = tracer.call(trace, "is_forbidden", PROBLEMS, self.inner.is_forbidden,
                            (state, index))
        trace.checks += 1
        if found:
            trace.found += 1
        return found

    def advance(self, state, index, worklist) -> bool:
        tracer = self.tracer
        trace = tracer.local()
        ok = tracer.call(trace, "advance", PROBLEMS, self.inner.advance,
                         (state, index, self._view(worklist)))
        if ok:
            trace.advances += 1
        else:
            trace.failed += 1
        return ok

    def ensure(self, state, index, worklist) -> bool:
        tracer = self.tracer
        trace = tracer.local()
        worklist = self._view(worklist)
        if self._default_ensure:
            found = tracer.call(trace, "ensure", PROBLEMS, Problem.ensure,
                                (self, state, index, worklist))
        else:
            before = trace.atomic_success
            found = tracer.call(trace, "ensure", PROBLEMS, self.inner.ensure,
                                (state, index, worklist))
            if found:
                if trace.atomic_success > before:
                    trace.advances += 1
                else:
                    trace.failed += 1
        trace.checks += 1
        if found:
            trace.found += 1
        if trace.popped:
            trace.popped = False
            if found:
                trace.useful_pops += 1
        return found

    def final_solution(self, state):
        tracer = self.tracer
        tracer.mark("extract", perf_counter())
        out = tracer.call(tracer.local(), "final_solution", PROBLEMS,
                          self.inner.final_solution, (state,))
        tracer.mark("done", perf_counter())
        return out
