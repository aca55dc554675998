"""In-memory spans around relupca's calls, made from the benchmark's side.

``instrument(tracer)`` swaps the module-level names that ``relupca.run`` and
the enumerations look up at call time for wrappers that open a span, count
the work, and call the original; on exit every name is restored.  Nothing in
``src/`` changes.  ``_final_search`` and ``_zero_candidates`` are the only
private names wrapped: ``run`` calls them as globals, and the terminal search
has no public entry point.

A span's self time is its duration minus the time its child spans cover.
Spans of whole calls are kept as records; the steps of candidate and grid
iterators (one per yielded item) are only summed, so a scan of millions of
candidates keeps memory flat.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from collections import Counter, defaultdict

from relupca import enumeration, filteredpca

_clock = time.perf_counter
CALIBRATION_REPEATS = 20_000


class Tracer:
    """Span stack, per-name totals and counters, and the recorded spans."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans: list[dict] = []
        self.op = None
        self.in_terminal = False
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0, next(self._ids)])

    def exit(self, record: bool = True) -> None:
        end = _clock()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if record:
            self.spans.append({
                "op": self.op, "id": sid, "parent": parent[3] if parent else None,
                "name": name, "start": start, "end": end,
            })

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def steps(self, name: str, items, counter: str):
        """Yield from items, timing each step as an unrecorded span of ``name``."""
        it = iter(items)
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit(record=False)
            self.counts[counter] += 1
            yield item


def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    return wrapper


def _wrap_candidates(tracer: Tracer, fn):
    """Trace building a CandidateList and every step of iterating it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("enumeration.candidates"):
            cands = fn(*args, **kwargs)
        phase = "terminal" if tracer.in_terminal else "loop"
        if phase == "terminal":
            tracer.counts["terminal_bound"] += cands.count_bound
        for attr in ("factory", "raw_factory"):
            factory = getattr(cands, attr)
            if factory is not None:
                setattr(cands, attr, _traced_factory(tracer, factory, f"{phase}_pulled"))
        return cands

    return wrapper


def _traced_factory(tracer: Tracer, factory, counter: str):
    return lambda: tracer.steps("enumeration.candidates", factory(), counter)


def _wrap_grid(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.steps("subspace.grid", fn(*args, **kwargs), "grid_points")

    return wrapper


def _wrap_terminal(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.in_terminal = True
        try:
            with tracer.span("filteredpca.terminal"):
                return fn(*args, **kwargs)
        finally:
            tracer.in_terminal = False

    return wrapper


def _count_rows(tracer: Tracer, counter: str):
    def after(args, _out):
        x = args[1]
        tracer.counts[counter] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1

    return after


def _count_unconverged(tracer: Tracer):
    def after(_args, out):
        tracer.counts["top_eig_unconverged"] += not out.converged

    return after


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route relupca's internal calls through traced wrappers while active."""
    patches = [
        (filteredpca, "approx_top_svd",
         _wrap_call(tracer, "subspace.top_eig", filteredpca.approx_top_svd, _count_unconverged(tracer))),
        (filteredpca, "_final_search", _wrap_terminal(tracer, filteredpca._final_search)),
        (filteredpca, "estimate_l2_error",
         _wrap_call(tracer, "filteredpca.check", filteredpca.estimate_l2_error)),
        (filteredpca, "evaluate",
         _wrap_call(tracer, "network.evaluate", filteredpca.evaluate, _count_rows(tracer, "evaluate_rows"))),
        (filteredpca, "selector_eval",
         _wrap_call(tracer, "lattice.selector_eval", filteredpca.selector_eval,
                    _count_rows(tracer, "selector_rows"))),
        (filteredpca, "enumerate_networks", _wrap_candidates(tracer, filteredpca.enumerate_networks)),
        (filteredpca, "enumerate_kickers", _wrap_candidates(tracer, filteredpca.enumerate_kickers)),
        (filteredpca, "_zero_candidates", _wrap_candidates(tracer, filteredpca._zero_candidates)),
        (enumeration, "epsilon_net_matrices", _wrap_grid(tracer, enumeration.epsilon_net_matrices)),
        (enumeration, "epsilon_net_ball", _wrap_grid(tracer, enumeration.epsilon_net_ball)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, wrapper in patches:
            setattr(mod, name, wrapper)
        yield tracer
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


def per_event_cost() -> tuple[float, float]:
    """Seconds the tracer adds per wrapped call and per traced iterator step.

    Measured here by timing a no-op through the same wrappers against the
    bare no-op, best of three, so the figure is this machine's own.
    """
    tracer = Tracer()

    def noop(_a, _b):
        return None

    wrapped = _wrap_call(tracer, "calibrate", noop)
    items = range(CALIBRATION_REPEATS)
    best_call = best_step = float("inf")
    for _ in range(3):
        t0 = _clock()
        for i in items:
            noop(i, i)
        t1 = _clock()
        for i in items:
            wrapped(i, i)
        t2 = _clock()
        for _i in iter(items):
            pass
        t3 = _clock()
        for _i in tracer.steps("calibrate", items, "calibrate"):
            pass
        t4 = _clock()
        tracer.spans.clear()
        best_call = min(best_call, ((t2 - t1) - (t1 - t0)) / CALIBRATION_REPEATS)
        best_step = min(best_step, ((t4 - t3) - (t3 - t2)) / CALIBRATION_REPEATS)
    return max(best_call, 0.0), max(best_step, 0.0)
