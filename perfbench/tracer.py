"""Outside-in layer tracer: times calls into each layer's public entry points.

The tracer never edits the program.  :meth:`Tracer.install` replaces each
entry point named in a layer table with a timing wrapper — at class level
for methods (every class of a hierarchy that defines the method in its own
``__dict__``, so identity checks such as ``type(p).on_cycle is
PathConfidencePredictor.on_cycle`` keep their answers), at module level for
functions and at registry level for the experiment executors.
:meth:`Tracer.uninstall` puts every original back.

Accounting
----------
A call stack of frames ``[layer, entry name, child time]`` sits under one
root frame (the benchmark itself).  When a wrapped call returns, its
duration is added to its parent's child time, and the counters of the
``(layer, parent layer)`` cell grow by one call, the duration and the self
time (duration minus children).  Per-branch entry points run 10^5-10^6
times per job, so they aggregate in memory; only coarse entry points
(``span=...``: job, build, session run, shard, merge) also record one span
each, with a parent span id and the shared job id.

A call that re-enters the *same entry name of the same layer* — the path
confidence composite fanning ``on_cycle`` out to its members — passes
straight through: the outer call already covers it, so no entry point is
counted twice.  A different entry of the same layer (``ResultCache.get``
inside ``SweepRunner.map``) is a new frame.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: A counter hook: ``hook(tracer, args, kwargs, result)`` after a counted
#: (outermost) call returns normally.
Counter = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One entry point: ``getattr(owner, attr)``, or ``owner[attr]`` for a
    registry dict."""

    owner: Any
    attr: str
    label: str
    counter: Optional[Counter] = None
    span: Optional[str] = None


@dataclass(frozen=True)
class Layer:
    """A named layer and a function listing its entry points.

    ``targets`` is called at install time, after every module it names has
    been imported, so subclasses defined anywhere are found.
    """

    name: str
    targets: Callable[[], List[Target]]
    counts: Tuple[str, ...] = ()


def methods(base: type, names: Sequence[str],
            counters: Optional[Dict[str, Counter]] = None,
            span: Optional[str] = None) -> List[Target]:
    """Targets for ``names`` on ``base`` and every subclass defining them."""
    counters = counters or {}
    seen: List[type] = []
    pending = [base]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.append(klass)
        pending.extend(klass.__subclasses__())
    targets = []
    for klass in seen:
        for name in names:
            if callable(vars(klass).get(name)):
                targets.append(Target(klass, name, f"{klass.__name__}.{name}",
                                      counters.get(name), span))
    return targets


class Tracer:
    """Aggregating tracer over a layer table (see the module docstring)."""

    def __init__(self, layers: Sequence[Layer],
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = list(layers)
        self._clock = clock
        self.names = [layer.name for layer in self.layers]
        self.root = len(self.layers)            # the benchmark's own frame
        self._stride = self.root + 1
        #: ``cells[layer * stride + parent] = [calls, total_s, self_s]``.
        self.cells = [[0, 0.0, 0.0] for _ in range(self._stride ** 2)]
        self.counts: Dict[str, int] = {
            f"{layer.name}.{count}": 0
            for layer in self.layers for count in layer.counts}
        #: Entry label -> [layer index, calls, total_s, self_s].
        self.entries: Dict[str, List[Any]] = {}
        self.spans: List[Tuple[int, Optional[int], Optional[int], str,
                               float, float]] = []
        #: Objects (simulation sessions) whose final statistics a layer
        #: folds into its counts when the enclosing job span ends.
        self.job_objects: Dict[int, Any] = {}
        self.job_end_hooks: List[Callable[["Tracer"], None]] = []
        self._stack: List[list] = [[self.root, "", 0.0]]
        self._span_stack: List[Tuple[int, Optional[int]]] = []
        self._next_span = 0
        self._next_job = 0
        self._restore: List[Callable[[], None]] = []
        self._origin = clock()

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for index, layer in enumerate(self.layers):
            for target in layer.targets():
                self._patch(index, target)
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._end_job()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, layer: int, target: Target) -> None:
        owner, attr = target.owner, target.attr
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(original, layer, target)

            def restore(owner=owner, attr=attr, original=original) -> None:
                owner[attr] = original
        else:
            original = vars(owner)[attr]
            if not callable(original):
                raise TypeError(f"{target.label} is not a plain function")
            setattr(owner, attr, self._wrap(original, layer, target))

            def restore(owner=owner, attr=attr, original=original) -> None:
                setattr(owner, attr, original)
        self._restore.append(restore)

    # ------------------------------------------------------------------ #
    # the wrapper
    # ------------------------------------------------------------------ #

    def _wrap(self, fn: Callable, layer: int, target: Target) -> Callable:
        stack = self._stack
        cells = self.cells
        stride = self._stride
        perf = self._clock
        name = target.attr
        entry = self.entries.setdefault(target.label, [layer, 0, 0.0, 0.0])
        counter = target.counter
        span = target.span
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer and top[1] == name:
                return fn(*args, **kwargs)
            frame = [layer, name, 0.0]
            stack.append(frame)
            if span is not None:
                tracer._open_span(span)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                top[2] += elapsed
                cell = cells[layer * stride + top[0]]
                own = elapsed - frame[2]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += own
                entry[1] += 1
                entry[2] += elapsed
                entry[3] += own
                if span is not None:
                    tracer._close_span(span, start, end)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def _open_span(self, name: str) -> None:
        if name == "job":
            self._next_job += 1
            job = self._next_job
        else:
            job = self._span_stack[-1][1] if self._span_stack else None
        self._span_stack.append((self._next_span, job))
        self._next_span += 1

    def _close_span(self, name: str, start: float, end: float) -> None:
        span_id, job = self._span_stack.pop()
        parent = self._span_stack[-1][0] if self._span_stack else None
        self.spans.append((span_id, parent, job, name,
                           start - self._origin, end - self._origin))
        if name == "job":
            self._end_job()

    def _end_job(self) -> None:
        for hook in self.job_end_hooks:
            hook(self)
        self.job_objects.clear()

    # ------------------------------------------------------------------ #
    # reading the aggregates
    # ------------------------------------------------------------------ #

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: counted calls, total time and self time (seconds)."""
        totals = {}
        for index, name in enumerate(self.names):
            calls = total = self_s = 0.0
            for parent in range(self._stride):
                cell = self.cells[index * self._stride + parent]
                calls += cell[0]
                total += cell[1]
                self_s += cell[2]
            totals[name] = {"calls": int(calls), "total_s": total,
                            "self_s": self_s}
        return totals

    def root_child_s(self) -> float:
        """Time spent inside any layer, seen from the benchmark's frame."""
        return self._stack[0][2]

    def entry_time(self, labels: Sequence[str], own: bool = False) -> float:
        """Summed total (or, with ``own``, self) time of some entries."""
        column = 3 if own else 2
        return sum(self.entries[label][column] for label in labels
                   if label in self.entries)

    def entry_calls(self, labels: Sequence[str]) -> int:
        return sum(self.entries[label][1] for label in labels
                   if label in self.entries)

    def parent_cells(self) -> List[Dict[str, Any]]:
        """Every non-empty ``(layer, parent)`` cell, for the trace file."""
        names = self.names + ["benchmark"]
        rows = []
        for index in range(self.root):
            for parent in range(self._stride):
                calls, total, self_s = self.cells[index * self._stride + parent]
                if calls:
                    rows.append({"layer": names[index], "parent": names[parent],
                                 "calls": calls, "total_s": total,
                                 "self_s": self_s})
        return rows
