"""A span tracer that times layers from outside the program.

The tracer replaces a layer's entry point (a method on a class or a
function in a module) with a wrapper that opens a span around the call.
Nothing under ``src/`` knows about it: the traced run installs the
wrappers from the benchmark's own files and removes them afterwards.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Spans on one thread nest strictly (a child
starts after its parent and ends before it), so the covered part is the
sum of the direct children's durations; each thread keeps its own span
stack, so spans opened on the distributed coordinator's connection
threads never cover spans of the main thread.

Aggregates (count, total, self) are kept per span name as the spans
close, so memory stays flat however many calls a run makes; only the
first ``keep`` raw spans are retained, for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence


class Tracer:
    """Records nested spans per thread and aggregates them by name."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep: int = 0
    ) -> None:
        self._clock = clock
        self._keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        #: span name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: free-form counters (bytes moved, decisions that blocked, ...)
        self.counters: Dict[str, float] = {}
        #: the first ``keep`` closed spans: (id, parent id, name, start,
        #: end, self seconds, thread name)
        self.spans: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        stack = self._stack()
        parent = stack[-1][3] if stack else 0
        # [name, start, covered-by-children, id, parent id]
        frame = [name, self._clock(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close *frame*: its self time is its duration minus the
        intervals its children covered, and its whole duration counts
        as covered time of its parent."""
        end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, covered, span_id, parent = frame
        duration = end - start
        own = duration - covered
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if len(self.spans) < self._keep:
                self.spans.append((
                    span_id, parent, name, start, end, own,
                    threading.current_thread().name,
                ))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with tracer.span(name):`` — a span around a block."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- reading -------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def drain(self) -> "Tracer":
        """Hand over the aggregates so far and start afresh (the
        wrappers stay installed): the returned tracer is for reading."""
        taken = Tracer()
        with self._lock:
            taken.stats, self.stats = self.stats, {}
            taken.counters, self.counters = self.counters, {}
        return taken

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Optional[Callable[["Tracer", object, tuple], None]] = None,
    ) -> Callable:
        """*fn* inside a span named *name*; *observe* sees each result
        and the positional arguments (after the span closed)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        aliases: Sequence[object] = (),
        observe: Optional[Callable] = None,
    ) -> None:
        """Trace ``owner.attr`` (a class or module attribute).

        *aliases* are further modules that imported the same object by
        name (``from x import f``); each one still bound to the original
        is re-pointed at the wrapper, so calls through that binding are
        traced too.  The defining *owner* must have the attribute: a
        layer entry point that moved is an error, never a silent zero.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner!r} has no attribute {attr!r}")
        wrapper = self.wrap(original, name, observe)
        for target in (owner, *aliases):
            if vars(target).get(attr) is original:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

