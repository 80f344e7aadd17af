"""Virtual time for the resilience layer.

Latency, latency spikes, retry backoff, and deadlines are all modelled
on a *virtual* clock: simulated seconds advance a counter instead of
sleeping, so timeout/backoff behaviour is deterministic and a test
exercising a 30-second slow-loris spike still finishes in
milliseconds.  Two pieces cooperate:

* :class:`VirtualClock` — a world-wide monotonic counter owned by the
  :class:`~repro.netsim.network.Network`.  Concurrent callers may
  advance it; the total is a sum of per-request costs, so the final
  reading is deterministic even though interleavings are not.
* :class:`TaskMeter` — per-task cost accounting, installed around one
  task's retry loop.  Tasks run serially within their shard worker, so
  the active meter lives in a ``threading.local`` and never races.
  The meter enforces the *per-attempt* deadline at request granularity
  (a request that busts the budget raises
  :class:`~repro.errors.TimeoutError`); the engine's retry loop reads
  the accumulated cost to enforce the *per-task* deadline.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import TimeoutError

_ACTIVE = threading.local()


class VirtualClock:
    """A monotonic counter of simulated seconds (no real sleeping)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current virtual time in seconds."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Advance virtual time by *seconds* (ignores non-positive)."""
        if seconds <= 0.0:
            return
        with self._lock:
            self._now += seconds

    # ``sleep`` is the drop-in replacement for ``time.sleep`` in
    # simulated code paths: it costs virtual time only.
    sleep = advance


class TaskMeter:
    """Accrues one task's virtual-time cost across its retry attempts."""

    __slots__ = ("cost", "attempt_deadline", "_attempt_start")

    def __init__(self, attempt_deadline: Optional[float] = None) -> None:
        #: Total virtual seconds spent on this task so far.
        self.cost = 0.0
        self.attempt_deadline = attempt_deadline
        self._attempt_start = 0.0

    def begin_attempt(self) -> None:
        """Reset the per-attempt budget (called once per retry attempt)."""
        self._attempt_start = self.cost

    @property
    def attempt_cost(self) -> float:
        """Virtual seconds spent in the current attempt."""
        return self.cost - self._attempt_start

    def charge(self, seconds: float) -> None:
        if seconds > 0.0:
            self.cost += seconds


def current_meter() -> Optional[TaskMeter]:
    """The meter of the task running on this thread, if any."""
    return getattr(_ACTIVE, "meter", None)


class active_meter:
    """Context manager installing *meter* as this thread's task meter."""

    __slots__ = ("_meter", "_previous")

    def __init__(self, meter: TaskMeter) -> None:
        self._meter = meter
        self._previous: Optional[TaskMeter] = None

    def __enter__(self) -> TaskMeter:
        self._previous = current_meter()
        _ACTIVE.meter = self._meter
        return self._meter

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.meter = self._previous


def spend(clock: Optional[VirtualClock], seconds: float) -> None:
    """Charge one request leg's virtual cost and enforce its deadline.

    Advances *clock*, charges the active :class:`TaskMeter` (if a task
    is running), and raises :class:`~repro.errors.TimeoutError` once
    the attempt's accumulated cost exceeds its deadline — the moment a
    real HTTP client would give up on a hung connection.
    """
    if clock is not None:
        clock.advance(seconds)
    meter = current_meter()
    if meter is None:
        return
    meter.charge(seconds)
    deadline = meter.attempt_deadline
    if deadline is not None and meter.attempt_cost > deadline:
        raise TimeoutError(
            f"attempt exceeded its {deadline:g}s virtual deadline"
        )
