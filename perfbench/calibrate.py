"""A fixed reference load that tracks how fast this core runs right now.

The benchmark's host is a shared virtual machine whose cores drift in
speed by 20-50% over seconds to minutes, each on its own, with other
tenants' load; the guest sees no steal time, so process CPU time drifts
with wall time.  A raw timing therefore measures the neighbours as much
as the program.  The benchmark pins a repetition to one core, times a
fixed slice of reference work, from the standard library only,
interleaved with the program's work, and scales every timing by the
ratio of the reference's current speed to :data:`REFERENCE_RATE`, its
speed on the calibration box.  A program change cannot move the
reference, so a real speed-up or slow-down shows in full; drift of the
core moves both and cancels.

The slice resembles the program's own load: HTML tokenising, string
building, dict and set traffic and small-object churn in pure Python.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import random
import signal
import time
from html.parser import HTMLParser
from typing import List, Sequence, Tuple


#: Reference slices per CPU second on the calibration box, a 2-vCPU
#: "Intel(R) Xeon(R) Processor" VM at 2.0 GHz under Python 3.11.7: a
#: round figure near the middle of its drifting speed.
REFERENCE_RATE = 280.0

#: Seconds between interleaved slices (a slice takes a few ms).
INTERLEAVE_S = 0.05

#: Half-width, in seconds, of the window :meth:`Calibrator.local_speeds`
#: measures the speed of a moment over.
LOCAL_WINDOW_S = 0.5


def _document() -> str:
    rng = random.Random(2023)
    words = ["cookie", "consent", "accept", "reject", "pay", "subscribe",
             "privacy", "partner", "vendor", "banner", "wall", "news"]
    parts = ["<html><head><title>reference</title></head><body>"]
    for i in range(60):
        cls = " ".join(rng.sample(words, 3))
        text = " ".join(rng.choice(words) for _ in range(12))
        parts.append(
            f'<div id="d{i}" class="{cls}"><p data-k="{i}">{text}</p>'
            f'<a href="https://{rng.choice(words)}.example/{i}">{text[:20]}'
            f'</a><button class="btn {cls}">{rng.choice(words)}</button></div>'
        )
    parts.append("</body></html>")
    return "".join(parts)


DOCUMENT = _document()


class _Collector(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.nodes: List[dict] = []
        self.text: List[str] = []

    def handle_starttag(self, tag, attrs):
        self.nodes.append({"tag": tag, "attrs": dict(attrs)})

    def handle_data(self, data):
        self.text.append(data.strip().lower())


def reference_slice() -> int:
    """One slice of the reference load; returns a checksum so the work
    cannot be skipped."""
    parser = _Collector()
    parser.feed(DOCUMENT)
    parser.close()
    counts: dict = {}
    classes = set()
    for node in parser.nodes:
        counts[node["tag"]] = counts.get(node["tag"], 0) + 1
        classes.update(node["attrs"].get("class", "").split())
    words = sorted(w for chunk in parser.text for w in chunk.split())
    blob = json.dumps({"counts": counts, "classes": sorted(classes),
                       "words": words[:200]})
    return len(json.loads(blob)["words"]) + len(parser.nodes)


class Calibrator:
    """Times reference slices and keeps their time out of the program's.

    :meth:`sample` runs slices on demand; inside :meth:`interleaved` a
    wall-clock timer also runs one every *every* seconds, on the main
    thread between two of the program's bytecodes, so the slices meet
    the core at the same moments the program does.  A slice is timed in
    the CPU time of its thread: that is its own cost even when another
    process shares the core meanwhile, and it is the time it took from
    the program.  :meth:`clock` is ``time.perf_counter`` less that time
    of every slice so far: time the program's work with it.
    :meth:`speed` rescales the work timed since a :meth:`mark`.
    """

    def __init__(self) -> None:
        self.slices = 0
        #: CPU seconds of all slices, which :meth:`clock` leaves out.
        self.seconds = 0.0
        #: (clock reading when it started, slices, seconds) per sample.
        self.log: List[Tuple[float, int, float]] = []
        reference_slice()  # warm-up: first-call costs are not speed

    def clock(self) -> float:
        while True:
            seconds = self.seconds
            now = time.perf_counter()
            if seconds == self.seconds:  # no slice ran in between
                return now - seconds

    def sample(self, slices: int = 1) -> float:
        """Run *slices* reference slices; the CPU seconds they took.

        The cyclic collector is off meanwhile (the slice frees all it
        allocates by reference counting), so that the program's heap,
        which a collection would traverse, cannot change the reference.
        """
        at = self.clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.thread_time()
            for _ in range(slices):
                reference_slice()
            took = time.thread_time() - started
        finally:
            if collecting:
                gc.enable()
        self.log.append((at, slices, took))
        self.slices += slices
        self.seconds += took
        return took

    @contextlib.contextmanager
    def interleaved(self, every: float = INTERLEAVE_S):
        """Run one slice every *every* seconds of wall time meanwhile.

        The slices measure the core this process runs on; pin the
        process, and any it starts to do the work, to one core.
        """
        previous = signal.signal(
            signal.SIGALRM, lambda sig, frame: self.sample()
        )
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> Tuple[int, float]:
        return self.slices, self.seconds

    def speed(self, since: Tuple[int, float] = (0, 0.0)) -> float:
        """This box's speed over the slices run since the mark *since*,
        relative to the calibration box: a duration times the speed is
        what it would have taken there."""
        slices, seconds = self.slices - since[0], self.seconds - since[1]
        return slices / seconds / REFERENCE_RATE

    def local_speeds(
        self, instants: Sequence[float], window: float = LOCAL_WINDOW_S
    ) -> List[float]:
        """The speed around each clock reading in *instants*: over the
        slices that started within *window* seconds of it (or over all,
        if none did).  A pass long enough for the host to drift during
        it rescales each task by the speed of its own moment."""
        starts = [at for at, _, _ in self.log]
        slices, seconds = [0], [0.0]
        for _, count, took in self.log:
            slices.append(slices[-1] + count)
            seconds.append(seconds[-1] + took)
        speeds = []
        for instant in instants:
            low = bisect.bisect_left(starts, instant - window)
            high = bisect.bisect_right(starts, instant + window)
            if high > low:
                count = slices[high] - slices[low]
                took = seconds[high] - seconds[low]
                speeds.append(count / took / REFERENCE_RATE)
            else:
                speeds.append(self.speed())
        return speeds
