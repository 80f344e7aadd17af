"""The span tracer: self-time arithmetic, threads, patching."""

import threading
import time
import types

import pytest

from perfbench import layers
from perfbench.tracer import Tracer


class Ticks:
    """A clock that returns the given instants, one per call."""

    def __init__(self, *ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_self_time_is_duration_minus_covered_child_intervals():
    # a: [0, 10] holds b: [1, 3] and c: [4, 8]; c holds d: [5, 6].
    tracer = Tracer(clock=Ticks(0, 1, 3, 4, 5, 6, 8, 10))
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    c = tracer.enter("c")
    d = tracer.enter("d")
    tracer.exit(d)
    tracer.exit(c)
    tracer.exit(a)
    assert tracer.total("a") == 10
    assert tracer.self_time("a") == 10 - (3 - 1) - (8 - 4)
    assert tracer.self_time("c") == (8 - 4) - (6 - 5)
    assert tracer.self_time("b") == 2
    assert tracer.self_time("d") == 1
    # Self times partition the root interval exactly.
    assert sum(tracer.self_time(n) for n in "abcd") == tracer.total("a")


def test_same_name_spans_aggregate_and_nest():
    # An outer "x" [0, 6] with an inner "x" [1, 3]: two calls, total
    # counts both intervals, self counts each instant once.
    tracer = Tracer(clock=Ticks(0, 1, 3, 6))
    outer = tracer.enter("x")
    inner = tracer.enter("x")
    tracer.exit(inner)
    tracer.exit(outer)
    assert tracer.calls("x") == 2
    assert tracer.total("x") == 6 + 2
    assert tracer.self_time("x") == 6


def test_spans_on_another_thread_cover_nothing_here():
    tracer = Tracer()

    def other():
        with tracer.span("other"):
            time.sleep(0.01)

    with tracer.span("main"):
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert tracer.calls("other") == 1
    assert tracer.self_time("main") == tracer.total("main")


def test_out_of_order_close_is_an_error():
    tracer = Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_kept_spans_record_parents():
    tracer = Tracer(clock=Ticks(0, 1, 2, 3), keep=10)
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    child, parent = tracer.spans
    assert child[2] == "child" and parent[2] == "parent"
    assert child[1] == parent[0] and parent[1] == 0


def test_drain_hands_over_and_resets():
    tracer = Tracer()
    with tracer.span("a"):
        tracer.count("bytes", 5)
    taken = tracer.drain()
    assert taken.calls("a") == 1 and taken.counter("bytes") == 5
    assert tracer.calls("a") == 0 and tracer.counter("bytes") == 0


def test_patch_follows_aliases_and_restore_undoes_it():
    def work(x):
        return x * 2

    home = types.ModuleType("home")
    home.work = work
    importer = types.ModuleType("importer")
    importer.work = work
    other = types.ModuleType("other")
    other.work = lambda x: x  # a different object: left alone

    class Base:
        def method(self):
            return "base"

    tracer = Tracer()
    tracer.patch(home, "work", "work", aliases=[importer, other],
                 observe=lambda t, result, args: t.count("seen", result))
    tracer.patch(Base, "method", "method")
    assert home.work(2) == 4 and importer.work(3) == 6 and other.work(1) == 1
    assert Base().method() == "base"
    assert tracer.calls("work") == 2 and tracer.counter("seen") == 10
    assert tracer.calls("method") == 1
    tracer.restore()
    assert home.work is work and importer.work is work
    assert "method" in vars(Base) and Base.method.__name__ == "method"
    assert Base().method() == "base" and tracer.calls("method") == 1


def test_patch_refuses_a_missing_entry_point():
    with pytest.raises(AttributeError):
        Tracer().patch(types.ModuleType("empty"), "gone", "gone")


def test_every_layer_entry_point_resolves_and_is_restored():
    from repro.netsim.network import Network
    from repro.soup import cache

    fetch, parse = Network.fetch, cache.parse_document
    tracer = Tracer()
    layers.install(tracer)  # raises if any entry point moved
    try:
        assert Network.fetch is not fetch
        assert cache.parse_document is not parse
    finally:
        tracer.restore()
    assert Network.fetch is fetch and cache.parse_document is parse
