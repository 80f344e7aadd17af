"""The reference load, its interleaving, and the progress hook."""

import gc
import signal
import time

import pytest

from perfbench.calibrate import REFERENCE_RATE, Calibrator, reference_slice
from perfbench.workloads import TaskClock


class Ticks:
    """A clock that returns the given instants, one per call."""

    def __init__(self, *ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_reference_slice_is_deterministic():
    assert reference_slice() == reference_slice()


def test_speed_is_the_rate_since_the_mark_over_the_calibration_rate():
    calibrator = Calibrator()
    calibrator.slices, calibrator.seconds = 10, 1.0
    mark = calibrator.mark()
    calibrator.slices, calibrator.seconds = 40, 1.1
    assert calibrator.speed(mark) == pytest.approx(300 / REFERENCE_RATE)
    assert calibrator.speed() == pytest.approx(40 / 1.1 / REFERENCE_RATE)


def test_sample_counts_its_slices_and_restores_the_collector():
    calibrator = Calibrator()
    assert gc.isenabled()
    took = calibrator.sample(3)
    assert gc.isenabled()
    assert calibrator.slices == 3 and calibrator.seconds == took > 0
    gc.disable()
    try:
        calibrator.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_interleaved_slices_are_left_out_of_the_clock():
    calibrator = Calibrator()
    handler = signal.getsignal(signal.SIGALRM)
    wall = time.perf_counter()
    with calibrator.interleaved(every=0.01):
        started = calibrator.clock()
        readings = []
        while time.perf_counter() - wall < 0.3:
            readings.append(calibrator.clock())
        work = calibrator.clock() - started
    wall = time.perf_counter() - wall
    assert calibrator.slices > 0
    assert readings == sorted(readings)
    # Work and slices account for the wall time, up to the few
    # microseconds outside the clock readings.
    assert abs(wall - work - calibrator.seconds) < 0.005
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_task_clock_gaps_are_taken_on_its_clock():
    clock = TaskClock(Ticks(1.0, 1.5, 1.75, 3.0))
    clock.start()
    for _ in range(3):
        clock(None, None, None)
    assert clock.gaps == [0.5, 0.25, 1.25]
    assert clock.ends == [1.5, 1.75, 3.0]


def test_local_speeds_use_the_slices_near_each_instant():
    calibrator = Calibrator()
    calibrator.log = [(0.0, 1, 0.01), (0.4, 1, 0.03), (5.0, 2, 0.04)]
    calibrator.slices, calibrator.seconds = 4, 0.08
    speeds = calibrator.local_speeds([0.1, 0.7, 3.0, 5.2], window=0.5)
    assert speeds == pytest.approx([
        2 / 0.04 / REFERENCE_RATE,  # both slices near 0.1
        1 / 0.03 / REFERENCE_RATE,  # only the one at 0.4
        4 / 0.08 / REFERENCE_RATE,  # none within 0.5 s: all of them
        2 / 0.04 / REFERENCE_RATE,
    ])
