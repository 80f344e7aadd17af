"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per timed repetition, because the
parsed-document cache is process-global and peak RSS only ever grows:
a repetition that inherited either would measure its predecessors.

    python3 perfbench/rep.py --workload detect-hot --seed 1 \\
        --workdir .perfbench/scratch [--trace]

The repetition pins itself to one core and rescales its timings by a
reference load interleaved with the work (``calibrate.py``).  The last
line of standard output is one JSON object: the end-to-end figures of
the repetition (with the unscaled ones under ``raw``), whether its
outputs passed the check, and, with ``--trace``, the per-layer metrics
and the first traced spans.
The exit code is 1 when the output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Raw spans a traced repetition keeps for the trace file.
TRACE_KEEP = 2000

#: Reference slices timed on each side of a phase, so that even a
#: short one has some.
EDGE_SLICES = 2


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (*q* in (0, 100]) of *values*."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def peak_rss_mb() -> float:
    """Largest resident set of this process and its finished children
    (the distributed workers), in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class ShardFiles(list):
    """Stands in for ``EventLog.events``: after every finished shard it
    records the size of each spool part and checkpoint file, which the
    engine deletes once the run completes."""

    def __init__(self, out_dir: Path) -> None:
        super().__init__()
        self.out_dir = out_dir
        self.sizes: Dict[str, int] = {}

    def append(self, event) -> None:
        if event.kind != "shard":
            return
        for path in self.out_dir.iterdir():
            if path.suffix in (".part", ".checkpoint"):
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    continue
                self.sizes[path.name] = max(size, self.sizes.get(path.name, 0))

    def totals(self) -> Dict[str, int]:
        spool = sum(p.stat().st_size for p in self.out_dir.glob("wave-*.jsonl"))
        spool += sum(s for n, s in self.sizes.items() if n.endswith(".part"))
        checkpoint = sum(
            s for n, s in self.sizes.items() if n.endswith(".checkpoint")
        )
        return {"spool": spool, "checkpoint": checkpoint}


def main(argv: List[str]) -> int:
    from perfbench import golden
    from perfbench.calibrate import Calibrator
    from perfbench.layers import install, layer_metrics
    from perfbench.tracer import Tracer
    from perfbench.workloads import (
        FULL_LIST_RULES, WORKLOADS, WORLD_SEED, TaskClock, make_inputs,
        run_pass,
    )
    from repro.adblock import UBlockOrigin
    from repro.adblock.lists import synthetic_full_list
    from repro.measure.instrumentation import EventLog
    from repro.soup.cache import shared_document_cache as cache
    from repro.webgen.world import build_world

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    campaign = workload.name == "campaign-dist"

    # One core for the repetition and the worker processes it starts:
    # the cores of a shared VM drift in speed independently, and the
    # reference slices must meet the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Every time below is taken on the calibrator's clock, which leaves
    # out the reference slices interleaved with the work, and rescaled
    # to the calibration box's speed (``calibrate.py``).
    calibrator = Calibrator()
    tracer = None
    if args.trace:
        tracer = Tracer(clock=calibrator.clock, keep=TRACE_KEEP)
        install(tracer)
    span = tracer.span if tracer is not None else (
        lambda name: contextlib.nullcontext()
    )

    # The filter-list text is benchmark input; compiling it is set-up.
    ublock_lists = (
        [synthetic_full_list(FULL_LIST_RULES)]
        if workload.name == "measure-mix" else []
    )

    def set_up():
        """The world, and the set-up's seconds unscaled and rescaled."""
        mark = calibrator.mark()
        calibrator.sample(EDGE_SLICES)
        with calibrator.interleaved():
            started = calibrator.clock()
            with span("webgen.build"):
                world = build_world(scale=workload.scale, seed=WORLD_SEED)
            if ublock_lists:
                # Fills the module-wide parsed-list and compiled-index
                # caches every per-visit uBlock instance then reuses.
                UBlockOrigin(annoyances=True, extra_lists=ublock_lists)
            seconds = calibrator.clock() - started
        calibrator.sample(EDGE_SLICES)
        return world, seconds, seconds * calibrator.speed(mark)

    world, raw_setup_s, setup_s = set_up()
    setup = tracer.drain() if tracer is not None else None

    inputs = make_inputs(workload, args.seed, world)
    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    problems: List[str] = []
    attempted = failed = 0

    def execute(**kwargs):
        nonlocal attempted, failed
        mark = calibrator.mark()
        calibrator.sample(EDGE_SLICES)
        clock = TaskClock(calibrator.clock)
        with calibrator.interleaved():
            result = run_pass(
                workload, inputs, world, ublock_lists=ublock_lists,
                progress=clock, **kwargs
            )
        calibrator.sample(EDGE_SLICES)
        problems.extend(golden.check(workload, inputs, world, result))
        attempted += result.tasks
        failed += result.failed
        return result, clock, calibrator.speed(mark)

    out_dir = args.workdir / "run"
    out_dir.mkdir()
    event_log = None
    if tracer is not None and campaign:
        event_log = EventLog()
        event_log.events = ShardFiles(out_dir)
    before = (cache.hits, cache.misses)
    result, clock, speed = execute(workdir=out_dir, event_log=event_log)
    if campaign:
        # The coordinator absorbs a shard's records in one burst, so the
        # gaps between its progress calls time the hook, not a task:
        # a task's latency is the time from submitting the campaign
        # until its record arrived.
        latencies = [(end - clock.started) * speed for end in clock.ends]
    else:
        # A task's service time, at the speed of its own moment.
        latencies = [
            gap * local
            for gap, local in zip(clock.gaps, calibrator.local_speeds(clock.ends))
        ]
    # Read before the traced replay below can grow the process.
    timed = {
        "tasks": result.tasks,
        "tasks_per_s": result.tasks / result.elapsed / speed,
        "task_latency_ms": [latency * 1e3 for latency in latencies],
        "peak_rss_mb": peak_rss_mb(),
        "raw": {"tasks_per_s": result.tasks / result.elapsed, "speed": speed},
    }
    hits, misses = cache.hits - before[0], cache.misses - before[1]
    setups = [(raw_setup_s, setup_s)]
    if tracer is None and workload.setups > 1:
        # Where one repetition fills a run, set up again for a median,
        # with the pass's world and parsed documents dropped first.
        world = result = None
        cache.clear()
        gc.collect()
        setups += [set_up()[1:] for _ in range(workload.setups - 1)]
    timed["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
    timed["setup_s"] = statistics.median(scaled for _, scaled in setups)
    if tracer is not None:
        coordinator = visits = tracer.drain()
        if campaign:
            # The campaign's visits ran in worker processes; a traced
            # serial replay of the same plan times the layers they use.
            before = (cache.hits, cache.misses)
            execute(workdir=args.workdir / "serial", executor="serial")
            visits = tracer.drain()
            hits, misses = cache.hits - before[0], cache.misses - before[1]
        tracer.restore()
    report = {
        "ok": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        **timed,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(
            setup, visits, coordinator,
            tasks=result.tasks, records=result.records,
            cache_hits=hits, cache_misses=misses,
            files=event_log.events.totals() if event_log is not None else {},
        )
        report["spans"] = {
            "setup": setup.stats, "visits": visits.stats,
            "coordinator": coordinator.stats, "first": tracer.spans,
        }
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
