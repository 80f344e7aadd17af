"""Benchmarks for the measurement pipeline itself (crawl throughput)."""

import json
import os
import time

from conftest import BENCH_SCALE, BENCH_SEED, OUTPUT_DIR, run_once, write_artifact

from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlEngine, shard_of
from repro.webgen import build_world
from tests.support.faults import FaultInjectingExecutor

#: Simulated per-request RTT for the parallel-engine benchmark.  Real
#: crawls are network-bound; the netsim is compute-bound unless this is
#: set, so the serial-vs-parallel comparison models the regime where a
#: parallel crawler actually earns its keep.
_BENCH_LATENCY = 0.002
_PARALLEL_WORKERS = 4
_SAMPLE_SIZE = 200

#: CI gate: on a multi-core box the process executor must beat the
#: serial executor by at least this factor on the compute-bound world.
_PROCESS_SPEEDUP_FLOOR = 1.1
#: Tasks in the compute-bound executor benchmark — enough that the
#: process pool's startup cost is noise against the crawl itself.
_EXECUTOR_SAMPLE = 1000


def test_world_build(benchmark):
    """Time the full synthetic-web construction."""
    world = run_once(benchmark, lambda: build_world(scale=BENCH_SCALE, seed=BENCH_SEED))
    assert len(world.crawl_targets) > 0


def test_visit_and_detect_throughput(benchmark, bench_world):
    """Detection-visit throughput over a 200-site sample (hot path)."""
    crawler = Crawler(bench_world)
    sample = bench_world.crawl_targets[:200]

    def sweep():
        return [crawler.visit("DE", domain) for domain in sample]

    records = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    assert len(records) == len(sample)


def test_full_detection_crawl(benchmark, bench_context):
    """The 8-VP crawl of the whole target union (the paper's §3 crawl).

    The shared fixture caches it, so this times the already-computed
    product on re-runs; on the first run it performs the real crawl.
    """
    crawl = run_once(benchmark, bench_context.detection_crawl)
    write_artifact(
        "crawl_summary",
        f"records: {len(crawl)}\n"
        f"unique cookiewall domains: {len(crawl.cookiewall_domains())}",
    )
    assert len(crawl.cookiewall_domains()) > 0


def test_parallel_crawl_speedup(benchmark):
    """Serial vs sharded-parallel engine throughput (visits/sec).

    Uses a small dedicated world with simulated network latency (the
    network-bound regime of real crawls) so the comparison is stable
    regardless of ``REPRO_BENCH_SCALE``.  The artifact records both
    rates and the speedup so future PRs can track regressions.
    """
    world = build_world(scale=0.05, seed=BENCH_SEED)
    world.network.latency = _BENCH_LATENCY
    # Wall-clock benchmark: pay the latency in real sleeps (the engine
    # default is the deterministic virtual clock, which never blocks).
    world.network.latency_mode = "real"
    crawler = Crawler(world)
    sample = world.crawl_targets[:_SAMPLE_SIZE]

    started = time.perf_counter()
    serial_records = crawler.crawl_vp("DE", sample, workers=1)
    serial_elapsed = time.perf_counter() - started
    serial_rate = len(serial_records) / serial_elapsed

    def parallel_sweep():
        return crawler.crawl_vp("DE", sample, workers=_PARALLEL_WORKERS)

    parallel_records = benchmark.pedantic(
        parallel_sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    parallel_elapsed = benchmark.stats.stats.total
    parallel_rate = len(parallel_records) / parallel_elapsed
    world.network.latency = 0.0

    speedup = parallel_rate / serial_rate
    write_artifact(
        "parallel_speedup",
        f"sample: {len(sample)} sites, latency {_BENCH_LATENCY * 1000:.0f}ms/request\n"
        f"serial (workers=1): {serial_rate:.1f} visits/sec\n"
        f"parallel (workers={_PARALLEL_WORKERS}): {parallel_rate:.1f} visits/sec\n"
        f"speedup: {speedup:.2f}x",
    )
    assert [r.to_dict() for r in parallel_records] == [
        r.to_dict() for r in serial_records
    ]
    # The 2x floor is this PR's acceptance criterion; the 2ms-latency
    # regime leaves ~1.7x of headroom over it on a single busy core.
    assert speedup >= 2.0


def test_executor_backend_speedup(benchmark):
    """Serial vs process executor on a **compute-bound** world.

    The netsim at zero latency is pure Python compute, which only
    worker processes parallelise.  Writes
    ``benchmarks/output/BENCH_executors.json`` (serial/process
    tasks-per-sec, the process-vs-serial ratio, and the gated floor)
    and asserts the floor whenever the machine has the cores to
    parallelise at all; the records must be identical across backends
    regardless.
    """
    world = build_world(scale=0.05, seed=BENCH_SEED)
    assert world.network.latency == 0.0  # compute-bound by construction
    crawler = Crawler(world)
    sample = world.crawl_targets[:_EXECUTOR_SAMPLE]
    plan = crawler.plan_detection_crawl(["DE"], sample)

    # Warm the module-wide parse/filter caches once so the serial leg
    # (which runs first) is not unfairly charged for populating them;
    # forked process workers inherit the warm caches.
    CrawlEngine(crawler).execute(plan)

    def timed(backend, workers):
        engine = CrawlEngine(
            crawler, workers=workers, backend=backend,
            shards=_PARALLEL_WORKERS * 2,
        )
        started = time.perf_counter()
        result = engine.execute(plan)
        elapsed = time.perf_counter() - started
        return result, len(plan) / elapsed

    serial_result, serial_rate = timed("serial", 1)

    def process_run():
        return timed("process", _PARALLEL_WORKERS)

    process_result, process_rate = benchmark.pedantic(
        process_run, rounds=1, iterations=1, warmup_rounds=0
    )

    # Determinism across backends (detection records are id-agnostic,
    # so the serial run matches the per-task-id process run too).
    baseline = [r.to_dict() for r in serial_result.records]
    assert [r.to_dict() for r in process_result.records] == baseline

    speedup = process_rate / serial_rate
    cpus = os.cpu_count() or 1
    payload = {
        "meta": {
            "world_scale": 0.05,
            "seed": BENCH_SEED,
            "tasks": len(plan),
            "workers": _PARALLEL_WORKERS,
            "cpus": cpus,
        },
        "compute_bound": {
            "serial_tasks_per_sec": round(serial_rate, 1),
            "process_tasks_per_sec": round(process_rate, 1),
            "process_vs_serial": round(speedup, 3),
            "floor": _PROCESS_SPEEDUP_FLOOR,
            "floor_enforced": cpus >= 2,
        },
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "BENCH_executors.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    write_artifact(
        "executor_speedup",
        f"compute-bound sample: {len(plan)} tasks, "
        f"{_PARALLEL_WORKERS} workers, {cpus} cpus\n"
        f"serial:  {serial_rate:.1f} tasks/sec\n"
        f"process: {process_rate:.1f} tasks/sec\n"
        f"process vs serial: {speedup:.2f}x (floor "
        f"{_PROCESS_SPEEDUP_FLOOR}x, "
        f"{'enforced' if cpus >= 2 else 'not enforced: single cpu'})",
    )
    # A single-CPU box cannot parallelise anything — record the
    # numbers but only gate where the comparison is physically
    # meaningful (CI runners are multi-core).
    if cpus >= 2:
        assert speedup >= _PROCESS_SPEEDUP_FLOOR, (
            f"process executor no faster than serial on a compute-bound "
            f"world: {speedup:.2f}x < {_PROCESS_SPEEDUP_FLOOR}x"
        )


def test_checkpoint_resume_speedup(benchmark, tmp_path):
    """Crash at ~half the crawl, resume, and time the second leg.

    A fault-injecting executor kills half the shards after the other
    half checkpointed; the resumed run replays those outcomes instead
    of re-crawling, so in the latency-bound regime the second leg
    should take roughly half the uninterrupted run's time.  The
    artifact tracks the replay fraction and the resume speedup.
    """
    world = build_world(scale=0.05, seed=BENCH_SEED)
    world.network.latency = _BENCH_LATENCY
    # Wall-clock benchmark: real sleeps, as in test_parallel_crawl_speedup.
    world.network.latency_mode = "real"
    crawler = Crawler(world)
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    plan = crawler.plan_detection_crawl(["DE"], sample)
    shards = _PARALLEL_WORKERS * 2
    victims = {s for s in range(shards) if s % 2}
    out = tmp_path / "crawl.jsonl"
    checkpoint = tmp_path / "crawl.jsonl.checkpoint"

    # Reference: the uninterrupted checkpointed run.
    started = time.perf_counter()
    CrawlEngine(
        crawler, workers=_PARALLEL_WORKERS, shards=shards,
        spool_path=out, checkpoint_path=checkpoint,
    ).execute(plan)
    full_elapsed = time.perf_counter() - started
    full_bytes = out.read_bytes()

    # Crash at ~half: the surviving shards' outcomes stay checkpointed.
    crashed = CrawlEngine(
        crawler, workers=_PARALLEL_WORKERS, shards=shards,
        spool_path=out, checkpoint_path=checkpoint,
        executor=FaultInjectingExecutor(victims),
    )
    try:
        crashed.execute(plan)
        raise AssertionError("fault injection did not fire")
    except RuntimeError:
        pass

    def resume_run():
        return CrawlEngine(
            crawler, workers=_PARALLEL_WORKERS, shards=shards,
            spool_path=out, checkpoint_path=checkpoint, resume=True,
        ).execute(plan)

    result = benchmark.pedantic(resume_run, rounds=1, iterations=1,
                                warmup_rounds=0)
    resume_elapsed = benchmark.stats.stats.total
    world.network.latency = 0.0

    replayed = result.resumed / len(plan)
    speedup = full_elapsed / resume_elapsed if resume_elapsed else 0.0
    write_artifact(
        "resume_speedup",
        f"sample: {len(sample)} sites, latency "
        f"{_BENCH_LATENCY * 1000:.0f}ms/request, "
        f"{shards} shards ({len(victims)} killed mid-run)\n"
        f"uninterrupted run: {full_elapsed:.2f}s\n"
        f"resumed run:       {resume_elapsed:.2f}s "
        f"({result.resumed}/{len(plan)} outcomes replayed, "
        f"{replayed * 100:.0f}%)\n"
        f"resume speedup:    {speedup:.2f}x",
    )
    # The resumed output is byte-identical to the uninterrupted run's,
    # and a meaningful share of the plan was replayed, not re-crawled.
    assert out.read_bytes() == full_bytes
    assert result.resumed > 0
    expected = sum(
        1 for domain in sample if shard_of(domain, shards) not in victims
    )
    assert result.resumed == expected
