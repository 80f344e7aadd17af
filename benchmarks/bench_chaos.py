"""Chaos-plane benchmarks: idle overhead + recovery throughput.

Two gates, both written to ``benchmarks/output/BENCH_chaos.json`` for
the CI floor check:

* **Idle overhead** — a seeded chaos spec with every rate at zero
  installs the plane but never injects; ``ChaosEngine.idle``
  short-circuits per request, so the crawl must cost within a few
  percent of the chaos-free run.  Both sides run the process backend
  (the per-task visit-id regime chaos forces anyway), so the ratio
  isolates the plane itself.
* **Recovery throughput** — visits/sec under the pinned recoverable
  regime with a generous retry budget: every fault retries into a
  clean record (the differential oracle's happy half), and the floor
  keeps the retry/backoff machinery from quietly becoming the
  bottleneck.
"""

import json
import os
import statistics
import time

from conftest import BENCH_SEED, OUTPUT_DIR, run_once, write_artifact

from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlEngine, RetryPolicy
from repro.resilience.chaos import ChaosSpec
from repro.webgen import build_world

#: CI gate: idle-chaos crawl time over chaos-free crawl time.
_IDLE_RATIO_CEILING = 1.05
#: CI gate: visits/sec under the recoverable regime (local runs
#: sustain hundreds — the floor leaves ~10x for slow runners).
_RECOVERY_FLOOR_VISITS_PER_SEC = 30

_WORKERS = 2
_SHARDS = 8
_SAMPLE_SIZE = 160
#: Baseline/idle pairs timed by the idle-overhead gate.
_ROUNDS = 16

#: The pinned recoverable regime (mirrors tests/test_chaos.py).
_RECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, disconnect_rate=0.03,
    truncate_rate=0.02,
)
_IDLE = ChaosSpec(seed=99)


def _update_payload(section: str, data: dict) -> None:
    """Merge one section into BENCH_chaos.json (tests run in file
    order under ``-x``; the CI gate reads the file after both)."""
    out = OUTPUT_DIR / "BENCH_chaos.json"
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload[section] = data
    payload.setdefault("meta", {})["cpus"] = os.cpu_count() or 1
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _bench_world():
    world = build_world(scale=0.05, seed=BENCH_SEED)
    return world, Crawler(world)


def _timed_run(crawler, sample, chaos=None, retry=None):
    plan = crawler.plan_detection_crawl(["DE"], sample)
    if chaos is not None:
        plan.context["chaos"] = chaos.to_context()
    engine = CrawlEngine(
        crawler, workers=_WORKERS, shards=_SHARDS, backend="process",
        retry=retry or RetryPolicy(),
    )
    started = time.perf_counter()
    result = engine.execute(plan)
    elapsed = time.perf_counter() - started
    assert result.record_count == len(plan)
    return result, elapsed


def test_idle_chaos_overhead():
    """An installed-but-quiet chaos plane must cost ~nothing.

    The two sides run in adjacent pairs, alternating which goes first
    (a run right after another starts slower, while the previous
    worker pool winds down), and the gate reads the median of the
    per-pair ratios: pairing cancels the machine's speed drift, and the
    median ignores the odd pair hit by process start-up jitter.  The
    idle path is a single attribute check per request, so the true
    ratio is ~1."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    _timed_run(crawler, sample)  # warmup: caches, lazy imports

    pairs = []
    for round_ in range(_ROUNDS):
        order = (None, _IDLE) if round_ % 2 == 0 else (_IDLE, None)
        seconds = {
            chaos: _timed_run(crawler, sample, chaos=chaos)[1]
            for chaos in order
        }
        pairs.append((seconds[None], seconds[_IDLE]))
    baseline = statistics.median(base for base, _ in pairs)
    idle = statistics.median(quiet for _, quiet in pairs)
    ratio = statistics.median(quiet / base for base, quiet in pairs)
    _update_payload("idle", {
        "baseline_sec": round(baseline, 4),
        "idle_sec": round(idle, 4),
        "ratio": round(ratio, 4),
        "ratio_ceiling": _IDLE_RATIO_CEILING,
        "visits": _SAMPLE_SIZE,
    })
    write_artifact(
        "chaos_idle_overhead",
        f"sample: {_SAMPLE_SIZE} visits, workers={_WORKERS}\n"
        f"chaos-free: {baseline:.3f}s\n"
        f"idle chaos plane: {idle:.3f}s\n"
        f"overhead: {ratio:.3f}x (ceiling {_IDLE_RATIO_CEILING}x)",
    )
    assert ratio <= _IDLE_RATIO_CEILING


def test_recovery_throughput(benchmark):
    """Visits/sec while the recoverable regime is actively faulting."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    retry = RetryPolicy(max_attempts=8)

    def chaos_sweep():
        return _timed_run(
            crawler, sample, chaos=_RECOVERABLE, retry=retry
        )[0]

    result = run_once(benchmark, chaos_sweep)
    elapsed = benchmark.stats.stats.total
    rate = len(sample) / elapsed if elapsed else 0.0
    # The oracle's happy half: everything recovered, nothing degraded.
    assert not result.failures
    # And faults really flowed through the retry layer (visible as
    # multi-attempt outcomes), or this measures nothing.
    retried = sum(1 for o in result.outcomes if o.attempts > 1)
    assert retried > 0, "pinned recoverable regime injected no faults"
    _update_payload("recovery", {
        "visits": _SAMPLE_SIZE,
        "retried_tasks": retried,
        "seconds": round(elapsed, 4),
        "visits_per_sec": round(rate, 1),
        "floor_visits_per_sec": _RECOVERY_FLOOR_VISITS_PER_SEC,
    })
    write_artifact(
        "chaos_recovery_throughput",
        f"sample: {_SAMPLE_SIZE} visits, {retried} retried tasks\n"
        f"throughput under recoverable chaos: {rate:.1f} visits/sec\n"
        f"floor: {_RECOVERY_FLOOR_VISITS_PER_SEC} visits/sec",
    )
    assert rate >= _RECOVERY_FLOOR_VISITS_PER_SEC
