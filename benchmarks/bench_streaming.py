"""Benchmarks for the one-pass pipeline: streaming analysis + resume.

Two gates, both written to ``benchmarks/output/BENCH_streaming.json``
for the CI floor check:

* **Analysis throughput** — records/sec through
  :class:`~repro.analysis.streaming.StreamingCrawlAnalysis` (the
  single pass that produces Table 1, the landscape report, and
  Figures 1–3 at once), floored so the aggregators stay cheap enough
  to run inline with a crawl.
* **Resume memory** — peak Python allocation of the streaming
  checkpoint reconcile versus the materialised every-outcome-in-a-dict
  shape it replaced.  ``tracemalloc`` rather than RSS because
  ``ru_maxrss`` is lifetime-monotonic — an in-process before/after
  comparison would be meaningless (the whole-process RSS claim is
  guarded separately by ``large_world_smoke.py --flat-scales``).
"""

import json
import os
import tracemalloc

from conftest import BENCH_SEED, OUTPUT_DIR, run_once, write_artifact

from repro.analysis.streaming import StreamingCrawlAnalysis
from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlEngine
from repro.measure.storage import iter_jsonl
from repro.webgen import build_world
from tests.support.faults import FaultInjectingExecutor

#: CI gate: the single-pass analysis must sustain at least this many
#: records/sec (pure-Python dict aggregation; local runs sustain
#: hundreds of thousands — the floor leaves ~10x for slow runners).
_ANALYSIS_FLOOR_RECORDS_PER_SEC = 20_000
#: CI gate: the streaming reconcile's allocation peak must stay under
#: this fraction of the materialised replay's (in practice it is a few
#: percent — an index set instead of every outcome payload).
_RESUME_PEAK_RATIO_CEILING = 0.5

_RESUME_WORKERS = 4
_RESUME_SHARDS = 8


def _update_payload(section: str, data: dict) -> None:
    """Merge one section into BENCH_streaming.json (tests run in file
    order under ``-x``; the CI gate reads the file after both)."""
    out = OUTPUT_DIR / "BENCH_streaming.json"
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload[section] = data
    payload.setdefault("meta", {})["cpus"] = os.cpu_count() or 1
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _tracemalloc_peak_kb(fn) -> float:
    """Peak Python allocation (KB) while *fn* runs."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def test_streaming_analysis_throughput(benchmark, bench_world, warm_crawl):
    """Records/sec through the single-pass detection aggregators."""
    records = warm_crawl.records

    def one_pass():
        return StreamingCrawlAnalysis(bench_world).consume(records)

    analysis = run_once(benchmark, one_pass)
    elapsed = benchmark.stats.stats.total
    rate = len(records) / elapsed if elapsed else 0.0
    assert analysis.record_count == len(records)
    assert analysis.detected_wall_domains()

    _update_payload("analysis", {
        "records": len(records),
        "seconds": round(elapsed, 4),
        "records_per_sec": round(rate, 1),
        "floor_records_per_sec": _ANALYSIS_FLOOR_RECORDS_PER_SEC,
    })
    write_artifact(
        "streaming_analysis_throughput",
        f"one-pass analysis: {len(records)} records in {elapsed:.3f}s "
        f"({rate:,.0f} records/sec; "
        f"floor {_ANALYSIS_FLOOR_RECORDS_PER_SEC:,})",
    )
    assert rate >= _ANALYSIS_FLOOR_RECORDS_PER_SEC, (
        f"streaming analysis fell to {rate:,.0f} records/sec "
        f"(floor {_ANALYSIS_FLOOR_RECORDS_PER_SEC:,})"
    )


def test_streaming_reconcile_memory(benchmark, tmp_path):
    """Peak allocation of checkpoint reconcile: streaming vs held-dict.

    Crash a spool-merge crawl at ~half, leaving a checkpoint full of
    replayable outcomes, then reconcile it two ways over the same
    bytes: the materialised baseline (every outcome payload parsed
    into one dict — the shape the streaming merge replaced) and the
    real streaming reconcile (k-way run merge; holds the completed
    index set and one line per run).  The streaming peak must be a
    small fraction of the materialised peak.
    """
    world = build_world(scale=0.05, seed=BENCH_SEED)
    crawler = Crawler(world)
    plan = crawler.plan_detection_crawl(["DE"])
    out = tmp_path / "crawl.jsonl"
    checkpoint = tmp_path / "crawl.jsonl.checkpoint"
    victims = {s for s in range(_RESUME_SHARDS) if s % 2}

    crashed = CrawlEngine(
        crawler, workers=_RESUME_WORKERS, shards=_RESUME_SHARDS,
        merge="spool", spool_path=out, checkpoint_path=checkpoint,
        executor=FaultInjectingExecutor(victims),
    )
    try:
        crashed.execute(plan)
        raise AssertionError("fault injection did not fire")
    except RuntimeError:
        pass
    checkpoint_bytes = checkpoint.stat().st_size

    # Baseline: the pre-streaming shape — every replayed outcome
    # payload held at once, keyed by plan index (read-only; runs
    # first because the real reconcile rewrites the checkpoint).
    def materialised_replay():
        replayed = {}
        for _, payload in iter_jsonl(checkpoint):
            if payload.get("kind") == "outcome":
                replayed[payload["index"]] = payload
        assert replayed
        return replayed

    materialised_peak_kb = _tracemalloc_peak_kb(materialised_replay)

    resumer = CrawlEngine(
        crawler, workers=_RESUME_WORKERS, shards=_RESUME_SHARDS,
        merge="spool", spool_path=out, checkpoint_path=checkpoint,
        resume=True,
    )
    replay_box = {}

    def streaming_reconcile():
        replay_box["replay"] = resumer._reconcile_checkpoint(plan)

    streaming_peak_kb = run_once(
        benchmark, lambda: _tracemalloc_peak_kb(streaming_reconcile)
    )
    replay = replay_box["replay"]
    assert replay.count > 0
    assert replay.outcomes == []  # spool mode holds no outcome objects
    assert replay.resume_part is not None

    ratio = streaming_peak_kb / materialised_peak_kb
    _update_payload("resume", {
        "checkpoint_outcomes": replay.count,
        "checkpoint_kb": round(checkpoint_bytes / 1024.0, 1),
        "streaming_reconcile_peak_kb": round(streaming_peak_kb, 1),
        "materialised_replay_peak_kb": round(materialised_peak_kb, 1),
        "peak_ratio": round(ratio, 4),
        "ratio_ceiling": _RESUME_PEAK_RATIO_CEILING,
    })
    write_artifact(
        "streaming_reconcile_memory",
        f"checkpoint: {replay.count} replayable outcomes, "
        f"{checkpoint_bytes / 1024:.0f} KB\n"
        f"materialised replay peak: {materialised_peak_kb:.0f} KB\n"
        f"streaming reconcile peak: {streaming_peak_kb:.0f} KB "
        f"({ratio:.1%} of materialised; "
        f"ceiling {_RESUME_PEAK_RATIO_CEILING:.0%})",
    )
    assert ratio <= _RESUME_PEAK_RATIO_CEILING, (
        f"streaming reconcile peaked at {streaming_peak_kb:.0f} KB — "
        f"{ratio:.1%} of the materialised replay's "
        f"{materialised_peak_kb:.0f} KB (ceiling "
        f"{_RESUME_PEAK_RATIO_CEILING:.0%}); the resume path is "
        "holding the replay set again"
    )
