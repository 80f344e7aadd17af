"""Determinism + resume guarantees, per executor backend.

The engine promises that for a fixed world seed the final JSONL is
**byte-identical** across ``executor ∈ {serial, process, distributed}`` ×
any workers/shards combination × resumed-vs-uninterrupted runs.  This
module is that promise as a test matrix: CI runs it once per backend
(``REPRO_EXECUTOR_BACKEND=serial|process|distributed``) so a regression in
any one backend fails its own job; locally, with the variable unset,
every backend runs in one pass.
"""

import os

import pytest

from repro.measure import (
    EXECUTOR_BACKENDS,
    CrawlEngine,
    Crawler,
)
from repro.measure.instrumentation import EventLog
from tests.support.faults import (
    FaultInjectingExecutor,
    FaultInjectingProcessExecutor,
)

_ENV_BACKEND = os.environ.get("REPRO_EXECUTOR_BACKEND")
if _ENV_BACKEND is not None and _ENV_BACKEND not in EXECUTOR_BACKENDS:
    raise RuntimeError(
        f"REPRO_EXECUTOR_BACKEND={_ENV_BACKEND!r} is not one of "
        f"{EXECUTOR_BACKENDS}"
    )
BACKENDS = (_ENV_BACKEND,) if _ENV_BACKEND else EXECUTOR_BACKENDS

#: Enough shards that fault injection always hits non-empty ones.
SHARDS = 6
WORKERS = 3


def make_engine(backend, crawler, **kwargs):
    """An engine for *backend* with this module's standard geometry."""
    workers = 1 if backend == "serial" else WORKERS
    return CrawlEngine(
        crawler, workers=workers, shards=SHARDS, backend=backend, **kwargs
    )


def crash_executor(backend, fail_shards):
    """A fault-injecting executor matching *backend*'s failure mode.

    The process harness runs one worker so shards complete in
    submission order: everything before the first killed shard is
    deterministically checkpointed before the pool breaks (a broken
    pool voids *running* futures, so a multi-worker kill could
    otherwise lose arbitrary in-flight shards and make ``resumed``
    flaky).
    """
    if backend == "process":
        return FaultInjectingProcessExecutor(1, fail_shards)
    return FaultInjectingExecutor(fail_shards, partial=True)


@pytest.fixture(scope="module")
def small_crawler(small_world):
    return Crawler(small_world)


@pytest.fixture(scope="module")
def detection_plan(small_world, small_crawler):
    return small_crawler.plan_detection_crawl(
        ["DE"], small_world.crawl_targets[:48]
    )


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory, small_crawler, detection_plan):
    """The uninterrupted serial spool every backend must reproduce."""
    path = tmp_path_factory.mktemp("reference") / "serial.jsonl"
    CrawlEngine(small_crawler, spool_path=path).execute(detection_plan)
    return path.read_bytes()


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendDeterminism:
    def test_detection_spool_matches_serial_reference(
        self, backend, tmp_path, small_crawler, detection_plan,
        serial_reference,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = make_engine(
            backend, small_crawler, spool_path=out
        ).execute(detection_plan)
        assert len(result) == len(detection_plan)
        assert out.read_bytes() == serial_reference

    def test_spool_merge_matches_memory_merge(
        self, backend, tmp_path, small_crawler, detection_plan,
        serial_reference,
    ):
        out = tmp_path / "streamed.jsonl"
        result = make_engine(
            backend, small_crawler, spool_path=out, merge="spool"
        ).execute(detection_plan)
        assert result.streamed
        assert result.outcomes is None
        assert result.record_count == len(detection_plan)
        assert out.read_bytes() == serial_reference
        # The per-shard part files are consumed by the join.
        assert not list(tmp_path.glob("streamed.jsonl.shard*"))

    def test_checkpointed_cookie_measurements_identical(
        self, backend, tmp_path, small_world, small_crawler,
    ):
        """Visit-id-consuming measurements: every checkpointed backend
        uses the per-task id regime, so the spools must agree."""
        domains = sorted(small_world.wall_domains)[:4]
        plan = small_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        reference = tmp_path / "serial-checkpointed.jsonl"
        CrawlEngine(
            small_crawler, spool_path=reference,
            checkpoint_path=f"{reference}.checkpoint",
        ).execute(plan)
        out = tmp_path / f"{backend}.jsonl"
        make_engine(
            backend, small_crawler, spool_path=out,
            checkpoint_path=f"{out}.checkpoint",
        ).execute(plan)
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("merge", ["memory", "spool"])
    def test_crashed_run_resumes_byte_identical(
        self, backend, merge, tmp_path, small_crawler, detection_plan,
        serial_reference,
    ):
        """Kill part of the run (worker SIGKILL under the process
        backend, injected in-process crash otherwise), resume, and the
        final JSONL must equal the uninterrupted serial run's."""
        out = tmp_path / "crashed.jsonl"
        checkpoint = tmp_path / "crashed.jsonl.checkpoint"
        engine = make_engine(
            backend, small_crawler, spool_path=out, merge=merge,
            checkpoint_path=checkpoint,
            executor=crash_executor(backend, fail_shards=(1, 4)),
        )
        # BrokenProcessPool (process) subclasses RuntimeError, like the
        # in-process harness's injected crash.
        with pytest.raises(RuntimeError):
            engine.execute(detection_plan)
        assert checkpoint.exists()
        assert not out.exists()

        log = EventLog()
        result = make_engine(
            backend, small_crawler, spool_path=out, merge=merge,
            checkpoint_path=checkpoint, resume=True, event_log=log,
        ).execute(detection_plan)
        assert result.resumed > 0
        assert result.resumed < len(detection_plan)
        assert out.read_bytes() == serial_reference
        assert not checkpoint.exists()
        (resume_event,) = log.by_kind("resume")
        assert resume_event.detail["completed"] == result.resumed


@pytest.mark.skipif(
    "process" not in BACKENDS,
    reason="process backend excluded by REPRO_EXECUTOR_BACKEND",
)
class TestProcessBackendSpecifics:
    def test_worker_death_loses_only_unfinished_shards(
        self, tmp_path, small_crawler, detection_plan, serial_reference,
    ):
        """A SIGKILLed worker must not take completed shards' work
        with it: the checkpoint retains them and the resume replays
        them instead of re-crawling."""
        out = tmp_path / "killed.jsonl"
        checkpoint = tmp_path / "killed.jsonl.checkpoint"
        engine = make_engine(
            "process", small_crawler, spool_path=out,
            checkpoint_path=checkpoint,
            # One worker processes shards in submission order, so the
            # shards before the killed one deterministically complete
            # (and checkpoint) first.
            executor=FaultInjectingProcessExecutor(1, (SHARDS - 1,)),
        )
        with pytest.raises(RuntimeError):
            engine.execute(detection_plan)
        result = make_engine(
            "process", small_crawler, spool_path=out,
            checkpoint_path=checkpoint, resume=True,
        ).execute(detection_plan)
        assert result.resumed > 0
        assert out.read_bytes() == serial_reference

    def test_per_process_throughput_events(
        self, small_crawler, detection_plan
    ):
        log = EventLog()
        make_engine(
            "process", small_crawler, event_log=log
        ).execute(detection_plan)
        events = log.by_kind("process-throughput")
        assert events, "no per-process throughput emitted"
        assert sum(e.detail["tasks"] for e in events) == len(detection_plan)
        for event in events:
            assert event.detail["pid"] > 0
            assert event.detail["tasks_per_sec"] > 0
        # Shard events carry the worker pid for attribution.
        pids = {e.detail["pid"] for e in events}
        for shard_event in log.by_kind("shard"):
            assert shard_event.detail["pid"] in pids

    def test_custom_crawler_refused(self, small_world):
        class TweakedCrawler(Crawler):
            pass

        engine = make_engine("process", TweakedCrawler(small_world))
        plan = Crawler(small_world).plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:2]
        )
        with pytest.raises(ValueError, match="process backend"):
            engine.execute(plan)

    def test_hand_tuned_world_config_refused(self):
        """A spawn-started worker rebuilds from (seed, scale) alone, so
        non-default population knobs must be refused up front instead
        of silently crawling a different web in the worker."""
        from repro.webgen import build_world
        from repro.webgen.config import WorldConfig

        world = build_world(
            config=WorldConfig(seed=7, scale=0.01, smp_price_cents=399)
        )
        crawler = Crawler(world)
        engine = make_engine("process", crawler)
        plan = crawler.plan_detection_crawl(
            ["DE"], world.crawl_targets[:2]
        )
        with pytest.raises(ValueError, match="non-default knobs"):
            engine.execute(plan)

    def test_configured_detector_crosses_the_process_boundary(
        self, tmp_path, small_world
    ):
        """A non-default BannerClick travels in the shard bundle: the
        process backend must produce the same records as the serial
        in-process run, not silently fall back to a default detector."""
        from repro.bannerclick import BannerClick

        ablated = Crawler(
            small_world,
            bannerclick=BannerClick(subscription_words=False),
        )
        stock = Crawler(small_world)
        # Pick domains where the ablation is *observable* (the
        # cookiewall classifier half it disables fires on wall sites),
        # so a worker silently substituting a default detector could
        # not pass the byte-equality below.
        differing = [
            domain for domain in sorted(small_world.wall_domains)
            if stock.visit("DE", domain).to_dict()
            != ablated.visit("DE", domain).to_dict()
        ][:10]
        assert differing, "ablation not observable on any wall domain"
        plan = ablated.plan_detection_crawl(["DE"], differing)
        serial_out = tmp_path / "serial.jsonl"
        make_engine(
            "serial", ablated, spool_path=serial_out
        ).execute(plan)
        process_out = tmp_path / "process.jsonl"
        make_engine(
            "process", ablated, spool_path=process_out
        ).execute(plan)
        assert process_out.read_bytes() == serial_out.read_bytes()
        # And the stock detector really does record these differently.
        default_out = tmp_path / "default.jsonl"
        make_engine(
            "process", stock, spool_path=default_out
        ).execute(plan)
        assert default_out.read_bytes() != process_out.read_bytes()

    def test_spool_merge_into_fresh_directory(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """Shard part files open before the final join — a not-yet-
        existing output directory must be created, as in memory mode."""
        out = tmp_path / "new" / "dir" / "out.jsonl"
        result = make_engine(
            "process", small_crawler, spool_path=out, merge="spool"
        ).execute(detection_plan)
        assert result.record_count == len(detection_plan)
        assert out.read_bytes() == serial_reference

    def test_injected_process_executor_forces_per_task_ids(
        self, tmp_path, small_world, small_crawler
    ):
        """An explicitly injected ProcessExecutor is as parallel as
        backend='process': it must flip the visit-id regime (worker
        processes cannot share the serial counter) and the shards
        default, or the engine misreports the records it produces."""
        from repro.measure import CrawlEngine, ProcessExecutor

        engine = CrawlEngine(
            small_crawler, executor=ProcessExecutor(2)
        )
        assert engine.per_task_ids
        assert engine.shards > 1
        domains = sorted(small_world.wall_domains)[:3]
        plan = small_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        injected = [m.to_dict() for m in engine.execute(plan).records]
        named = [
            m.to_dict()
            for m in make_engine("process", small_crawler).execute(plan).records
        ]
        assert injected == named

    def test_crashed_join_preserves_previous_output(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """The k-way join streams to a sibling and renames on success:
        a failure mid-join must never truncate an older complete
        output."""
        from repro.measure.storage import merge_record_spools

        out = tmp_path / "out.jsonl"
        out.write_bytes(serial_reference)
        part = tmp_path / "bad.part"
        part.write_text(
            '{"kind": "outcome", "index": 0, "record": {"type": "Nope"}}\n'
            '{"kind": "outcome", "index": 1, "record": null}\n'
        )
        with pytest.raises(ValueError):
            merge_record_spools([part], out)
        assert out.read_bytes() == serial_reference

    def test_plan_event_names_backend(self, small_crawler, detection_plan):
        log = EventLog()
        make_engine(
            "process", small_crawler, event_log=log
        ).execute(detection_plan)
        (plan_event,) = log.by_kind("plan")
        assert plan_event.detail["backend"] == "process"
