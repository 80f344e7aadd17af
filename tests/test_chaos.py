"""The chaos differential oracle, per executor backend.

The load-bearing invariant of the resilience plane: a run under a
seeded chaos regime whose faults are all *recoverable* produces a
spool **byte-identical** to the fault-free run — across every executor
backend, worker count, and kill/resume — while a regime with
*unrecoverable* faults produces deterministic degraded output (same
bytes on every backend, record count still equal to the plan size).
Storage-layer chaos rides along: torn shard spools and torn checkpoint
tails must be tolerated, never silently dropped.

Like ``test_executor_backends.py``, CI runs this module once per
backend (``REPRO_EXECUTOR_BACKEND=serial|process|distributed``) under
pinned chaos seeds; locally, with the variable unset, every backend
runs in one pass.
"""

import json
import os

import pytest

from repro.measure import (
    EXECUTOR_BACKENDS,
    CrawlEngine,
    Crawler,
    RetryPolicy,
)
from repro.measure.storage import (
    TornRecordWarning,
    iter_records,
    merge_record_spools,
    torn_line_count,
)
from repro.resilience.chaos import ChaosSpec, tear_trailing_line
from tests.support.faults import (
    FaultInjectingExecutor,
    FaultInjectingProcessExecutor,
)

_ENV_BACKEND = os.environ.get("REPRO_EXECUTOR_BACKEND")
BACKENDS = (_ENV_BACKEND,) if _ENV_BACKEND else EXECUTOR_BACKENDS

SHARDS = 6
WORKERS = 3

#: The pinned chaos regimes of the oracle.  RECOVERABLE's rates are
#: low enough (and the retry budget generous enough) that no task
#: exhausts its attempts; UNRECOVERABLE mixes in permanent faults that
#: deterministically do.
RECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, disconnect_rate=0.03,
    truncate_rate=0.02,
)
UNRECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, permanent_rate=0.15,
)

#: Fault-free twin of the chaos plans: a seeded-but-silent spec keeps
#: the visit-id regime (and hence the record bytes) comparable.
IDLE = ChaosSpec(seed=99)


def make_engine(backend, crawler, **kwargs):
    workers = 1 if backend == "serial" else WORKERS
    return CrawlEngine(
        crawler, workers=workers, shards=SHARDS, backend=backend, **kwargs
    )


def chaos_execute(engine, plan_factory, spec):
    """Execute a fresh plan carrying *spec*'s chaos context."""
    plan = plan_factory()
    if spec is not None:
        plan.context["chaos"] = spec.to_context()
    return engine.execute(plan)


@pytest.fixture(scope="module")
def chaos_crawler(small_world):
    return Crawler(small_world)


@pytest.fixture(scope="module")
def plan_factory(small_world, chaos_crawler):
    def factory():
        return chaos_crawler.plan_detection_crawl(
            ["DE", "USE"], small_world.crawl_targets[:16]
        )
    return factory


@pytest.fixture(scope="module")
def fault_free_reference(tmp_path_factory, chaos_crawler, plan_factory):
    """The spool every recoverable-chaos run must reproduce byte-wise."""
    path = tmp_path_factory.mktemp("reference") / "fault-free.jsonl"
    result = chaos_execute(
        CrawlEngine(chaos_crawler, spool_path=path), plan_factory, IDLE
    )
    assert not result.failures
    return path.read_bytes()


@pytest.fixture(scope="module")
def unrecoverable_reference(tmp_path_factory, chaos_crawler, plan_factory):
    """The serial spool of the pinned unrecoverable regime."""
    path = tmp_path_factory.mktemp("reference") / "degraded.jsonl"
    result = chaos_execute(
        CrawlEngine(
            chaos_crawler, spool_path=path, retry=RetryPolicy(max_attempts=3)
        ),
        plan_factory, UNRECOVERABLE,
    )
    assert result.failures, "pinned unrecoverable regime produced no faults"
    assert result.record_count == len(plan_factory())
    return path.read_bytes()


def test_recoverable_regime_actually_injects(chaos_crawler, plan_factory):
    """Guard against a vacuous oracle: with retries disabled, the
    pinned recoverable regime visibly degrades tasks — so the
    byte-identity below really is recovery, not absence of faults."""
    result = chaos_execute(
        CrawlEngine(chaos_crawler, retry=RetryPolicy(max_attempts=1)),
        plan_factory, RECOVERABLE,
    )
    assert result.failures
    for outcome in result.failures:
        assert outcome.record is not None  # degraded, never lost


@pytest.mark.parametrize("backend", BACKENDS)
class TestDifferentialOracle:
    def test_recoverable_chaos_is_byte_invisible(
        self, backend, tmp_path, chaos_crawler, plan_factory,
        fault_free_reference,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = chaos_execute(
            make_engine(
                backend, chaos_crawler, spool_path=out,
                retry=RetryPolicy(max_attempts=8),
            ),
            plan_factory, RECOVERABLE,
        )
        assert not result.failures
        assert out.read_bytes() == fault_free_reference

    def test_unrecoverable_chaos_is_deterministic(
        self, backend, tmp_path, chaos_crawler, plan_factory,
        unrecoverable_reference,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = chaos_execute(
            make_engine(
                backend, chaos_crawler, spool_path=out,
                retry=RetryPolicy(max_attempts=3),
            ),
            plan_factory, UNRECOVERABLE,
        )
        assert result.record_count == len(plan_factory())
        assert out.read_bytes() == unrecoverable_reference
        degraded = [
            record for record in iter_records(out)
            if record.flags.get("degraded")
        ]
        assert len(degraded) == len(result.failures) > 0

    def test_crashed_recoverable_run_resumes_byte_identical(
        self, backend, tmp_path, chaos_crawler, plan_factory,
        fault_free_reference,
    ):
        """Kill part of a recoverable-chaos run, resume it: re-crawled
        tasks re-fault and re-recover (the consumed-fault set is
        per-run), so the final spool still equals the fault-free one."""
        out = tmp_path / "crashed.jsonl"
        checkpoint = tmp_path / "crashed.jsonl.checkpoint"
        if backend == "process":
            executor = FaultInjectingProcessExecutor(1, (1, 4))
        else:
            executor = FaultInjectingExecutor((1, 4), partial=True)
        engine = make_engine(
            backend, chaos_crawler, spool_path=out,
            checkpoint_path=checkpoint, executor=executor,
            retry=RetryPolicy(max_attempts=8),
        )
        with pytest.raises(RuntimeError):
            chaos_execute(engine, plan_factory, RECOVERABLE)
        assert checkpoint.exists()

        result = chaos_execute(
            make_engine(
                backend, chaos_crawler, spool_path=out,
                checkpoint_path=checkpoint, resume=True,
                retry=RetryPolicy(max_attempts=8),
            ),
            plan_factory, RECOVERABLE,
        )
        assert result.resumed > 0
        assert not result.failures
        assert out.read_bytes() == fault_free_reference


# ---------------------------------------------------------------------------
# Breaker state across kill/resume
# ---------------------------------------------------------------------------

#: Six vantage points per target: enough same-domain tasks for the
#: pinned unrecoverable regime to walk breakers through their states.
BREAKER_VPS = ["AU", "BR", "DE", "IN", "SE", "USE"]

BREAKER_RETRY = dict(
    max_attempts=2, breaker_threshold=2, breaker_quarantine=2
)


@pytest.fixture(scope="module")
def breaker_chaos(small_world):
    """High-rate permanent faults pinned to three first-party domains:
    their task streaks deterministically walk the breakers while the
    other five domains crawl clean."""
    from repro.urlkit import registrable_domain

    return ChaosSpec(
        seed=43, timeout_rate=0.9, permanent_rate=0.9,
        domains=tuple(
            registrable_domain(target) or target
            for target in small_world.crawl_targets[:3]
        ),
    )


@pytest.fixture(scope="module")
def breaker_plan_factory(small_world, chaos_crawler):
    def factory():
        return chaos_crawler.plan_detection_crawl(
            BREAKER_VPS, small_world.crawl_targets[:8]
        )
    return factory


@pytest.fixture(scope="module")
def breaker_reference(
    tmp_path_factory, chaos_crawler, breaker_plan_factory, breaker_chaos,
):
    """Uninterrupted serial run of the breaker regime: spool bytes plus
    the final breaker-registry snapshots every crashed-and-resumed run
    must reproduce."""
    path = tmp_path_factory.mktemp("reference") / "breakers.jsonl"
    engine = CrawlEngine(
        chaos_crawler, spool_path=path, retry=RetryPolicy(**BREAKER_RETRY)
    )
    result = chaos_execute(engine, breaker_plan_factory, breaker_chaos)
    skipped = [
        o for o in result.failures if o.error == "BreakerOpenError"
    ]
    assert skipped, "pinned regime never tripped a breaker"
    snapshots = {
        domain: breaker.snapshot()
        for domain, breaker in engine._breakers.items()
        if breaker.snapshot()["state"] != "closed"
        or breaker.snapshot()["consecutive"]
    }
    assert snapshots, "no breaker accumulated state"
    return path.read_bytes(), snapshots


def _breaker_checkpoint_domains(checkpoint):
    domains = {}
    for line in checkpoint.read_text(encoding="utf-8").splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue  # the torn tail some tests manufacture
        if payload.get("kind") == "breaker":
            domains.update(payload["domains"])
    return domains


@pytest.mark.parametrize("backend", BACKENDS)
def test_breaker_state_survives_kill_and_resume(
    backend, tmp_path, chaos_crawler, breaker_plan_factory, breaker_chaos,
    breaker_reference,
):
    """SIGKILL a worker mid-chaos (an injected in-process crash under
    serial/distributed): the checkpoint carries the breaker line, the
    resumed run restores the registry instead of restarting it closed,
    and the final spool — including which tasks were breaker-skipped —
    is byte-identical to the uninterrupted run."""
    reference_bytes, reference_snapshots = breaker_reference
    out = tmp_path / "killed.jsonl"
    checkpoint = tmp_path / "killed.jsonl.checkpoint"
    if backend == "process":
        executor = FaultInjectingProcessExecutor(1, (SHARDS - 1,))
    else:
        executor = FaultInjectingExecutor((SHARDS - 1,), partial=True)
    engine = make_engine(
        backend, chaos_crawler, spool_path=out, checkpoint_path=checkpoint,
        executor=executor, retry=RetryPolicy(**BREAKER_RETRY),
    )
    with pytest.raises(RuntimeError):
        chaos_execute(engine, breaker_plan_factory, breaker_chaos)
    # The interrupted checkpoint persisted breaker state alongside the
    # completed outcomes.
    assert _breaker_checkpoint_domains(checkpoint), (
        "checkpoint carries no breaker line"
    )

    resumed_engine = make_engine(
        backend, chaos_crawler, spool_path=out, checkpoint_path=checkpoint,
        resume=True, retry=RetryPolicy(**BREAKER_RETRY),
    )
    result = chaos_execute(resumed_engine, breaker_plan_factory, breaker_chaos)
    assert result.resumed > 0
    assert out.read_bytes() == reference_bytes
    final = {
        domain: breaker.snapshot()
        for domain, breaker in resumed_engine._breakers.items()
    }
    for domain, snapshot in reference_snapshots.items():
        assert final[domain] == snapshot


def test_compacted_checkpoint_keeps_breaker_state(
    tmp_path, chaos_crawler, breaker_plan_factory, breaker_chaos,
):
    """checkpoint compaction must consolidate, not drop, the breaker
    lines — a resume from a compacted checkpoint restores the same
    registry."""
    out = tmp_path / "run.jsonl"
    checkpoint = tmp_path / "run.jsonl.checkpoint"
    engine = CrawlEngine(
        chaos_crawler, spool_path=out, checkpoint_path=checkpoint,
        retry=RetryPolicy(**BREAKER_RETRY),
        executor=FaultInjectingExecutor((0,), partial=True),
        shards=SHARDS,
    )
    with pytest.raises(RuntimeError):
        chaos_execute(engine, breaker_plan_factory, breaker_chaos)
    before = _breaker_checkpoint_domains(checkpoint)
    assert before
    stats = CrawlEngine.compact_checkpoint(checkpoint)
    assert stats.kept >= 0
    assert _breaker_checkpoint_domains(checkpoint) == before


# ---------------------------------------------------------------------------
# Storage-layer chaos: torn writes
# ---------------------------------------------------------------------------

class TestTornWrites:
    def test_tear_trailing_line_is_deterministic(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        for _ in range(2):
            path.write_text('{"a": 1}\n{"b": 22222}\n', encoding="utf-8")
            cut = tear_trailing_line(path, seed=5)
            assert cut > 0
            torn = path.read_bytes()
            assert torn.startswith(b'{"a": 1}\n{')
            assert not torn.endswith(b"\n")
        # Same seed, same input -> same torn bytes.
        assert path.read_bytes() == torn

    def test_tear_refuses_untearable_file(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        path.write_text("x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no tearable trailing line"):
            tear_trailing_line(path, seed=1)

    def test_torn_shard_part_tolerated_in_kway_merge(
        self, tmp_path, chaos_crawler, plan_factory,
    ):
        """A worker that died mid-append leaves a torn .part tail; the
        k-way join must warn, skip exactly that line, and keep every
        intact record."""
        out = tmp_path / "run.jsonl"
        chaos_execute(
            CrawlEngine(chaos_crawler, spool_path=out), plan_factory, IDLE
        )
        lines = out.read_text(encoding="utf-8").splitlines()
        parts = []
        for shard, chunk in enumerate((lines[:10], lines[10:])):
            part = tmp_path / f"run.jsonl.shard{shard:04d}.part"
            part.write_text(
                "".join(
                    json.dumps(
                        {
                            "kind": "outcome",
                            "index": index,
                            "record": json.loads(line),
                        },
                        ensure_ascii=False,
                    ) + "\n"
                    for index, line in enumerate(
                        chunk, start=shard and 10
                    )
                ),
                encoding="utf-8",
            )
            parts.append(part)
        tear_trailing_line(parts[1], seed=7)

        merged = tmp_path / "merged.jsonl"
        before = torn_line_count()
        with pytest.warns(TornRecordWarning, match="torn trailing line"):
            count = merge_record_spools(parts, merged)
        assert torn_line_count() == before + 1
        assert count == len(lines) - 1
        assert merged.read_text(encoding="utf-8").splitlines() == (
            lines[:-1]
        )

    def test_torn_checkpoint_resumes_byte_identical(
        self, tmp_path, chaos_crawler, plan_factory, fault_free_reference,
    ):
        """Tearing the checkpoint's final line (crash between write and
        flush) loses at most that one outcome: the resume warns,
        re-crawls it, and the final spool is unchanged."""
        out = tmp_path / "torn.jsonl"
        checkpoint = tmp_path / "torn.jsonl.checkpoint"
        engine = CrawlEngine(
            chaos_crawler, spool_path=out, checkpoint_path=checkpoint,
            shards=SHARDS,
            executor=FaultInjectingExecutor((SHARDS - 1,), partial=True),
            retry=RetryPolicy(max_attempts=8),
        )
        with pytest.raises(RuntimeError):
            chaos_execute(engine, plan_factory, RECOVERABLE)
        tear_trailing_line(checkpoint, seed=13)

        before = torn_line_count()
        with pytest.warns(TornRecordWarning, match="torn trailing line"):
            result = chaos_execute(
                CrawlEngine(
                    chaos_crawler, spool_path=out,
                    checkpoint_path=checkpoint, resume=True, shards=SHARDS,
                    retry=RetryPolicy(max_attempts=8),
                ),
                plan_factory, RECOVERABLE,
            )
        assert torn_line_count() == before + 1
        assert result.resumed > 0
        assert not result.failures
        assert out.read_bytes() == fault_free_reference
