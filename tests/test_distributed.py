"""The distributed executor: wire protocol, byte-identity, re-dispatch,
and transport degradation.

The generic backend matrix (``test_executor_backends.py``) already runs
``executor="distributed"`` through the determinism/resume promises;
this module covers what is *specific* to the wire: frame round-trips,
malformed frames and replies, worker death mid-shard, the re-dispatch
budget, and the guarantee that transport failures yield structured
``transport``-category records — record counts always equal the plan
size, never a silent drop.
"""

import io
import json
import socket
import threading

import pytest

from repro.distributed import (
    WIRE_PROTOCOL_VERSION,
    DistributedExecutor,
    WireBundle,
    WireHeartbeat,
    WireHello,
    WireResult,
    WireShared,
    decode_message,
    read_frame,
    write_frame,
)
from repro.distributed.wire import encode_message
from repro.errors import (
    TransportError,
    WireProtocolError,
    WorkerLostError,
    error_category,
)
from repro.measure import CrawlEngine, Crawler
from repro.measure.instrumentation import EventLog
from tests.support.faults import FaultInjectingDistributedExecutor

WORKERS = 2
SHARDS = 4


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
    """The uninterrupted serial spool bytes every wire run must match."""
    path = tmp_path_factory.mktemp("reference") / "serial.jsonl"
    CrawlEngine(small_crawler, spool_path=path).execute(detection_plan)
    return path.read_bytes()


def distributed_engine(crawler, executor=None, **kwargs):
    return CrawlEngine(
        crawler, workers=WORKERS, shards=SHARDS, backend="distributed",
        executor=executor, **kwargs
    )


# ---------------------------------------------------------------------------
# The wire itself
# ---------------------------------------------------------------------------
class TestWireProtocol:
    @pytest.mark.parametrize("message", [
        WireHello(worker="w1", pid=42),
        WireShared(blob="YWJj"),
        WireBundle(
            shard=3,
            tasks=((0, "DE", "a.example", "detect", 1),),
            id_bases=((0, 123456789),),
            breakers={"a.example": {"failures": 2}},
        ),
        WireHeartbeat(shard=3),
        WireResult(
            shard=3, pid=9, elapsed=0.25,
            outcomes=({"index": 0, "attempts": 1, "error": None,
                       "record": "{}"},),
            retries=({"index": 0, "attempt": 1, "error": "Timeout"},),
            breaker_events=({"domain": "a.example",
                             "transition": "open"},),
        ),
    ], ids=lambda m: type(m).__name__)
    def test_round_trip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_bundle_round_trips_to_engine_shape(self):
        bundle = {
            "shard": 1,
            "tasks": [(0, "DE", "a.example", "detect", 1),
                      (7, "US", "b.example", "accept", 5)],
            "id_bases": {0: 11, 7: 22},
            "breakers": {},
            "kill_after": 1,
        }
        wire = WireBundle.from_bundle(bundle)
        assert decode_message(encode_message(wire)).to_bundle() == bundle

    @pytest.mark.parametrize("line,detail", [
        (b"not json\n", "undecodable"),
        (b"[1, 2]\n", "JSON object"),
        (b'{"type": "warp", "x": 1}\n', "unknown frame type"),
        (b'{"type": "heartbeat", "shard": 1, "extra": 2}\n',
         "unknown field"),
        (b'{"type": "heartbeat"}\n', "heartbeat"),
    ])
    def test_malformed_frames_rejected(self, line, detail):
        with pytest.raises(WireProtocolError, match=detail):
            decode_message(line)

    def test_truncated_frame_rejected(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            read_frame(io.BytesIO(b'{"type": "heartbeat", "shard": 1}'))

    def test_eof_reads_as_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_result_must_cover_bundle_indices(self):
        bundle = WireBundle(
            shard=0,
            tasks=((0, "DE", "a.example", "detect", 1),
                   (1, "DE", "b.example", "detect", 1)),
            id_bases=((0, 1), (1, 2)),
        )
        dropped = WireResult(
            shard=0, pid=1, elapsed=0.0,
            outcomes=({"index": 0, "attempts": 1, "error": None,
                       "record": "{}"},),
        )
        with pytest.raises(WireProtocolError, match="covers indices"):
            dropped.validate_against(bundle)
        wrong_shard = WireResult(shard=5, pid=1, elapsed=0.0, outcomes=())
        with pytest.raises(WireProtocolError, match="names shard"):
            wrong_shard.validate_against(bundle)

    def test_transport_errors_have_their_own_category(self):
        assert error_category("TransportError") == "transport"
        assert error_category("WorkerLostError") == "transport"
        assert error_category("WireProtocolError") == "transport"


# ---------------------------------------------------------------------------
# Byte-identity over real sockets and worker processes
# ---------------------------------------------------------------------------
class TestDistributedRuns:
    def test_worker_killed_mid_shard_redispatches_byte_identical(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """SIGKILL one worker halfway through a shard: the lost shard
        re-runs on a surviving worker and the merged spool still equals
        the serial bytes — no degraded records, no gaps."""
        out = tmp_path / "killed.jsonl"
        log = EventLog()
        result = distributed_engine(
            small_crawler,
            executor=FaultInjectingDistributedExecutor(WORKERS, {1}),
            spool_path=out,
            event_log=log,
        ).execute(detection_plan)
        assert len(result) == len(detection_plan)
        assert not result.failures
        assert out.read_bytes() == serial_reference

    def test_multivantage_campaign_plan_distributed_byte_identical(
        self, tmp_path, small_world, small_crawler
    ):
        """The acceptance scenario: a multi-vantage campaign plan runs
        through 2 socket workers — and through 2 socket workers with
        one killed mid-shard — and both spools equal the serial one."""
        from repro.api.spec import MultiVantageSpec

        spec = MultiVantageSpec(vps=("DE", "USE"))
        targets = small_world.crawl_targets[:30]

        def campaign_plan():
            plan = small_crawler.plan_detection_crawl(
                ["DE", "USE"], targets
            )
            plan.context["multivantage"] = {
                "wave": 0, "scenario": spec.scenario().to_context(),
            }
            return plan

        serial_out = tmp_path / "serial.jsonl"
        CrawlEngine(
            small_crawler, spool_path=serial_out
        ).execute(campaign_plan())
        distributed_out = tmp_path / "distributed.jsonl"
        distributed_engine(
            small_crawler, spool_path=distributed_out
        ).execute(campaign_plan())
        assert distributed_out.read_bytes() == serial_out.read_bytes()

        killed_out = tmp_path / "killed.jsonl"
        distributed_engine(
            small_crawler,
            executor=FaultInjectingDistributedExecutor(WORKERS, {2}),
            spool_path=killed_out,
        ).execute(campaign_plan())
        assert killed_out.read_bytes() == serial_out.read_bytes()

    def test_session_multivantage_distributed_matches_serial(
        self, tmp_path, small_world
    ):
        """End to end through the public API: ``executor="distributed"``
        in the engine spec, wave spool byte-identical to serial."""
        from repro.api import EngineSpec, Session
        from repro.api.spec import MultiVantageSpec, OutputSpec

        spec = MultiVantageSpec(vps=("DE",),
                                domains=tuple(small_world.crawl_targets[:24]))
        serial_dir = tmp_path / "serial"
        Session(small_world).multivantage(
            spec, output=OutputSpec(out_dir=str(serial_dir))
        )
        distributed_dir = tmp_path / "distributed"
        Session(
            small_world,
            engine=EngineSpec(
                workers=WORKERS, shards=SHARDS, executor="distributed"
            ),
        ).multivantage(spec, output=OutputSpec(out_dir=str(distributed_dir)))
        assert (distributed_dir / "wave-00.jsonl").read_bytes() == \
            (serial_dir / "wave-00.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# Transport degradation: failures become records, never gaps
# ---------------------------------------------------------------------------
def _fake_worker(executor, reply):
    """Dial *executor*'s work queue, take one bundle, answer with
    ``reply(bundle) -> bytes``, and hang up."""
    import time

    while executor.address is None:
        time.sleep(0.01)
    with socket.create_connection(executor.address, timeout=10) as conn:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        write_frame(wfile, WireHello(worker="saboteur", pid=1))
        shared = read_frame(rfile)
        assert isinstance(shared, WireShared)
        bundle = read_frame(rfile)
        assert isinstance(bundle, WireBundle)
        wfile.write(reply(bundle))
        wfile.flush()


def run_with_fake_worker(crawler, plan, reply, tmp_path):
    executor = DistributedExecutor(
        0, max_dispatches=1, connect_timeout=30.0
    )
    saboteur = threading.Thread(
        target=_fake_worker, args=(executor, reply), daemon=True
    )
    out = tmp_path / "degraded.jsonl"
    engine = CrawlEngine(
        crawler, workers=1, shards=1, backend="distributed",
        executor=executor, spool_path=out, event_log=EventLog(),
    )
    saboteur.start()
    result = engine.execute(plan)
    saboteur.join(timeout=10)
    return result, out


class TestTransportDegradation:
    def test_malformed_reply_degrades_every_task(
        self, tmp_path, small_crawler, small_world
    ):
        """A worker replying garbage (with no re-dispatch budget left)
        must yield one structured transport record per task: the record
        count equals the plan size and every failure is category
        ``transport`` — never a silent drop."""
        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:6]
        )
        result, out = run_with_fake_worker(
            small_crawler, plan,
            lambda bundle: b"this is not a wire frame\n",
            tmp_path,
        )
        assert len(result) == len(plan)
        assert len(result.failures) == len(plan)
        for outcome in result.failures:
            assert outcome.error == "WireProtocolError"
            assert error_category(outcome.error) == "transport"
        lines = out.read_bytes().splitlines()
        assert len(lines) == len(plan)
        for line in lines:
            record = json.loads(line)
            assert record["data"]["error"] == "WireProtocolError"

    def test_undecodable_record_line_degrades_that_task(
        self, tmp_path, small_crawler, small_world
    ):
        """A structurally valid reply whose record lines do not decode
        degrades those tasks at the boundary instead of splicing poison
        into the spool."""
        def reply(bundle):
            outcomes = [
                {"index": index, "attempts": 1, "error": None,
                 "record": "{this is not json"}
                for index, *_ in bundle.tasks
            ]
            return encode_message(WireResult(
                shard=bundle.shard, pid=1, elapsed=0.0,
                outcomes=tuple(outcomes),
            ))

        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:5]
        )
        result, out = run_with_fake_worker(
            small_crawler, plan, reply, tmp_path
        )
        assert len(result) == len(plan)
        lines = out.read_bytes().splitlines()
        assert len(lines) == len(plan)
        for line in lines:
            record = json.loads(line)
            assert record["data"]["error"] == "WireProtocolError"

    def test_no_workers_fails_fast_with_worker_lost(self, small_crawler,
                                                    small_world):
        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:4]
        )
        engine = CrawlEngine(
            small_crawler, workers=1, shards=1, backend="distributed",
            executor=DistributedExecutor(0, connect_timeout=0.5),
        )
        with pytest.raises(WorkerLostError, match="no live workers"):
            engine.execute(plan)

    def test_unpicklable_shared_state_is_a_readable_error(self):
        executor = DistributedExecutor(0)
        with pytest.raises(TransportError, match="does not pickle"):
            executor.run_bundles(
                [{"shard": 0, "tasks": [], "id_bases": {}}],
                lambda payload: None,
                {"poison": lambda: None},
            )

    def test_hello_protocol_mismatch_strikes_the_worker(self):
        assert WireHello(worker="w", pid=1).protocol == WIRE_PROTOCOL_VERSION
