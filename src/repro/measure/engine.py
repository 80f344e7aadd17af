"""The sharded crawl engine: plan → shard → execute → merge.

The paper's workload — an 8-vantage-point detection crawl over ~45k
sites plus thousands of repeated cookie measurements — is embarrassingly
parallel, but the original harness ran every visit in one serial Python
loop.  This module turns that loop into an explicit subsystem:

1. **Plan.**  A measurement batch is compiled into a
   :class:`CrawlPlan`: an ordered list of :class:`CrawlTask` values
   (``vp``, ``domain``, ``mode``, ``repeats``).  Plans are pure data —
   they can be inspected, counted, and (via ``context``) carry
   serialisable per-plan configuration such as SMP credentials.
   :class:`~repro.measure.crawl.Crawler` provides the compilers
   (``plan_detection_crawl``, ``plan_cookie_measurements``,
   ``plan_subscription_measurements``, ``plan_ublock``).

2. **Shard.**  Tasks are partitioned into N shards by a *stable* hash
   of the task domain (CRC-32, not the per-process-salted ``hash()``),
   so the same plan always shards the same way on every machine and
   run.  Within a shard, tasks keep plan order.

3. **Execute.**  A pluggable executor runs the shards, selected by
   ``backend`` (surfaced as ``EngineSpec.executor`` / ``--executor``):

   - ``"serial"`` — :class:`SerialExecutor` walks the shards in shard
     order on the calling thread: the one in-process path, and the
     reference every other backend must match byte for byte.
   - ``"process"`` — :class:`ProcessExecutor` ships each shard to a
     worker *process* as a picklable task bundle (world key + task
     list + per-task visit-id stream seeds) and gets serialized
     outcomes back.  Processes sidestep the GIL, which a crawl that is
     compute-bound (parsing, filter matching, the netsim at zero
     latency) needs to scale; with ``Network.latency_mode="real"``
     the workers overlap real waits as well.  Workers rebuild the
     world deterministically from its (seed, scale, evolution) key —
     or, under the default ``fork`` start method, inherit the
     parent's already-built world for free — so the bundle stays
     small.  See *Pickling constraints* below.
   - ``"distributed"`` — :class:`~repro.distributed.DistributedExecutor`
     sends the same bundles to worker processes over a socket work
     queue (:mod:`repro.distributed`).

   With no explicit backend, ``workers == 1`` is serial and
   ``workers > 1`` is the process backend.  Each task runs under a
   :class:`RetryPolicy` (transient ``NetworkError``-family failures
   are retried, then recorded as a failed :class:`TaskOutcome` rather
   than aborting the crawl).

4. **Merge.**  Outcomes are re-assembled in **plan order** (their
   canonical order) regardless of which worker finished first, in one
   of two modes:

   - ``merge="memory"`` (default): the merge holds every outcome and,
     with a ``spool_path``, shard output is additionally appended to
     a ``<path>.partial`` JSONL file as shards finish — crash
     durability and live inspection, not a memory saving — and on
     success the final file is written in canonical order (through a
     temp file swapped in atomically) and the partial removed, so an
     interrupted run never clobbers a previous complete output.
   - ``merge="spool"``: each finished shard streams its outcomes to a
     private ``<path>.shardNNNN.part`` JSONL spool (plan-index-sorted
     by construction) and the final file is produced by a k-way
     plan-order streaming join (:func:`~repro.measure.storage.
     merge_record_spools`), so peak memory is O(one shard's buffer)
     rather than O(world) — the mode for worlds far beyond paper
     scale.  The returned :class:`EngineResult` carries counts and
     the (small) failure list instead of materialised outcomes;
     records stream lazily from the final spool.  Both modes produce
     byte-identical files.

Pickling constraints (process backend)
--------------------------------------
A shard bundle must reconstruct the crawl inside another process, so
the process backend requires the stock :class:`~repro.measure.crawl.
Crawler` over a world built by ``build_world(seed=…, scale=…)``
(identified by seed, scale, and evolution months; ``Network.latency``,
``ublock_lists``, and the live BannerClick/language-detector
instances travel in the bundle, so configured detectors behave
identically in a worker).  Crawler subclasses, hand-assembled or
knob-tuned worlds, and unpicklable detectors are refused with a
clear error — run those on the serial backend.

Checkpoints and resume
----------------------
With a ``checkpoint_path``, the engine is additionally *resumable*: a
JSONL checkpoint records a header (a :func:`plan_fingerprint` binding
the file to this exact plan, world seed, and visit-id regime) followed
by one line per completed task outcome, appended as each shard
finishes.  A crashed run leaves the completed outcomes there; starting
the engine again with ``resume=True`` reconciles the checkpoint
against the plan — already-completed tasks are skipped and their
recorded outcomes replayed into the plan-order merge — so a resumed
run produces **byte-identical** final output to an uninterrupted one.
A fingerprint mismatch (different plan, world seed, or id regime)
raises :class:`CheckpointMismatch` rather than silently mixing two
different runs.  On success the checkpoint is removed.

Checkpointed runs always use the per-task visit-id streams (see
*Determinism* below) regardless of ``workers``, because the serial
shared-counter stream cannot survive a resume boundary: skipped tasks
would no longer advance it.  Detection records are unaffected; cookie
and uBlock values are deterministic within the per-task regime.

Determinism
-----------
For a fixed world seed the merged detection-crawl records are
*identical* — not merely equivalent — for every ``workers``/``shards``
combination: detection visits do not depend on the visit-id sequence,
and the plan-order merge removes scheduling nondeterminism.

Cookie and uBlock measurements additionally consume visit ids (the
world keys ad rotation and first-party-count jitter on them), so the
engine controls how ids are allocated:

- **Serial** (``workers=1``, the default): browsers draw from the
  network's shared monotonic counter in plan order — byte-for-byte the
  pre-engine serial harness.
- **Per-task** (the bundle backends, and every checkpointed run): every
  task gets a private visit-id stream derived from (world seed, vp,
  domain, mode, repeats), so the records are a pure function of the
  world and the plan — identical across reruns and across *any*
  backend/worker/shard combination, never dependent on scheduling.
  (Per-task values differ from the serial stream's, since the ids
  differ; each regime is internally deterministic.)

Progress and throughput are emitted through the existing
:mod:`repro.measure.instrumentation` event-log machinery (``plan``,
``shard``, ``task-retry``, ``progress``, and ``throughput`` events), so
an engine run can be recorded and inspected exactly like an
instrumented browser session.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import multiprocessing
import os
import signal
import threading
import time
import zlib
from concurrent.futures import ProcessPoolExecutor as _PyProcessPool
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import NetworkError
from repro.measure.instrumentation import Event, EventLog
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import ChaosEngine, ChaosSpec
from repro.resilience.clock import TaskMeter, active_meter
from repro.resilience.degrade import degraded_record
from repro.measure.storage import (
    RawRecord,
    atomic_replace,
    encode_record_line,
    iter_records,
    load_records,
    materialize_record,
    merge_record_spools,
    note_torn_line,
    save_records,
    validate_record_payload,
)
from repro.rng import derive_seed

#: Bumped whenever the checkpoint file layout changes; part of the
#: fingerprint, so old checkpoints are refused instead of misread.
CHECKPOINT_VERSION = 1

#: Task modes the engine knows how to dispatch (see ``Crawler.run_task``).
TASK_MODES = ("detect", "accept", "reject", "subscription", "ublock")

#: Executor backends selectable by name (``EngineSpec.executor`` /
#: ``--executor``); ``None`` picks serial for one worker, process
#: otherwise.  The one definition the spec and the CLI import.
EXECUTOR_BACKENDS = ("serial", "process", "distributed")

#: Backends whose shards run outside this process (picklable bundle
#: path, per-task visit-id regime, stock-crawler portability check).
_BUNDLE_BACKENDS = ("process", "distributed")

#: Merge strategies: in-memory plan-order assembly, or the k-way
#: streaming join over per-shard spools (O(shard buffer) memory).
MERGE_MODES = ("memory", "spool")

#: ``progress(done, total, task)`` — invoked after every completed task.
ProgressHook = Callable[[int, int, "CrawlTask"], None]


@dataclass(frozen=True)
class CrawlTask:
    """One schedulable unit of measurement work."""

    vp: str
    domain: str
    mode: str = "detect"
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.mode not in TASK_MODES:
            raise ValueError(f"unknown task mode {self.mode!r}")


def shard_of(domain: str, shards: int) -> int:
    """The stable shard index for *domain* (CRC-32, not ``hash()``)."""
    if shards <= 1:
        return 0
    return zlib.crc32(domain.encode("utf-8")) % shards


def campaign_plan(plan: "CrawlPlan") -> bool:
    """True for multi-vantage campaign plans (a scenario in context).

    Campaign records carry visit-dependent enrichment (the jar's
    third-party cookie sites), so campaign plans always run in the
    per-task visit-id regime — like checkpointed runs — to keep the
    output identical across backends and worker counts.
    """
    return bool(plan.context.get("multivantage"))


def chaos_plan(plan: "CrawlPlan") -> bool:
    """True when the plan carries a seeded chaos spec in its context.

    Chaos runs always use the per-task visit-id regime: fault rolls
    are keyed on ``(site, visit_id)``, so retries must replay the same
    visit ids for consumed faults to stay consumed — that is what makes
    the recoverable half of the differential oracle byte-identical.
    """
    chaos = plan.context.get("chaos")
    return isinstance(chaos, dict) and chaos.get("seed") is not None


class CheckpointMismatch(RuntimeError):
    """A checkpoint was produced by a different plan, world, or engine
    configuration; resuming it would silently mix two runs."""


def plan_fingerprint(
    plan: "CrawlPlan",
    *,
    world_seed: Optional[int] = None,
    world_scale: Optional[float] = None,
    world_evolution: int = 0,
    per_task_ids: bool = True,
) -> str:
    """A stable hash binding a checkpoint to one resumable run.

    Covers everything the merged output is a function of: the full
    task list (order included — outcome indices are plan positions),
    the plan context, the world identity (seed, scale, and months of
    :func:`~repro.webgen.evolve.evolve_world` drift — two snapshots
    share a seed but not a web), and the visit-id regime.  It
    deliberately excludes ``workers``/``shards``/retry settings: in
    the per-task id regime those change scheduling, never results, so
    a crawl may be resumed with a different worker count.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "world_seed": world_seed,
        "world_scale": world_scale,
        "world_evolution": world_evolution,
        "visit_ids": "per-task" if per_task_ids else "serial",
        "context": plan.context,
        "tasks": [
            [task.vp, task.domain, task.mode, task.repeats]
            for task in plan.tasks
        ],
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class CrawlPlan:
    """An ordered batch of tasks plus per-plan configuration."""

    tasks: List[CrawlTask] = field(default_factory=list)
    #: Serialisable plan-wide settings (e.g. SMP platform credentials).
    context: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.tasks)

    def sharded(self, shards: int) -> List[List[Tuple[int, CrawlTask]]]:
        """Partition into *shards* lists of ``(plan_index, task)``.

        Hash-by-domain keeps every task for one domain in one shard;
        within a shard, plan order is preserved.
        """
        buckets: List[List[Tuple[int, CrawlTask]]] = [
            [] for _ in range(max(shards, 1))
        ]
        for index, task in enumerate(self.tasks):
            buckets[shard_of(task.domain, max(shards, 1))].append((index, task))
        return buckets


@dataclass
class TaskOutcome:
    """What happened to one task: a record, or a permanent failure."""

    index: int
    task: CrawlTask
    record: Optional[object] = None
    error: Optional[str] = None
    attempts: int = 1


@dataclass
class RetryPolicy:
    """Per-task retry behaviour for transient failures.

    ``retry_on`` handles exceptions escaping ``Crawler.run_task`` (the
    stock crawler converts network failures into records instead of
    raising, but subclasses and future transports may not).
    ``retry_unreachable`` additionally re-runs detection visits that
    came back ``reachable=False``; it defaults to off because the
    paper's methodology counts unreachable sites (and a retry consumes
    extra visit ids from the serial stream).

    Backoff, jitter, and deadlines are paid on the **virtual clock**:
    no real sleeping ever happens, yet the accounting is deterministic
    (jitter derives from the task identity, never a live RNG) so the
    same policy yields the same attempt schedule on every backend.
    ``breaker_threshold``/``breaker_quarantine`` configure the
    per-domain circuit breakers; ``None`` disables them.
    """

    max_attempts: int = 2
    retry_on: Tuple[type, ...] = (NetworkError,)
    retry_unreachable: bool = False
    #: Exponential-backoff schedule (virtual seconds); base <= 0 means
    #: no inter-attempt delay.
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Deterministic jitter fraction in [0, 1]: each delay is scaled by
    #: ``1 - jitter * roll`` where roll derives from the task identity.
    jitter: float = 0.1
    #: Virtual-seconds budget for one attempt (None = unlimited); the
    #: clock raises TimeoutError when an attempt exceeds it.
    attempt_deadline: Optional[float] = None
    #: Virtual-seconds budget for one task across all attempts + backoff
    #: (None = unlimited); breached budgets degrade to DeadlineExceeded.
    task_deadline: Optional[float] = None
    #: Open a domain's circuit after this many consecutive task
    #: failures (None disables breakers entirely).
    breaker_threshold: Optional[int] = None
    #: How many tasks an open breaker skips before a half-open probe.
    breaker_quarantine: int = 4

    def backoff_delay(self, task: CrawlTask, attempt: int) -> float:
        """The virtual-seconds delay before retrying *task*'s *attempt*."""
        base = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if base <= 0.0:
            return 0.0
        if self.jitter <= 0.0:
            return base
        roll = derive_seed(
            0, "backoff", task.vp, task.domain, task.mode, task.repeats,
            attempt,
        ) % 1_000_000 / 1_000_000.0
        return base * (1.0 - self.jitter * roll)


def _execute_task(
    crawler,
    task: CrawlTask,
    context: Optional[Dict],
    retry: RetryPolicy,
    id_streams,
    on_retry: Callable[[int, str], None],
    clock=None,
) -> Tuple[Optional[object], Optional[str], int]:
    """Run one task under *retry*; returns ``(record, error, attempts)``.

    The single retry loop shared by the in-process engine and the
    process-backend workers, so both backends have identical retry
    semantics by construction.

    *id_streams* is a zero-arg factory producing a fresh visit-id
    stream (or ``None`` for the serial regime).  The stream is rebuilt
    **per attempt** so a retried task replays the same visit ids — a
    consumed chaos fault then stays consumed and the recovered attempt
    is byte-identical to a fault-free run.

    Exhausted retries and breached task deadlines never lose the task:
    they return a deterministic degraded record alongside the error, so
    every plan index lands in the merge exactly once.
    """
    meter = TaskMeter(attempt_deadline=retry.attempt_deadline)
    attempts = 0
    with active_meter(meter):
        while True:
            attempts += 1
            meter.begin_attempt()
            visit_ids = id_streams() if id_streams is not None else None
            try:
                record = crawler.run_task(task, context, visit_ids=visit_ids)
            except retry.retry_on as exc:
                error = type(exc).__name__
                if attempts >= retry.max_attempts:
                    return degraded_record(task, error), error, attempts
                delay = retry.backoff_delay(task, attempts)
                if (
                    retry.task_deadline is not None
                    and meter.cost + delay > retry.task_deadline
                ):
                    return (
                        degraded_record(task, "DeadlineExceeded"),
                        "DeadlineExceeded",
                        attempts,
                    )
                if clock is not None:
                    clock.sleep(delay)
                meter.charge(delay)
                on_retry(attempts, error)
            else:
                if (
                    retry.retry_unreachable
                    and task.mode == "detect"
                    and getattr(record, "reachable", True) is False
                    and attempts < retry.max_attempts
                ):
                    on_retry(
                        attempts,
                        getattr(record, "error", None) or "unreachable",
                    )
                    continue
                return record, None, attempts


# ---------------------------------------------------------------------------
# Process-backend worker side
# ---------------------------------------------------------------------------

#: Worlds exported by the parent before the pool starts.  Under the
#: ``fork`` start method workers inherit this populated dict and skip
#: the rebuild entirely; under ``spawn`` (and on distributed workers)
#: it starts empty and the first shard of each world pays one
#: deterministic build in :func:`_worker_world`.
_SHARED_WORLDS: Dict[Tuple, object] = {}

#: Per-process world cache keyed by world key, for workers that had to
#: build (fork-started ones use _SHARED_WORLDS): one build per key per
#: process, evolved snapshots included.
_WORKER_WORLDS: Dict[Tuple, object] = {}

#: Run-constant state a worker shares across its shards (world key,
#: detectors, retry policy, plan context).  Installed once per worker
#: by the pool initializer instead of travelling in every bundle, so
#: e.g. a multi-MB ublock_lists payload pickles per *worker*, not per
#: shard.
_WORKER_SHARED: Dict[str, object] = {}


def _init_worker_shared(shared: Dict[str, object]) -> None:
    """Pool initializer: install the run-constant half of the bundles."""
    _WORKER_SHARED.clear()
    _WORKER_SHARED.update(shared)


def _task_id_base(world_seed: int, task: CrawlTask) -> int:
    """The per-task visit-id stream seed (one derivation, all backends).

    Both the in-process engine and the process-backend bundles derive
    stream seeds through this function, so the cross-backend
    byte-identity contract cannot be broken by editing one copy.
    """
    return derive_seed(
        world_seed, "engine-task-visits",
        task.vp, task.domain, task.mode, task.repeats,
    )


def _id_stream(base: int) -> Callable[[], int]:
    """The deterministic visit-id stream rooted at *base*."""
    counter = itertools.count()
    return lambda: derive_seed(base, next(counter))


def _worker_world(world_key: Tuple, latency: float, latency_mode: str = "virtual"):
    """The (cached or fork-inherited) world a worker process uses.

    A miss costs one build: an evolved key ``(seed, scale, months)``
    builds its snapshot straight from the config, not a baseline world
    first (the drift reads only the config).
    """
    world = _SHARED_WORLDS.get(world_key) or _WORKER_WORLDS.get(world_key)
    if world is None:
        # Imported lazily — repro.measure.crawl imports this module.
        from repro.webgen.config import WorldConfig
        from repro.webgen.evolve import build_evolved_world
        from repro.webgen.world import build_world

        seed, scale, evolution = world_key
        config = WorldConfig(seed=seed, scale=scale)
        if evolution:
            world, _ = build_evolved_world(config, months=evolution)
        else:
            world = build_world(config)
        _WORKER_WORLDS[world_key] = world
    world.network.latency = latency
    world.network.latency_mode = latency_mode
    return world


def _run_shard_bundle(bundle: Dict) -> Dict:
    """Execute one picklable shard bundle inside a worker process.

    Returns serialized outcomes — each record is dumped **once**, in
    the worker, to its canonical JSONL line
    (:func:`~repro.measure.storage.encode_record_line`); the parent
    passes those bytes through to spools and checkpoints without ever
    decoding them — plus the worker's pid and elapsed time, so the
    parent can attribute per-process throughput.
    """
    started = time.perf_counter()
    from repro.measure.crawl import Crawler

    shared = _WORKER_SHARED
    world = _worker_world(
        tuple(shared["world"]),
        shared["latency"],
        shared.get("latency_mode", "virtual"),
    )
    crawler = Crawler(
        world,
        bannerclick=shared["bannerclick"],
        language_detector=shared["language_detector"],
        ublock_lists=shared["ublock_lists"],
    )
    retry: RetryPolicy = shared["retry"]
    context = shared["context"]
    chaos_ctx = (context or {}).get("chaos")
    world.network.chaos = (
        ChaosEngine(ChaosSpec.from_context(chaos_ctx)) if chaos_ctx else None
    )
    breakers: Dict[str, CircuitBreaker] = {}
    if retry.breaker_threshold is not None:
        snapshots = bundle.get("breakers") or {}
        for entry in bundle["tasks"]:
            domain = entry[2]
            if domain not in breakers:
                breakers[domain] = CircuitBreaker(
                    domain,
                    threshold=retry.breaker_threshold,
                    quarantine=retry.breaker_quarantine,
                    snapshot=snapshots.get(domain),
                )
    kill_after = bundle.get("kill_after")
    outcomes: List[Dict] = []
    retries: List[Dict] = []
    breaker_events: List[Dict] = []
    for position, (index, vp, domain, mode, repeats) in enumerate(
        bundle["tasks"]
    ):
        if kill_after is not None and position >= kill_after:
            # Fault injection (the ``kill_after`` bundle override): die
            # the way a real worker does — no cleanup, no exception,
            # just gone.
            os.kill(os.getpid(), signal.SIGKILL)
        task = CrawlTask(vp=vp, domain=domain, mode=mode, repeats=repeats)
        breaker = breakers.get(domain)
        if breaker is not None and not breaker.allow():
            outcomes.append({
                "index": index,
                "attempts": 0,
                "error": "BreakerOpenError",
                "record": encode_record_line(
                    degraded_record(task, "BreakerOpenError")
                ),
            })
            continue
        base = bundle["id_bases"].get(index)
        id_streams = (
            (lambda base=base: _id_stream(base)) if base is not None else None
        )
        record, error, attempts = _execute_task(
            crawler, task, context, retry, id_streams,
            lambda attempt, err: retries.append({
                "index": index, "vp": vp, "domain": domain, "mode": mode,
                "attempt": attempt, "error": err,
            }),
            clock=world.network.clock,
        )
        if breaker is not None:
            transition = breaker.record(error is None)
            if transition is not None:
                breaker_events.append(
                    {"domain": domain, "transition": transition}
                )
        outcomes.append({
            "index": index,
            "attempts": attempts,
            "error": error,
            "record": (
                encode_record_line(record) if record is not None else None
            ),
        })
    return {
        "shard": bundle["shard"],
        "pid": os.getpid(),
        "elapsed": time.perf_counter() - started,
        "outcomes": outcomes,
        "retries": retries,
        "breakers": {
            domain: breaker.snapshot() for domain, breaker in breakers.items()
        },
        "breaker_events": breaker_events,
    }


@dataclass(frozen=True)
class CheckpointCompaction:
    """What :meth:`CrawlEngine.compact_checkpoint` did to one file."""

    path: Path
    #: Outcome lines kept (the latest per plan index).
    kept: int
    #: Superseded/duplicate outcome lines dropped.
    dropped: int
    fingerprint: str

    def render(self) -> str:
        return (
            f"{self.path}: kept {self.kept} outcomes, dropped "
            f"{self.dropped} (fingerprint {self.fingerprint})"
        )


# ---------------------------------------------------------------------------
# Streaming checkpoint machinery
#
# A checkpoint is append-only: each shard flush (and each reconcile
# rewrite) appends one index-sorted batch of outcome lines, so the file
# is a concatenation of *sorted runs*.  That structure makes both
# resume and compaction streamable: a byte-offset scan finds the run
# boundaries, then a k-way ``heapq.merge`` over the runs yields every
# outcome in plan order — duplicates adjacent, latest occurrence last
# (``heapq.merge`` is stable, and the runs are passed in file order) —
# with one buffered line per run in memory, never the full replay set.
# ---------------------------------------------------------------------------

@dataclass
class _CheckpointScan:
    """Pass 1 of a streaming checkpoint read: structure, not payloads."""

    #: The header line exactly as found (no newline).
    header_line: str
    header: Dict
    #: Byte offset where each sorted run's first outcome line starts.
    runs: List[int]
    #: Byte offset just past the last complete line (a torn trailing
    #: line is excluded, as on any checkpoint read).
    end: int
    #: Total outcome lines (duplicates included).
    outcome_lines: int
    #: Unique plan indices with a checkpointed outcome.
    indices: Set[int]
    #: Latest-wins circuit-breaker snapshots keyed by domain
    #: (``{"kind": "breaker"}`` lines appended at shard flushes).
    breakers: Dict[str, Dict] = field(default_factory=dict)


def _scan_checkpoint(
    path: Path,
    *,
    validate: Optional[Callable[[int, Dict], None]] = None,
    on_header: Optional[Callable[[Dict], None]] = None,
) -> _CheckpointScan:
    """Scan *path* once, collecting run boundaries and the index set.

    Structural errors raise :class:`ValueError` (mid-file corruption,
    an outcome without an integer index) or :class:`CheckpointMismatch`
    (not a checkpoint at all); *validate* may add per-outcome checks
    and *on_header* runs as soon as the header parses, so e.g. a
    fingerprint mismatch is reported before the rest of the file is
    read.  Only integers ever accumulate here — record payloads stay
    on disk.
    """
    header_line: Optional[str] = None
    header: Optional[Dict] = None
    runs: List[int] = []
    end = 0
    outcome_lines = 0
    indices: Set[int] = set()
    breakers: Dict[str, Dict] = {}
    prev_index: Optional[int] = None
    #: A decode failure held back one line: only if another line
    #: follows is it corruption rather than a torn final write.
    pending: Optional[Tuple[int, Exception]] = None
    offset = 0
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line_start = offset
            offset += len(raw)
            if pending is not None:
                bad_line, error = pending
                raise ValueError(
                    f"{path}:{bad_line}: invalid JSON mid-file ({error})"
                )
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError as error:
                pending = (line_number, error)
                continue
            if not text:
                continue
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                pending = (line_number, error)
                continue
            kind = (
                payload.get("kind") if isinstance(payload, dict) else None
            )
            if header is None:
                if kind != "header":
                    raise CheckpointMismatch(
                        f"{path}: not a crawl checkpoint "
                        f"(first line is {kind!r})"
                    )
                header_line = text
                header = payload
                if on_header is not None:
                    on_header(header)
                end = offset
                continue
            if kind != "outcome":
                if kind == "breaker" and isinstance(
                    payload.get("domains"), dict
                ):
                    # Latest-wins by file order: a re-flushed shard's
                    # newer snapshot overwrites the stale one.
                    breakers.update(payload["domains"])
                end = offset
                continue
            index = payload.get("index")
            if not isinstance(index, int):
                raise ValueError(
                    f"{path}:{line_number}: outcome without an index"
                )
            if validate is not None:
                validate(line_number, payload)
            outcome_lines += 1
            indices.add(index)
            if prev_index is None or index <= prev_index:
                runs.append(line_start)
            prev_index = index
            end = offset
    if pending is not None:
        bad_line, error = pending
        note_torn_line(path, bad_line, error)
    if header is None or header_line is None:
        raise CheckpointMismatch(f"{path}: not a crawl checkpoint (empty)")
    return _CheckpointScan(
        header_line=header_line,
        header=header,
        runs=runs,
        end=end,
        outcome_lines=outcome_lines,
        indices=indices,
        breakers=breakers,
    )


def _breaker_line(snapshots: Dict[str, Dict]) -> str:
    """One ``{"kind": "breaker"}`` checkpoint line for *snapshots*."""
    return json.dumps(
        {"kind": "breaker", "domains": snapshots},
        ensure_ascii=False,
        sort_keys=True,
    ) + "\n"


def _iter_checkpoint_run(
    path: Path, start: int, stop: int
) -> Iterator[Tuple[int, Dict, str]]:
    """Stream one sorted run's ``(index, payload, line)`` triples."""
    with open(path, "rb") as handle:
        handle.seek(start)
        position = start
        while position < stop:
            raw = handle.readline()
            if not raw:
                break
            position += len(raw)
            text = raw.decode("utf-8").strip()
            if not text:
                continue
            payload = json.loads(text)
            if payload.get("kind") != "outcome":
                continue
            yield payload["index"], payload, text


def _merge_checkpoint_runs(
    path: Path, scan: _CheckpointScan
) -> Iterator[Tuple[int, Dict, str]]:
    """Latest-wins plan-order stream over a checkpoint's sorted runs.

    Duplicated indices (a shard re-run after a crash) collapse to the
    occurrence latest in the file — the append order is the authority
    — exactly like the dict-based compaction this replaces, but with
    one buffered line per run instead of the whole outcome set.
    """
    bounds = scan.runs + [scan.end]
    streams = [
        _iter_checkpoint_run(path, bounds[i], bounds[i + 1])
        for i in range(len(scan.runs))
    ]
    held: Optional[Tuple[int, Dict, str]] = None
    for item in heapq.merge(*streams, key=lambda item: item[0]):
        if held is not None and item[0] != held[0]:
            yield held
        held = item
    if held is not None:
        yield held


@dataclass
class CheckpointReplay:
    """What a streaming reconcile replays into the current run.

    The spool-merge resume path deliberately holds no records: the
    completed *indices* (ints), the — small — permanent failures, and
    the path of the sorted replay part file the k-way join consumes.
    Only the in-memory merge materialises replayed outcomes, and even
    those carry zero-copy :class:`~repro.measure.storage.RawRecord`
    payloads until a consumer looks inside.
    """

    completed: Set[int] = field(default_factory=set)
    #: Latest-wins permanently failed outcomes (spool merge only).
    failures: List["TaskOutcome"] = field(default_factory=list)
    #: In-memory merge only: every replayed outcome, records zero-copy.
    outcomes: List["TaskOutcome"] = field(default_factory=list)
    #: Spool merge only: the index-sorted record replay file, if any
    #: completed outcome carried a record.
    resume_part: Optional[Path] = None
    #: Circuit-breaker snapshots restored from the checkpoint, keyed
    #: by domain — adopted into the engine's registry before execution
    #: so quarantine survives a kill/resume.
    breakers: Dict[str, Dict] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.completed)


@dataclass
class EngineResult:
    """Merged outcomes of one engine run, in canonical (plan) order.

    In the default in-memory merge, :attr:`outcomes` holds every
    :class:`TaskOutcome`.  Under ``merge="spool"`` the outcomes were
    streamed to disk instead: :attr:`outcomes` is ``None``, the final
    records live at :attr:`spool_path` (stream them with
    :meth:`iter_records`; :attr:`records` materialises them on
    demand), and only the counts plus the — small — permanent-failure
    list are kept in memory.
    """

    outcomes: Optional[List[TaskOutcome]] = field(default_factory=list)
    elapsed: float = 0.0
    #: Outcomes replayed from a checkpoint rather than executed.
    resumed: int = 0
    #: Spool-merge mode only: where the merged records were written.
    spool_path: Optional[Path] = None
    #: Spool-merge mode only: total task count (``len(plan)``).
    total: Optional[int] = None
    #: Spool-merge mode only: records written to :attr:`spool_path`.
    spooled_records: int = 0
    #: Spool-merge mode only: the permanently failed outcomes.
    spooled_failures: List[TaskOutcome] = field(default_factory=list)

    @property
    def streamed(self) -> bool:
        """True when this result was spool-merged (outcomes on disk)."""
        return self.outcomes is None

    @property
    def executed(self) -> int:
        """Tasks actually run this invocation (resumed ones excluded)."""
        return len(self) - self.resumed

    @property
    def records(self) -> List[object]:
        """The produced records, plan-ordered, skipping failed tasks.

        For a spool-merged result this *materialises* the full list
        from disk — prefer :meth:`iter_records` at scale.  Outcomes
        that travelled zero-copy (process workers, checkpoint replay)
        are decoded here, at the consumer boundary — the first time
        anyone actually needs the typed objects.
        """
        if self.outcomes is None:
            # reprolint: disable=materialized-records -- .records IS the documented materialising consumer API; iter_records is the streaming twin
            return load_records(self.spool_path)
        return [
            materialize_record(o.record)
            for o in self.outcomes
            if o.record is not None
        ]

    def iter_records(self) -> Iterator[object]:
        """Stream the records in plan order without materialising."""
        if self.outcomes is None:
            yield from iter_records(self.spool_path)
            return
        for outcome in self.outcomes:
            if outcome.record is not None:
                yield materialize_record(outcome.record)

    @property
    def record_count(self) -> int:
        """Number of produced records (no materialisation needed)."""
        if self.outcomes is None:
            return self.spooled_records
        return sum(1 for o in self.outcomes if o.record is not None)

    @property
    def failures(self) -> List[TaskOutcome]:
        if self.outcomes is None:
            return list(self.spooled_failures)
        return [o for o in self.outcomes if o.error is not None]

    @property
    def tasks_per_sec(self) -> float:
        """Execution throughput — replayed outcomes took no work, so
        they do not count (a 90%-resumed run is not 10× faster)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.executed / self.elapsed

    def __len__(self) -> int:
        if self.outcomes is None:
            return self.total if self.total is not None else 0
        return len(self.outcomes)


class Executor:
    """Strategy interface: run sharded tasks, return unordered outcomes."""

    def run(
        self,
        sharded: List[List[Tuple[int, CrawlTask]]],
        run_shard: Callable[[int, List[Tuple[int, CrawlTask]]], List[TaskOutcome]],
    ) -> List[TaskOutcome]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Runs shards one after another on the calling thread."""

    def run(self, sharded, run_shard):
        outcomes: List[TaskOutcome] = []
        for shard_id, items in enumerate(sharded):
            if items:
                outcomes.extend(run_shard(shard_id, items))
        return outcomes


class ProcessExecutor(Executor):
    """Runs shards in worker *processes* (``ProcessPoolExecutor``).

    The closure-based :meth:`Executor.run` contract cannot cross a
    process boundary, so this executor instead consumes picklable
    shard bundles built by the engine (:meth:`CrawlEngine.
    _process_bundle`) and hands each completed shard's serialized
    payload back through a callback — in completion order, so the
    engine checkpoints and spools each shard as soon as it lands.

    The start method defaults to ``fork`` where available (workers
    inherit the parent's already-built world through
    ``_SHARED_WORLDS`` for free) and falls back to ``spawn``, where
    each worker deterministically rebuilds the world from its key on
    first use.
    """

    uses_processes = True

    def __init__(self, workers: int, *, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.start_method = start_method

    def _mp_context(self):
        method = self.start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        return multiprocessing.get_context(method)

    def bundle_overrides(self, shard_id: int, task_count: int) -> Dict:
        """Extra bundle keys for *shard_id* (the fault-injection hook)."""
        return {}

    def run_bundles(
        self,
        bundles: List[Dict],
        on_shard: Callable[[Dict], None],
        shared: Dict[str, object],
    ) -> None:
        """Run *bundles*, invoking *on_shard* per completed payload.

        *shared* is the run-constant half of the work (world key,
        detectors, retry policy, context), installed once per worker
        via the pool initializer rather than pickled into every
        bundle.

        A worker that dies (or a bundle that raises) surfaces here as
        the pool's exception, after the shards whose results were
        already delivered have been absorbed.  Note the broken-pool
        caveat: when a worker dies, ``concurrent.futures`` voids *all*
        unfinished futures — including shards mid-flight in healthy
        sibling workers — so those shards simply re-run on resume.
        Correctness is unaffected (the checkpoint holds exactly the
        delivered shards); the amount of re-executed work under a
        multi-worker crash is scheduling-dependent.
        """
        with _PyProcessPool(
            max_workers=self.workers,
            mp_context=self._mp_context(),
            initializer=_init_worker_shared,
            initargs=(shared,),
        ) as pool:
            futures = [
                pool.submit(_run_shard_bundle, bundle) for bundle in bundles
            ]
            for future in as_completed(futures):
                on_shard(future.result())


class CrawlEngine:
    """Compiles nothing, schedules everything: executes a
    :class:`CrawlPlan` through an executor and merges the outcomes.

    Parameters
    ----------
    crawler:
        The :class:`~repro.measure.crawl.Crawler` whose ``run_task``
        performs one task.
    workers:
        Degree of parallelism.  Without an explicit *backend*, ``1``
        (default) selects :class:`SerialExecutor` and ``>1`` a
        :class:`ProcessExecutor` with that many worker processes.
    backend:
        Executor backend by name — one of :data:`EXECUTOR_BACKENDS`
        (see the module docstring); ``None`` keeps the workers-based
        rule above.  The process and distributed backends require a
        stock crawler over a built world (pickling constraints) and
        always use per-task visit-id streams.
    merge:
        ``"memory"`` (default) assembles the merged outcome list in
        memory; ``"spool"`` streams shard outcomes to per-shard spools
        and produces the final file via a k-way plan-order streaming
        join, keeping memory O(one shard) — requires *spool_path*.
    shards:
        Shard count; defaults to ``1`` when serial and ``4 × workers``
        otherwise.  A shard is the unit of concurrency (tasks
        within it run serially), so effective parallelism is
        ``min(workers, shards)``.  The merged result is independent of
        it for detection crawls (see module docstring).
    retry:
        :class:`RetryPolicy` for transient failures.
    event_log:
        An :class:`~repro.measure.instrumentation.EventLog` receiving
        ``plan`` / ``shard`` / ``task-retry`` / ``progress`` /
        ``throughput`` events.
    progress:
        ``progress(done, total, task)`` called after every completed
        task (serialised under the engine lock).
    spool_path:
        When set, each finished shard's records are appended to
        ``<spool_path>.partial`` as the crawl runs (a crash leaves the
        completed shards there and the previous complete output
        untouched); on success the final file is written to
        *spool_path* in canonical plan order — identical runs produce
        byte-identical files.  This is crash durability, not a memory
        saving: the merged result is still assembled in memory.
    checkpoint_path:
        When set, completed task outcomes (records *and* permanent
        failures, with their plan indices) are appended to this JSONL
        checkpoint as shards finish, under a :func:`plan_fingerprint`
        header.  Enables crash-safe resume — see the module docstring.
        Checkpointed runs always use per-task visit-id streams, even
        when serial.  Removed on success.
    resume:
        With ``resume=True`` an existing checkpoint is reconciled
        against the plan before execution: completed tasks are skipped
        and their outcomes replayed into the merge.  A fingerprint
        mismatch raises :class:`CheckpointMismatch`; a missing
        checkpoint simply starts fresh.
    executor:
        Override the executor strategy (a test/fault-injection hook);
        by default chosen from *workers* as described above.
    """

    def __init__(
        self,
        crawler,
        *,
        workers: int = 1,
        shards: Optional[int] = None,
        backend: Optional[str] = None,
        merge: str = "memory",
        retry: Optional[RetryPolicy] = None,
        event_log: Optional[EventLog] = None,
        progress: Optional[ProgressHook] = None,
        progress_every: int = 1000,
        spool_path=None,
        checkpoint_path: Union[str, Path, None] = None,
        resume: bool = False,
        executor: Optional[Executor] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend is not None and backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r} "
                f"(known: {', '.join(EXECUTOR_BACKENDS)})"
            )
        if backend == "serial" and workers > 1:
            raise ValueError(
                "backend='serial' contradicts workers > 1 "
                "(pick 'process' or 'distributed' to parallelise)"
            )
        if merge not in MERGE_MODES:
            raise ValueError(
                f"unknown merge mode {merge!r} "
                f"(known: {', '.join(MERGE_MODES)})"
            )
        if merge == "spool" and spool_path is None:
            raise ValueError(
                "merge='spool' streams to per-shard spools and needs a "
                "spool_path for the final join"
            )
        self.crawler = crawler
        self.workers = workers
        self.backend = backend
        self.merge = merge
        self.executor = executor
        self.shards = shards if shards is not None else (
            workers * 4 if self._bundled else 1
        )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self.retry = retry or RetryPolicy()
        self.event_log = event_log
        self.progress = progress
        self.progress_every = max(progress_every, 1)
        self.spool_path = spool_path
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        if resume and self.checkpoint_path is None:
            # A silently ignored resume would re-run everything while
            # the caller believes the checkpoint was honoured.
            raise ValueError("resume=True requires a checkpoint_path")
        self.resume = resume
        self._spool_partial: Optional[Path] = None
        #: Spool-merge run state: part files written so far.
        self._merge_parts: List[Path] = []
        #: pid -> [shards, tasks, elapsed] for process-backend runs.
        self._process_stats: Dict[int, List] = {}
        self._lock = threading.Lock()
        #: Separate lock for the caller's progress hook, so a slow (or
        #: engine-reentrant) hook can never stall spool writes or
        #: deadlock against the engine's own lock.
        self._progress_lock = threading.Lock()
        self._done = 0
        self._total = 0
        #: Per-domain circuit breakers (populated in execute() when the
        #: retry policy enables them; adopted from checkpoint replays).
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: The crawler world's virtual clock, when it has one — retry
        #: backoff is paid here instead of sleeping.
        self._clock = None

    # ------------------------------------------------------------------
    @property
    def resolved_backend(self) -> str:
        """The effective backend name (explicit, or the workers rule)."""
        if self.backend is not None:
            return self.backend
        return "serial" if self.workers == 1 else "process"

    @property
    def _bundled(self) -> bool:
        """Whether this run is configured for the bundle backends.

        An explicitly injected process executor counts like a named
        bundle backend: it flips the shards default and the visit-id
        regime exactly like ``backend="process"``.
        """
        return (
            self.resolved_backend in _BUNDLE_BACKENDS
            or getattr(self.executor, "uses_processes", False)
        )

    @property
    def per_task_ids(self) -> bool:
        """Whether tasks get private visit-id streams (module docstring).

        True for the bundle backends (worker processes cannot share the
        serial counter) and for every checkpointed run: the serial
        shared-counter stream cannot survive a resume boundary, since
        replayed tasks would no longer advance it.
        """
        return self._bundled or self.checkpoint_path is not None

    def fingerprint(self, plan: CrawlPlan) -> str:
        """The :func:`plan_fingerprint` of *plan* under this engine."""
        world = getattr(self.crawler, "world", None)
        config = getattr(world, "config", None)
        return plan_fingerprint(
            plan,
            world_seed=getattr(config, "seed", None),
            world_scale=getattr(config, "scale", None),
            world_evolution=getattr(world, "evolution_months", 0),
            per_task_ids=(
                self.per_task_ids or campaign_plan(plan) or chaos_plan(plan)
            ),
        )

    def execute(self, plan: CrawlPlan) -> EngineResult:
        """Run *plan* and return the plan-ordered merged result."""
        sharded = plan.sharded(self.shards)
        self._total = len(plan)
        self._spool_partial = None
        self._merge_parts = []
        self._process_stats = {}
        # Spool preparation runs *before* the checkpoint reconcile: the
        # reconcile streams the replay records straight into this
        # run's .resume.part, which the cleanup of an interrupted
        # earlier run's part files would otherwise delete.
        if self.spool_path is not None:
            if self.merge == "spool":
                # Part files from an interrupted earlier run would
                # contaminate this run's k-way join; shards open their
                # part files directly, so the directory must exist.
                Path(self.spool_path).parent.mkdir(
                    parents=True, exist_ok=True
                )
                self._cleanup_parts()
            else:
                self._spool_partial = Path(f"{self.spool_path}.partial")
                save_records([], self._spool_partial)
        replay = self._reconcile_checkpoint(plan)
        self._breakers = {}
        if self.retry.breaker_threshold is not None:
            # Pre-created before execution: shards only ever look their
            # domain's breaker up, never mutate the registry.
            for task in plan.tasks:
                if task.domain not in self._breakers:
                    self._breakers[task.domain] = CircuitBreaker(
                        task.domain,
                        threshold=self.retry.breaker_threshold,
                        quarantine=self.retry.breaker_quarantine,
                    )
            for domain, snapshot in replay.breakers.items():
                breaker = self._breakers.get(domain)
                if breaker is not None:
                    breaker.adopt(snapshot)
        if replay.completed:
            sharded = [
                [
                    (index, task) for index, task in shard
                    if index not in replay.completed
                ]
                for shard in sharded
            ]
        self._done = replay.count
        self._emit("plan", "engine://plan", {
            "tasks": len(plan),
            "shards": self.shards,
            "workers": self.workers,
            "backend": self.resolved_backend,
            "merge": self.merge,
        })
        if replay.count:
            self._emit("resume", "engine://resume", {
                "completed": replay.count,
                "remaining": len(plan) - replay.count,
            })
        executor: Executor = self.executor or self._default_executor()
        network = getattr(getattr(self.crawler, "world", None), "network", None)
        self._clock = getattr(network, "clock", None)
        chaos_ctx = plan.context.get("chaos")
        installed_chaos = False
        if network is not None and isinstance(chaos_ctx, dict):
            network.chaos = ChaosEngine(ChaosSpec.from_context(chaos_ctx))
            installed_chaos = True
        started = time.perf_counter()
        try:
            if getattr(executor, "uses_processes", False):
                outcomes = self._run_process_shards(executor, plan, sharded)
            else:
                outcomes = executor.run(
                    sharded,
                    lambda sid, items: self._run_shard(plan, sid, items),
                )
        finally:
            if installed_chaos:
                network.chaos = None
        elapsed = time.perf_counter() - started
        self._emit_process_throughput()
        if self.merge == "spool":
            result = self._finalise_spool_merge(
                plan, replay, outcomes, elapsed
            )
        else:
            outcomes.extend(replay.outcomes)
            outcomes.sort(key=lambda outcome: outcome.index)
            result = EngineResult(
                outcomes=outcomes, elapsed=elapsed, resumed=replay.count
            )
            if self.spool_path is not None:
                # Shards appended to the .partial file in completion
                # order (a crash leaves them there, and the previous
                # complete output untouched); success atomically
                # replaces the canonical file and drops the partial.
                # Iterating the outcomes directly (not .records) keeps
                # zero-copy records serialized end to end.
                save_records(
                    (
                        o.record for o in outcomes
                        if o.record is not None
                    ),
                    self.spool_path,
                )
                if self._spool_partial is not None:
                    self._spool_partial.unlink(missing_ok=True)
        if self.checkpoint_path is not None:
            # The run completed; its durable output (if any) is final.
            self.checkpoint_path.unlink(missing_ok=True)
        self._emit("throughput", "engine://throughput", {
            "tasks": result.executed,
            "resumed": result.resumed,
            "elapsed": elapsed,
            "tasks_per_sec": result.tasks_per_sec,
        })
        return result

    def _default_executor(self) -> Executor:
        """The executor the resolved backend names.

        Each shard is one unit of concurrency, so workers beyond the
        shard count would only idle.
        """
        backend = self.resolved_backend
        if backend == "serial":
            return SerialExecutor()
        workers = min(self.workers, self.shards)
        if backend == "process":
            return ProcessExecutor(workers)
        # Imported lazily — repro.distributed builds on this module.
        from repro.distributed import DistributedExecutor

        return DistributedExecutor(workers)

    # ------------------------------------------------------------------
    # Process backend (picklable shard bundles)
    # ------------------------------------------------------------------
    def _check_process_portable(self) -> None:
        """Refuse crawls a worker process cannot reconstruct."""
        from repro.measure.crawl import Crawler

        if type(self.crawler) is not Crawler:
            raise ValueError(
                "the process backend ships picklable task bundles and "
                "rebuilds the stock Crawler in each worker; "
                f"{type(self.crawler).__name__} cannot cross the process "
                "boundary (run it on the serial backend)"
            )
        config = getattr(getattr(self.crawler, "world", None), "config", None)
        if config is None or getattr(config, "seed", None) is None:
            raise ValueError(
                "the process backend rebuilds the world from its "
                "(seed, scale, evolution) key; this crawler's world has "
                "no build config"
            )
        from repro.webgen.config import WorldConfig

        if config != WorldConfig(seed=config.seed, scale=config.scale):
            # A spawn-started worker rebuilds with build_world(scale,
            # seed) only; hand-tuned population knobs would silently
            # produce a *different web* in the worker, so refuse them
            # up front (fork-started workers would mask this locally).
            raise ValueError(
                "the process backend rebuilds the world from (seed, "
                "scale) alone; this world's config carries non-default "
                "knobs a worker could not reproduce (run it on the "
                "serial backend)"
            )

    def _run_process_shards(
        self,
        executor: "ProcessExecutor",
        plan: CrawlPlan,
        sharded: List[List[Tuple[int, CrawlTask]]],
    ) -> List[TaskOutcome]:
        self._check_process_portable()
        world = self.crawler.world
        config = world.config
        world_key = (
            config.seed, config.scale, getattr(world, "evolution_months", 0)
        )
        # Fork-started workers inherit this entry and skip the rebuild;
        # spawn-started ones build deterministically from the key.
        _SHARED_WORLDS[world_key] = world
        # The run-constant half, installed once per worker by the pool
        # initializer.  The live detector instances travel here, so
        # configured (e.g. ablation) detectors behave the same in a
        # worker as in-process; an unpicklable custom detector fails
        # loudly at pool start.
        shared = {
            "world": world_key,
            "latency": getattr(world.network, "latency", 0.0),
            "latency_mode": getattr(world.network, "latency_mode", "virtual"),
            "bannerclick": self.crawler.bannerclick,
            "language_detector": self.crawler._lang,
            "ublock_lists": self.crawler.ublock_lists,
            "context": plan.context,
            "retry": self.retry,
        }
        bundles: List[Dict] = []
        for shard_id, items in enumerate(sharded):
            if not items:
                continue
            shard_breakers: Dict[str, Dict] = {}
            for _, task in items:
                breaker = self._breakers.get(task.domain)
                if breaker is not None and task.domain not in shard_breakers:
                    shard_breakers[task.domain] = breaker.snapshot()
            bundle = {
                "shard": shard_id,
                "tasks": [
                    (index, task.vp, task.domain, task.mode, task.repeats)
                    for index, task in items
                ],
                "id_bases": {
                    index: _task_id_base(config.seed, task)
                    for index, task in items
                },
                "breakers": shard_breakers,
            }
            bundle.update(executor.bundle_overrides(shard_id, len(items)))
            bundles.append(bundle)
        collected: List[TaskOutcome] = []
        try:
            executor.run_bundles(
                bundles,
                lambda payload: collected.extend(
                    self._absorb_process_shard(plan, payload)
                ),
                shared,
            )
        finally:
            _SHARED_WORLDS.pop(world_key, None)
        return collected

    def _absorb_process_shard(
        self, plan: CrawlPlan, payload: Dict
    ) -> List[TaskOutcome]:
        """Deserialise one worker's shard payload into the merge path."""
        pid = payload["pid"]
        with self._lock:
            stats = self._process_stats.setdefault(pid, [0, 0, 0.0])
            stats[0] += 1
            stats[1] += len(payload["outcomes"])
            stats[2] += payload["elapsed"]
        for note in payload["retries"]:
            self._emit_retry(
                note["index"],
                plan.tasks[note["index"]],
                note["attempt"],
                note["error"],
            )
        outcomes = [
            TaskOutcome(
                index=entry["index"],
                task=plan.tasks[entry["index"]],
                # The worker shipped the canonical serialized line;
                # wrap it opaque — spool and checkpoint writes splice
                # these bytes straight through, and a decode happens
                # only if a consumer inspects the record's fields.
                record=(
                    RawRecord(entry["record"])
                    if entry["record"] is not None else None
                ),
                error=entry["error"],
                attempts=entry["attempts"],
            )
            for entry in payload["outcomes"]
        ]
        # Adopt the worker-final breaker states *before* the shard
        # flush, so the checkpoint's breaker line reflects them.
        for domain, snapshot in payload.get("breakers", {}).items():
            breaker = self._breakers.get(domain)
            if breaker is not None:
                breaker.adopt(snapshot)
        for event in payload.get("breaker_events", []):
            self._emit(
                f"breaker-{event['transition']}",
                f"engine://breaker/{event['domain']}",
                {"domain": event["domain"]},
            )
        for outcome in outcomes:
            if outcome.error is not None:
                self._emit(
                    "task-degraded",
                    f"engine://task/{outcome.index}",
                    {
                        "index": outcome.index,
                        "domain": outcome.task.domain,
                        "error": outcome.error,
                        "attempts": outcome.attempts,
                    },
                )
        kept = self._finish_shard(
            payload["shard"], outcomes, payload["elapsed"], pid=pid
        )
        for outcome in outcomes:
            self._advance(outcome.task)
        return kept

    def _emit_process_throughput(self) -> None:
        for pid, (shards, tasks, elapsed) in sorted(
            self._process_stats.items()
        ):
            self._emit("process-throughput", f"engine://process/{pid}", {
                "pid": pid,
                "shards": shards,
                "tasks": tasks,
                "elapsed": elapsed,
                "tasks_per_sec": tasks / elapsed if elapsed > 0 else 0.0,
            })

    # ------------------------------------------------------------------
    # Spool-backed merge
    # ------------------------------------------------------------------
    def _part_path(self, shard_id: int) -> Path:
        return Path(f"{self.spool_path}.shard{shard_id:04d}.part")

    def _cleanup_parts(self) -> None:
        spool = Path(self.spool_path)
        for stale in spool.parent.glob(f"{spool.name}.shard*.part"):
            stale.unlink(missing_ok=True)
        Path(f"{self.spool_path}.resume.part").unlink(missing_ok=True)

    def _finalise_spool_merge(
        self,
        plan: CrawlPlan,
        replay: CheckpointReplay,
        failure_outcomes: List[TaskOutcome],
        elapsed: float,
    ) -> EngineResult:
        """The k-way plan-order streaming join over the shard spools.

        The replay records were already streamed to their own sorted
        part file during the checkpoint reconcile; they join here as
        one more input to the merge — the resume path never holds
        them in memory.
        """
        parts = list(self._merge_parts)
        failures = list(failure_outcomes)
        if replay.resume_part is not None:
            parts.append(replay.resume_part)
        failures.extend(replay.failures)
        count = merge_record_spools(parts, self.spool_path)
        for part in parts:
            Path(part).unlink(missing_ok=True)
        failures.sort(key=lambda outcome: outcome.index)
        return EngineResult(
            outcomes=None,
            elapsed=elapsed,
            resumed=replay.count,
            spool_path=Path(self.spool_path),
            total=len(plan),
            spooled_records=count,
            spooled_failures=failures,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_header(self, fingerprint: str, tasks: int) -> str:
        header = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "tasks": tasks,
        }
        return json.dumps(header, ensure_ascii=False) + "\n"

    def _reconcile_checkpoint(self, plan: CrawlPlan) -> CheckpointReplay:
        """Streaming resume: reconcile the checkpoint, (re)start the file.

        The checkpoint is rewritten as header + latest-wins outcomes in
        plan order (so it stays canonical — and compact — across
        repeated resumes) in one k-way streaming pass over its sorted
        runs; under the spool merge the replay records flow straight
        into the ``.resume.part`` file during that same pass.  The
        returned :class:`CheckpointReplay` therefore carries the
        completed index set, never the records.
        """
        replay = CheckpointReplay()
        if self.checkpoint_path is None:
            return replay
        fingerprint = self.fingerprint(plan)
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        if self.resume and self.checkpoint_path.exists():
            replay = self._streaming_reconcile(plan, fingerprint)
        else:
            with self.checkpoint_path.open("w", encoding="utf-8") as handle:
                handle.write(self._checkpoint_header(fingerprint, len(plan)))
        return replay

    def _streaming_reconcile(
        self, plan: CrawlPlan, fingerprint: str
    ) -> CheckpointReplay:
        path = self.checkpoint_path

        def on_header(header: Dict) -> None:
            found = header.get("fingerprint")
            if found != fingerprint:
                raise CheckpointMismatch(
                    f"{path}: fingerprint {found} does "
                    f"not match this plan/world/config ({fingerprint}); "
                    "refusing to resume — rerun without resume to start "
                    "over"
                )

        def validate(line_number: int, payload: Dict) -> None:
            index = payload["index"]
            if not 0 <= index < len(plan.tasks):
                raise CheckpointMismatch(
                    f"{path}:{line_number}: outcome index "
                    f"{index} outside the plan"
                )
            record_payload = payload.get("record")
            if record_payload is not None:
                # Structural refusal (unknown type, missing body) keeps
                # the corrupt-checkpoint error path without ever
                # deserialising a record.
                validate_record_payload(record_payload)

        try:
            scan = _scan_checkpoint(
                path, validate=validate, on_header=on_header
            )
        except CheckpointMismatch:
            raise
        except (ValueError, KeyError, TypeError) as error:
            # Mid-file corruption, a malformed outcome line, a bogus
            # record payload — all land on the same refusal path the
            # CLI already handles, instead of a raw traceback.
            raise CheckpointMismatch(
                f"{path}: corrupt checkpoint ({error}); "
                "refusing to resume — rerun without resume to start over"
            ) from error
        replay = CheckpointReplay(
            completed=scan.indices, breakers=dict(scan.breakers)
        )
        spooled = self.merge == "spool" and self.spool_path is not None
        resume_part = (
            Path(f"{self.spool_path}.resume.part") if spooled else None
        )
        part_handle = None
        try:
            with atomic_replace(path) as handle:
                handle.write(self._checkpoint_header(fingerprint, len(plan)))
                if scan.breakers:
                    # Consolidate the per-flush breaker lines into one
                    # (latest-wins already applied by the scan).
                    handle.write(_breaker_line(scan.breakers))
                for index, payload, line in _merge_checkpoint_runs(
                    path, scan
                ):
                    handle.write(line + "\n")
                    record_payload = payload.get("record")
                    error = payload.get("error")
                    if spooled:
                        if error is not None:
                            replay.failures.append(TaskOutcome(
                                index=index,
                                task=plan.tasks[index],
                                record=None,
                                error=error,
                                attempts=payload.get("attempts", 1),
                            ))
                        if record_payload is not None:
                            # The replay records never enter memory:
                            # the original serialized lines stream to
                            # the sorted part file the k-way join
                            # consumes.
                            if part_handle is None:
                                part_handle = resume_part.open(
                                    "w", encoding="utf-8"
                                )
                            part_handle.write(line + "\n")
                    else:
                        replay.outcomes.append(TaskOutcome(
                            index=index,
                            task=plan.tasks[index],
                            record=(
                                RawRecord.from_payload(record_payload)
                                if record_payload is not None else None
                            ),
                            error=error,
                            attempts=payload.get("attempts", 1),
                        ))
        finally:
            if part_handle is not None:
                part_handle.close()
        if part_handle is not None:
            replay.resume_part = resume_part
        return replay

    def _breaker_snapshot_for(
        self, outcomes: List[TaskOutcome]
    ) -> Dict[str, Dict]:
        """Current breaker snapshots for the domains in *outcomes*."""
        snapshots: Dict[str, Dict] = {}
        for outcome in outcomes:
            domain = outcome.task.domain
            breaker = self._breakers.get(domain)
            if breaker is not None and domain not in snapshots:
                snapshots[domain] = breaker.snapshot()
        return snapshots

    @staticmethod
    def _outcome_line(outcome: TaskOutcome) -> str:
        head = {
            "kind": "outcome",
            "index": outcome.index,
            "attempts": outcome.attempts,
            "error": outcome.error,
        }
        if outcome.record is None:
            head["record"] = None
            return json.dumps(head, ensure_ascii=False) + "\n"
        # Splice the record's canonical serialized bytes into the
        # outcome envelope instead of re-dumping a nested payload —
        # byte-identical to the single json.dumps (same key order and
        # separators), and for a RawRecord entirely decode-free.
        raw = encode_record_line(outcome.record)
        return (
            json.dumps(head, ensure_ascii=False)[:-1]
            + ', "record": ' + raw + "}\n"
        )

    def _checkpoint_outcomes(self, outcomes: List[TaskOutcome]) -> None:
        """Append one finished shard's outcomes (caller holds the lock).

        When breakers are enabled the flush also appends a snapshot of
        this shard's breaker states; the scan applies them latest-wins,
        so a resume restores each domain's quarantine where it stood at
        the last completed flush.
        """
        with self.checkpoint_path.open("a", encoding="utf-8") as handle:
            for outcome in outcomes:
                handle.write(self._outcome_line(outcome))
            snapshots = self._breaker_snapshot_for(outcomes)
            if snapshots:
                handle.write(_breaker_line(snapshots))
            handle.flush()

    @staticmethod
    def compact_checkpoint(path: Union[str, Path]) -> CheckpointCompaction:
        """Rewrite an append-only checkpoint, keeping only the latest
        outcome per task.

        Long crash/resume cycles grow the checkpoint: a shard that
        died after checkpointing half its tasks re-runs them on
        resume, so later lines supersede earlier ones for the same
        plan index.  Compaction keeps the **last** outcome per index
        (the append order is the authority), preserves the
        :func:`plan_fingerprint` header verbatim, sorts outcomes into
        plan order, and replaces the file atomically — a compacted
        checkpoint resumes exactly like the original.  A torn trailing
        line (crashed writer) is dropped, as on any checkpoint read.

        Raises :class:`CheckpointMismatch` when *path* is not a crawl
        checkpoint (no header / mid-file corruption).

        Shares the streaming run-merge machinery with the resume
        reconcile: a boundary scan plus a k-way join over the sorted
        runs, so compaction memory is one buffered line per run (plus
        the index set), never the outcome payloads.
        """
        path = Path(path)
        try:
            scan = _scan_checkpoint(path)
        except CheckpointMismatch:
            raise
        except ValueError as error:
            raise CheckpointMismatch(
                f"{path}: corrupt checkpoint ({error}); refusing to compact"
            ) from error
        kept = 0
        with atomic_replace(path) as handle:
            # The header survives verbatim (same fingerprint, still
            # resumable).
            handle.write(scan.header_line + "\n")
            if scan.breakers:
                handle.write(_breaker_line(scan.breakers))
            for _, _, line in _merge_checkpoint_runs(path, scan):
                handle.write(line + "\n")
                kept += 1
        return CheckpointCompaction(
            path=path,
            kept=kept,
            dropped=scan.outcome_lines - kept,
            fingerprint=str(scan.header.get("fingerprint")),
        )

    # ------------------------------------------------------------------
    def _run_shard(
        self,
        plan: CrawlPlan,
        shard_id: int,
        items: List[Tuple[int, CrawlTask]],
    ) -> List[TaskOutcome]:
        started = time.perf_counter()
        outcomes: List[TaskOutcome] = []
        for index, task in items:
            breaker = self._breakers.get(task.domain)
            if breaker is not None and not breaker.allow():
                # Quarantined domain: skip the task deterministically,
                # recording a degraded outcome so no plan index is lost.
                outcome = TaskOutcome(
                    index,
                    task,
                    record=degraded_record(task, "BreakerOpenError"),
                    error="BreakerOpenError",
                    attempts=0,
                )
                self._emit_degraded(outcome)
                self._advance(task)
                outcomes.append(outcome)
                continue
            outcome = self._run_one(plan, index, task)
            if breaker is not None:
                transition = breaker.record(outcome.error is None)
                if transition is not None:
                    self._emit(
                        f"breaker-{transition}",
                        f"engine://breaker/{task.domain}",
                        {"domain": task.domain},
                    )
            if outcome.error is not None:
                self._emit_degraded(outcome)
            outcomes.append(outcome)
        return self._finish_shard(
            shard_id, outcomes, time.perf_counter() - started
        )

    def _emit_degraded(self, outcome: TaskOutcome) -> None:
        self._emit("task-degraded", f"engine://task/{outcome.index}", {
            "index": outcome.index,
            "domain": outcome.task.domain,
            "error": outcome.error,
            "attempts": outcome.attempts,
        })

    def _finish_shard(
        self,
        shard_id: int,
        outcomes: List[TaskOutcome],
        elapsed: float,
        *,
        pid: Optional[int] = None,
    ) -> List[TaskOutcome]:
        """Persist one finished shard and hand back what the merge keeps.

        In the in-memory merge the full outcome list is returned; in
        the spool merge the records are streamed to this shard's part
        file first and only the (small) permanent failures are kept in
        memory.
        """
        has_sink = (
            self.merge == "spool"
            or self._spool_partial is not None
            or self.checkpoint_path is not None
        )
        if outcomes and has_sink:
            part: Optional[Path] = None
            if self.merge == "spool":
                # Each shard owns its part file, so the write needs no
                # lock; plan order within the shard makes it index-
                # sorted, which the k-way join requires.
                part = self._part_path(shard_id)
                with part.open("w", encoding="utf-8") as handle:
                    for outcome in outcomes:
                        if outcome.record is not None:
                            handle.write(self._outcome_line(outcome))
            with self._lock:
                if part is not None:
                    self._merge_parts.append(part)
                if self._spool_partial is not None:
                    save_records(
                        [o.record for o in outcomes if o.record is not None],
                        self._spool_partial, append=True,
                    )
                if self.checkpoint_path is not None:
                    self._checkpoint_outcomes(outcomes)
        detail = {
            "shard": shard_id,
            "tasks": len(outcomes),
            "elapsed": elapsed,
        }
        if pid is not None:
            detail["pid"] = pid
        self._emit("shard", f"engine://shard/{shard_id}", detail)
        if self.merge == "spool":
            return [o for o in outcomes if o.error is not None]
        return outcomes

    def _run_one(self, plan: CrawlPlan, index: int, task: CrawlTask) -> TaskOutcome:
        per_task = (
            self.per_task_ids or campaign_plan(plan) or chaos_plan(plan)
        )
        # A zero-arg factory: _execute_task rebuilds the stream per
        # attempt so retries replay the same visit ids (chaos faults
        # consumed on attempt 1 stay consumed on attempt 2).
        id_streams = (
            (lambda: self._task_id_stream(task)) if per_task else None
        )
        record, error, attempts = _execute_task(
            self.crawler, task, plan.context, self.retry, id_streams,
            lambda attempt, err: self._emit_retry(index, task, attempt, err),
            clock=self._clock,
        )
        self._advance(task)
        return TaskOutcome(
            index, task, record=record, error=error, attempts=attempts
        )

    def _emit_retry(
        self, index: int, task: CrawlTask, attempt: int, error: str
    ) -> None:
        self._emit("task-retry", f"engine://task/{index}", {
            "vp": task.vp,
            "domain": task.domain,
            "mode": task.mode,
            "attempt": attempt,
            "error": error,
        })

    def _task_id_stream(self, task: CrawlTask) -> Optional[Callable[[], int]]:
        """A private, deterministic visit-id stream for *task*.

        Derived purely from the world seed and the task identity, so
        the records never depend on which worker ran which task first
        (see the module docstring).
        """
        world = getattr(self.crawler, "world", None)
        config = getattr(world, "config", None)
        if config is None:
            return None
        return _id_stream(_task_id_base(config.seed, task))

    def _advance(self, task: CrawlTask) -> None:
        with self._lock:
            self._done += 1
            done, total = self._done, self._total
            if done % self.progress_every == 0 or done == total:
                self._emit_locked("progress", "engine://progress", {
                    "done": done, "total": total,
                })
        if self.progress is not None:
            # Hook calls are serialised (so wrapper closures need no
            # locking of their own) but run outside the engine lock.
            with self._progress_lock:
                self.progress(done, total, task)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, url: str, detail: Dict[str, object]) -> None:
        if self.event_log is None:
            return
        with self._lock:
            self._emit_locked(kind, url, detail)

    def _emit_locked(self, kind: str, url: str, detail: Dict[str, object]) -> None:
        if self.event_log is not None:
            self.event_log.events.append(Event(kind, 0, url, detail))
