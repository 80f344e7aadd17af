"""The coordinator side of the wire: :class:`DistributedExecutor`.

``EngineSpec.executor="distributed"`` plugs this executor into the
engine's existing bundle path (``uses_processes`` contract): the
engine builds the same picklable shard bundles it ships to the process
pool, and this executor serializes them as JSON frames to workers that
connected over a socket work queue.

Resilience model, riding the existing plane:

- **Heartbeats** — a working worker beats every ``heartbeat_interval``
  seconds; silence is the only thing that expires a lease.
- **Leases** — every dispatched bundle carries a deadline; a worker
  gone silent past ``lease_timeout`` has its connection closed and the
  shard re-queued.
- **Re-dispatch** — a lost worker (dropped socket, expired lease) or a
  malformed reply re-queues the bundle, up to ``max_dispatches`` total
  attempts.  Bundles are pure functions of the plan, so a re-run shard
  produces identical bytes and the merged spool stays byte-identical
  to the serial backend.
- **Transport degradation** — a bundle that exhausts its budget (and
  any undecodable record inside an otherwise valid reply) degrades to
  structured records with a :class:`~repro.errors.TransportError`-
  family error name (taxonomy category ``transport``), never a silent
  drop: record counts always equal the plan size.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import queue
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.distributed.wire import (
    WIRE_PROTOCOL_VERSION,
    WireBundle,
    WireHeartbeat,
    WireHello,
    WireResult,
    WireShared,
    read_frame,
    write_frame,
)
from repro.errors import TransportError, WireProtocolError, WorkerLostError
from repro.measure.engine import Executor


class _BundleState:
    """One shard bundle's dispatch bookkeeping."""

    __slots__ = ("bundle", "wire", "dispatches", "last_error")

    def __init__(self, bundle: Dict) -> None:
        self.bundle = bundle
        self.wire = WireBundle.from_bundle(bundle)
        self.dispatches = 0
        self.last_error = "WorkerLostError"


class DistributedExecutor(Executor):
    """Runs shard bundles on socket-connected worker processes.

    Parameters
    ----------
    workers:
        Local worker processes to spawn (each runs the real
        ``repro-cookiewalls worker serve`` CLI verb against this
        coordinator).  ``0`` spawns none and waits for external
        workers to dial ``host:port``.
    host, port:
        The work-queue listening address; port ``0`` picks an
        ephemeral port (:attr:`address` exposes the bound address
        while a run is live — CLI-started workers connect to it).
    lease_timeout:
        Real seconds of *silence* (no heartbeat, no result) after
        which a dispatched shard's lease expires and the shard is
        re-queued.
    heartbeat_interval:
        Heartbeat period passed to spawned workers.
    max_dispatches:
        Total dispatch attempts per bundle before its tasks degrade
        to transport records.
    connect_timeout:
        Real seconds to wait for the first worker (and, with no live
        worker, for a replacement) before failing the run with
        :class:`~repro.errors.WorkerLostError`.
    """

    uses_processes = True

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 60.0,
        heartbeat_interval: float = 1.0,
        max_dispatches: int = 3,
        connect_timeout: float = 30.0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = external workers)")
        if max_dispatches < 1:
            raise ValueError("max_dispatches must be >= 1")
        self.workers = workers
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.max_dispatches = max_dispatches
        self.connect_timeout = connect_timeout
        #: ``(host, port)`` of the live work queue (None when idle).
        self.address: Optional[tuple] = None
        self._reset_run_state()

    # -- engine hooks --------------------------------------------------
    def bundle_overrides(self, shard_id: int, task_count: int) -> Dict:
        """Extra bundle keys for *shard_id* (the fault-injection hook)."""
        return {}

    def redispatch_bundle(self, bundle: Dict) -> Dict:
        """The bundle to send on a re-dispatch (hook for fault tests)."""
        return dict(bundle)

    # -- run state -----------------------------------------------------
    def _reset_run_state(self) -> None:
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._inflight: Dict[int, List] = {}  # key -> [state, deadline]
        self._completed: set = set()
        self._results: "queue.Queue[Dict]" = queue.Queue()
        self._finished = threading.Event()
        self._live_workers = 0
        self._last_live = time.monotonic()
        self._connections: List[socket.socket] = []
        self._procs: List[subprocess.Popen] = []

    # -- public entry point -------------------------------------------
    def run_bundles(
        self,
        bundles: List[Dict],
        on_shard: Callable[[Dict], None],
        shared: Dict[str, object],
    ) -> None:
        """Dispatch *bundles* over the wire; absorb payloads in order
        of completion via *on_shard* (the engine's absorb callback runs
        on the calling thread, exactly like the process pool path)."""
        if not bundles:
            return
        blob = self._encode_shared(shared)
        self._reset_run_state()
        for bundle in bundles:
            self._pending.append(_BundleState(bundle))
        remaining = {bundle["shard"] for bundle in bundles}
        listener = socket.create_server((self.host, self.port))
        self.address = listener.getsockname()[:2]
        self._last_live = time.monotonic()
        accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener, blob), daemon=True
        )
        accept_thread.start()
        self._spawn_workers()
        try:
            while remaining:
                try:
                    payload = self._results.get(timeout=0.2)
                except queue.Empty:
                    self._check_liveness(bool(remaining))
                    continue
                shard = payload["shard"]
                with self._cond:
                    if shard in self._completed:
                        continue  # re-dispatch raced a slow original
                    self._completed.add(shard)
                remaining.discard(shard)
                on_shard(self._sanitize_payload(payload))
        finally:
            self.address = None
            self._finished.set()
            with self._cond:
                self._cond.notify_all()
            try:
                listener.close()
            except OSError:
                pass
            self._shutdown_workers()

    # -- shared state --------------------------------------------------
    @staticmethod
    def _encode_shared(shared: Dict[str, object]) -> str:
        try:
            return base64.b64encode(pickle.dumps(shared)).decode("ascii")
        except Exception as error:
            raise TransportError(
                "the distributed backend ships the run-constant shared "
                "state (detectors, retry policy, plan context) as a "
                f"pickle inside the wire frame, and it does not pickle: "
                f"{error}"
            ) from error

    # -- worker processes ----------------------------------------------
    def _spawn_workers(self) -> None:
        if not self.workers:
            return
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        host, port = self.address
        command = [
            sys.executable, "-m", "repro.cli", "worker", "serve",
            "--connect", f"{host}:{port}",
            "--heartbeat", str(self.heartbeat_interval),
        ]
        for _ in range(self.workers):
            self._procs.append(subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ))

    def _shutdown_workers(self) -> None:
        for conn in list(self._connections):
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _check_liveness(self, work_remains: bool) -> None:
        """Fail fast when no worker can ever drain the queue."""
        if not work_remains:
            return
        now = time.monotonic()
        with self._cond:
            if self._live_workers > 0:
                self._expire_leases(now)
                return
        spawned_all_dead = self._procs and all(
            proc.poll() is not None for proc in self._procs
        )
        waited = now - self._last_live
        if spawned_all_dead or waited > self.connect_timeout:
            self._finished.set()
            raise WorkerLostError(
                "the distributed work queue has no live workers "
                f"({'all spawned workers exited' if spawned_all_dead else f'none connected for {waited:.0f}s'}); "
                "completed shards are checkpointed — rerun with resume"
            )

    def _expire_leases(self, now: float) -> None:
        """Re-queue shards whose worker went silent past its lease.

        Called with ``self._cond`` held.  The connection itself is torn
        down by its handler when the re-run result dedupes it, or by
        shutdown — a silent worker holding a dead socket costs nothing.
        """
        for key, entry in list(self._inflight.items()):
            state, deadline = entry
            if now > deadline:
                del self._inflight[key]
                self._requeue_locked(state, "WorkerLostError")

    # -- the work queue ------------------------------------------------
    def _claim(self) -> Optional[_BundleState]:
        with self._cond:
            while True:
                if self._finished.is_set():
                    return None
                if self._pending:
                    state = self._pending.popleft()
                    state.dispatches += 1
                    return state
                self._cond.wait(0.2)

    def _requeue_locked(self, state: _BundleState, error: str) -> None:
        """Strike *state* and re-queue (or degrade) it.  Lock held."""
        shard = state.bundle["shard"]
        state.last_error = error
        if shard in self._completed:
            return  # another dispatch already delivered this shard
        if any(s is state for s in self._pending):
            return  # already re-queued (lease expiry raced the EOF)
        if state.dispatches >= self.max_dispatches:
            self._results.put(self._degraded_payload(state))
            return
        state.bundle = self.redispatch_bundle(state.bundle)
        state.wire = WireBundle.from_bundle(state.bundle)
        self._pending.append(state)
        self._cond.notify_all()

    def _requeue(self, state: _BundleState, error: str) -> None:
        with self._cond:
            self._requeue_locked(state, error)

    # -- transport degradation (taxonomy category "transport") ---------
    def _degraded_payload(self, state: _BundleState) -> Dict:
        """A synthetic shard payload: every task degraded, none dropped."""
        from repro.measure.engine import CrawlTask
        from repro.measure.storage import encode_record_line
        from repro.resilience.degrade import degraded_record

        outcomes = []
        for index, vp, domain, mode, repeats in state.bundle["tasks"]:
            task = CrawlTask(vp=vp, domain=domain, mode=mode, repeats=repeats)
            outcomes.append({
                "index": index,
                "attempts": 0,
                "error": state.last_error,
                "record": encode_record_line(
                    degraded_record(task, state.last_error)
                ),
            })
        return {
            "shard": state.bundle["shard"],
            "pid": 0,
            "elapsed": 0.0,
            "outcomes": outcomes,
            "retries": [],
            "breakers": {},
            "breaker_events": [],
        }

    def _sanitize_payload(self, payload: Dict) -> Dict:
        """Degrade any undecodable record line inside a valid reply.

        The coordinator splices worker record lines into spools and
        checkpoints without a typed decode, so a corrupt line would
        poison the merged output far from its cause.  One structural
        parse here converts it into a transport-degraded record at the
        boundary instead.
        """
        from repro.measure.engine import CrawlTask
        from repro.measure.storage import encode_record_line, validate_record_payload
        from repro.resilience.degrade import degraded_record

        tasks = {
            entry[0]: entry
            for entry in payload.get("_wire_tasks", ())
        }
        for outcome in payload["outcomes"]:
            line = outcome.get("record")
            if line is None:
                continue
            try:
                parsed = json.loads(line)
                validate_record_payload(parsed)
            except (ValueError, TypeError):
                entry = tasks.get(outcome["index"])
                if entry is None:
                    # No task context (should not happen: the wire
                    # result was validated against its bundle) — drop
                    # the record but keep the structured error.
                    outcome["record"] = None
                    outcome["error"] = "WireProtocolError"
                    continue
                _, vp, domain, mode, repeats = entry
                task = CrawlTask(
                    vp=vp, domain=domain, mode=mode, repeats=repeats
                )
                outcome["record"] = encode_record_line(
                    degraded_record(task, "WireProtocolError")
                )
                outcome["error"] = "WireProtocolError"
        payload.pop("_wire_tasks", None)
        return payload

    # -- connection handling -------------------------------------------
    def _accept_loop(self, listener: socket.socket, blob: str) -> None:
        while not self._finished.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: run over
            self._connections.append(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn, blob),
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket, blob: str) -> None:
        key = id(conn)
        state: Optional[_BundleState] = None
        try:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            hello = read_frame(rfile)
            if not isinstance(hello, WireHello):
                raise WireProtocolError("worker did not introduce itself")
            if hello.protocol != WIRE_PROTOCOL_VERSION:
                raise WireProtocolError(
                    f"worker speaks wire protocol {hello.protocol}, "
                    f"coordinator speaks {WIRE_PROTOCOL_VERSION}"
                )
            write_frame(wfile, WireShared(blob=blob))
            with self._cond:
                self._live_workers += 1
                self._last_live = time.monotonic()
            try:
                while True:
                    state = self._claim()
                    if state is None:
                        return
                    with self._cond:
                        self._inflight[key] = [
                            state, time.monotonic() + self.lease_timeout
                        ]
                    write_frame(wfile, state.wire)
                    delivered = self._pump_until_result(rfile, key, state)
                    # Either way the pump settled this bundle (result
                    # delivered, or strike recorded) — the cleanup
                    # below must not strike it a second time.
                    state = None
                    if not delivered:
                        return
            finally:
                with self._cond:
                    self._live_workers -= 1
                    if self._live_workers > 0:
                        self._last_live = time.monotonic()
        except (OSError, WireProtocolError, ValueError):
            pass
        finally:
            with self._cond:
                entry = self._inflight.pop(key, None)
                if entry is not None:
                    self._requeue_locked(entry[0], "WorkerLostError")
                elif state is not None and not self._finished.is_set():
                    # Claimed but never recorded in-flight (send failed).
                    self._requeue_locked(state, "WorkerLostError")
            try:
                conn.close()
            except OSError:
                pass

    def _pump_until_result(
        self, rfile, key: int, state: _BundleState
    ) -> bool:
        """Read frames until *state*'s result lands; False ends the
        connection (worker lost or protocol violation — the shard is
        re-queued by the caller's cleanup or here)."""
        while True:
            try:
                message = read_frame(rfile)
            except WireProtocolError:
                self._finish_inflight(key, "WireProtocolError")
                return False
            if message is None:  # EOF: the worker died mid-shard
                self._finish_inflight(key, "WorkerLostError")
                return False
            if isinstance(message, WireHeartbeat):
                with self._cond:
                    entry = self._inflight.get(key)
                    if entry is not None:
                        entry[1] = time.monotonic() + self.lease_timeout
                continue
            if not isinstance(message, WireResult):
                self._finish_inflight(key, "WireProtocolError")
                return False
            try:
                message.validate_against(state.wire)
            except WireProtocolError:
                self._finish_inflight(key, "WireProtocolError")
                return False
            with self._cond:
                self._inflight.pop(key, None)
            payload = message.to_payload()
            # Task context rides along so undecodable records can be
            # degraded (not dropped) by the absorbing thread.
            payload["_wire_tasks"] = state.bundle["tasks"]
            self._results.put(payload)
            return True

    def _finish_inflight(self, key: int, error: str) -> None:
        with self._cond:
            entry = self._inflight.pop(key, None)
            if entry is not None:
                self._requeue_locked(entry[0], error)
