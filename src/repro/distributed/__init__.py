"""repro.distributed — the shard-bundle wire plane.

The process backend already reduces a shard to a transport-agnostic
bundle (world key + task tuples + per-task visit-id seeds + breaker
snapshots) and gets canonically serialized record lines back.  This
package ships that exact contract over a socket work queue:

- :mod:`repro.distributed.wire` — the JSON-framed message protocol
  (one JSON object per line) and its typed message dataclasses.
- :mod:`repro.distributed.worker` — the worker side: ``repro-cookiewalls
  worker serve --connect HOST:PORT`` dials the coordinator, receives
  the run-constant shared state once, then runs
  :func:`~repro.measure.engine._run_shard_bundle` per bundle behind
  the wire, heartbeating while it works.
- :mod:`repro.distributed.executor` — :class:`DistributedExecutor`,
  the coordinator: a listening socket, a lease per dispatched bundle,
  re-dispatch of shards whose worker died (or went silent past its
  lease), and transport-degraded records when a bundle exhausts its
  re-dispatch budget — record counts always equal the plan size.

Determinism contract: bundles are pure functions of the plan, so a
shard re-run by a different worker (or re-dispatched after a kill)
produces the same bytes — the merged spool stays byte-identical to
the serial backend.
"""

from repro.distributed.executor import DistributedExecutor
from repro.distributed.wire import (
    WIRE_PROTOCOL_VERSION,
    WireBundle,
    WireHeartbeat,
    WireHello,
    WireResult,
    WireShared,
    decode_message,
    read_frame,
    write_frame,
)
from repro.distributed.worker import serve_worker

__all__ = [
    "DistributedExecutor",
    "WIRE_PROTOCOL_VERSION",
    "WireBundle",
    "WireHeartbeat",
    "WireHello",
    "WireResult",
    "WireShared",
    "decode_message",
    "read_frame",
    "serve_worker",
    "write_frame",
]
