"""Fault-injecting executors: crash harnesses for the checkpoint/resume,
kill/re-dispatch, and chaos suites (and the resume benchmarks).

They live with the tests because no production caller ever wants a
crash.  The engine exposes the seams they plug into: the closure-based
:meth:`~repro.measure.engine.Executor.run`, the bundle backends'
``bundle_overrides`` (whose ``kill_after`` key makes a worker SIGKILL
itself mid-shard), and the distributed coordinator's
``redispatch_bundle``.
"""

from __future__ import annotations

from typing import Dict

from repro.distributed import DistributedExecutor
from repro.measure.engine import ProcessExecutor, SerialExecutor


class FaultInjectingExecutor(SerialExecutor):
    """Crashes the chosen shards of an in-process run.

    Every shard runs in shard order.  A victim shard runs nothing — or,
    with ``partial=True``, its first half (checkpointed like any
    finished work), which is what a worker dying mid-shard looks like —
    and the run goes on.  Once all shards have run, the executor raises
    ``RuntimeError``: the checkpoint then holds exactly the non-victim
    shards plus the victims' halves, as a crash of some workers in a
    pool that lets the others finish leaves it.
    """

    def __init__(self, fail_shards, *, partial: bool = False) -> None:
        self.fail_shards = set(fail_shards)
        self.partial = partial

    def run(self, sharded, run_shard):
        def wrapped(shard_id, items):
            if shard_id not in self.fail_shards:
                return run_shard(shard_id, items)
            if self.partial:
                run_shard(shard_id, items[: len(items) // 2])
            crashed.append(shard_id)
            return []

        crashed = []
        outcomes = super().run(sharded, wrapped)
        if crashed:
            raise RuntimeError(f"injected crash in shards {crashed}")
        return outcomes


def _kill_overrides(kill_shards, shard_id: int, task_count: int) -> Dict:
    if shard_id in kill_shards:
        return {"kill_after": task_count // 2}
    return {}


class FaultInjectingProcessExecutor(ProcessExecutor):
    """The chosen shards' workers SIGKILL themselves after half their
    tasks — what the OOM killer or a pod eviction does to a worker.

    The engine run fails with the pool's ``BrokenProcessPool``; shards
    delivered before the kill stay checkpointed, while shards still in
    flight (in the killed worker *or* — with several workers — in
    siblings, which a broken pool voids too) re-run on resume.  Pin
    ``workers=1`` where the set of checkpointed shards must be
    deterministic.
    """

    def __init__(self, workers: int, kill_shards, **kwargs) -> None:
        super().__init__(workers, **kwargs)
        self.kill_shards = set(kill_shards)

    def bundle_overrides(self, shard_id: int, task_count: int) -> Dict:
        return _kill_overrides(self.kill_shards, shard_id, task_count)


class FaultInjectingDistributedExecutor(DistributedExecutor):
    """The chosen shards' *first* worker SIGKILLs itself mid-shard; the
    re-dispatched bundle runs clean, modelling a worker lost to the
    environment rather than a poisoned shard."""

    def __init__(self, workers: int, kill_shards, **kwargs) -> None:
        super().__init__(workers, **kwargs)
        self.kill_shards = set(kill_shards)

    def bundle_overrides(self, shard_id: int, task_count: int) -> Dict:
        return _kill_overrides(self.kill_shards, shard_id, task_count)

    def redispatch_bundle(self, bundle: Dict) -> Dict:
        bundle = dict(bundle)
        bundle.pop("kill_after", None)
        return bundle
