"""Job model, priority queue, quotas, and persistence for the service.

A *job* is one submitted campaign: a versioned :class:`RunSpec` plus
the scheduling envelope (tenant, priority, state).  Jobs are
content-addressed — the id is a hash of the canonical spec JSON and
the tenant — so resubmitting the same campaign is idempotent, and a
job's output directory (keyed by the id) is exactly where its earlier
checkpoints live: restoring a half-finished campaign is the engine's
ordinary fingerprint-checked resume, not a service-level mechanism.

The queue is FIFO within a priority level (a heap over
``(-priority, sequence)``), with a per-tenant quota on *active* jobs
(queued + running); submits beyond it raise :class:`QuotaExceeded`,
which the server maps to HTTP 429.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.spec import RunSpec
from repro.errors import ReproError
from repro.measure.storage import atomic_replace

#: Lifecycle: queued -> running -> done | failed | cancelled
#: (queued jobs may also go straight to cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States that count against a tenant's quota.
ACTIVE_STATES = ("queued", "running")


class QuotaExceeded(ReproError):
    """A tenant's active-campaign quota is exhausted (HTTP 429)."""


class JobCancelled(ReproError):
    """Raised inside a running campaign's progress hook to stop it."""


def job_id(spec: RunSpec, tenant: str) -> str:
    """The content-addressed id: hash of canonical spec JSON + tenant.

    Stable across submits (idempotence) and across service restarts
    (the resumable-campaign key).
    """
    canonical = json.dumps(spec.to_dict(), sort_keys=True)
    digest = hashlib.sha256(
        f"{tenant}\n{canonical}".encode("utf-8")
    ).hexdigest()
    return digest[:12]


@dataclasses.dataclass
class Job:
    """One submitted campaign and its scheduling envelope."""

    id: str
    spec: RunSpec
    tenant: str = "default"
    priority: int = 0
    state: str = "queued"
    error: Optional[str] = None
    summary: Optional[Dict] = None
    #: Set while running when a cancel arrived; the progress hook
    #: converts it into :class:`JobCancelled`.
    cancel_requested: bool = False

    def to_dict(self) -> Dict:
        """JSON-safe wire/persistence form (spec in versioned form)."""
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        return cls(
            id=data["id"],
            spec=RunSpec.from_dict(data["spec"]),
            tenant=data.get("tenant", "default"),
            priority=data.get("priority", 0),
            state=data.get("state", "queued"),
            error=data.get("error"),
            summary=data.get("summary"),
        )


class JobQueue:
    """FIFO-with-priorities queue with per-tenant active-job quotas."""

    def __init__(self, quota: int = 4) -> None:
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self.quota = quota
        self.jobs: Dict[str, Job] = {}
        self._heap: List = []  # (-priority, sequence, job_id)
        self._sequence = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)

    def submit(self, job: Job) -> Job:
        """Enqueue *job*; idempotent for an already-known id.

        An active or finished job with the same id is returned as-is
        (same spec + tenant → same id → same campaign).  A failed or
        cancelled one is re-queued — with its output directory intact,
        the re-run resumes from the campaign's checkpoints.
        """
        with self._lock:
            existing = self.jobs.get(job.id)
            if existing is not None and existing.state not in (
                "failed", "cancelled"
            ):
                return existing
            active = sum(
                1 for other in self.jobs.values()
                if other.tenant == job.tenant
                and other.state in ACTIVE_STATES
            )
            if active >= self.quota:
                raise QuotaExceeded(
                    f"tenant {job.tenant!r} already has {active} active "
                    f"campaign(s) (quota {self.quota}); wait or cancel one"
                )
            if existing is not None:
                job = existing
                job.error = None
                job.summary = None
                job.cancel_requested = False
            job.state = "queued"
            self.jobs[job.id] = job
            self._push_locked(job)
            return job

    def _push_locked(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, self._sequence, job.id))
        self._sequence += 1
        self._available.notify()

    def next_job(self, timeout: float = 0.2) -> Optional[Job]:
        """Claim the highest-priority queued job (FIFO within a level);
        ``None`` when nothing is claimable within *timeout*."""
        with self._lock:
            if not self._heap:
                self._available.wait(timeout)
            while self._heap:
                _, _, claimed_id = heapq.heappop(self._heap)
                job = self.jobs.get(claimed_id)
                if job is None or job.state != "queued":
                    continue  # cancelled (or superseded) while queued
                job.state = "running"
                return job
            return None

    def cancel(self, claimed_id: str) -> Optional[Job]:
        """Cancel a job: queued ones flip to ``cancelled`` immediately,
        running ones get ``cancel_requested`` (the campaign's progress
        hook stops it at the next task boundary)."""
        with self._lock:
            job = self.jobs.get(claimed_id)
            if job is None:
                return None
            if job.state == "queued":
                job.state = "cancelled"
            elif job.state == "running":
                job.cancel_requested = True
            return job

    def snapshot(self) -> List[Job]:
        with self._lock:
            return sorted(self.jobs.values(), key=lambda job: job.id)


def persist_job(jobs_dir: Path, job: Job) -> Path:
    """Durably record *job* (atomic replace, crash-safe)."""
    path = jobs_dir / f"{job.id}.json"
    with atomic_replace(path) as handle:
        handle.write(json.dumps(job.to_dict(), indent=2, sort_keys=True))
    return path


def load_jobs(jobs_dir: Path) -> List[Job]:
    """All persisted jobs, unreadable files skipped (never fatal)."""
    jobs: List[Job] = []
    if not jobs_dir.is_dir():
        return jobs
    for path in sorted(jobs_dir.glob("*.json")):
        try:
            jobs.append(Job.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            ))
        except (OSError, ValueError, KeyError, ReproError):
            continue
    return jobs
