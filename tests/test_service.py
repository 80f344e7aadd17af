"""The campaign service: lifecycle, quotas, priorities, crash/resume.

In-process tests drive a :class:`CampaignService` on an ephemeral port
through the stdlib :class:`ServiceClient`; the crash test runs the
real ``serve`` CLI verb in a subprocess, SIGKILLs it mid-campaign, and
restarts it with ``--resume`` — the campaign must finish from its
checkpoint fingerprints, not start over.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, WorldSpec
from repro.api.spec import CrawlSpec, EngineSpec, MultiVantageSpec
from repro.service import (
    CampaignService,
    Job,
    JobQueue,
    QuotaExceeded,
    ServiceClient,
    ServiceError,
    job_id,
)

def crawl_spec(seed=11, **world) -> RunSpec:
    return RunSpec(
        kind="crawl",
        world=WorldSpec(scale=0.01, seed=seed, **world),
        crawl=CrawlSpec(vps=("DE",)),
    )


@pytest.fixture()
def service(tmp_path):
    started = CampaignService(tmp_path / "data", port=0).start()
    yield started
    started.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


# ---------------------------------------------------------------------------
# Queue semantics (no HTTP involved)
# ---------------------------------------------------------------------------
class TestJobQueue:
    @staticmethod
    def job(seed, tenant="t", priority=0):
        spec = crawl_spec(seed)
        return Job(
            id=job_id(spec, tenant), spec=spec,
            tenant=tenant, priority=priority,
        )

    def test_priority_then_fifo_order(self):
        queue = JobQueue(quota=10)
        first = queue.submit(self.job(1, priority=0))
        urgent = queue.submit(self.job(2, priority=5))
        second = queue.submit(self.job(3, priority=0))
        claimed = [queue.next_job(timeout=0.01) for _ in range(3)]
        assert [job.id for job in claimed] == [
            urgent.id, first.id, second.id
        ]
        assert all(job.state == "running" for job in claimed)

    def test_quota_counts_active_jobs_per_tenant(self):
        queue = JobQueue(quota=2)
        queue.submit(self.job(1))
        queue.submit(self.job(2))
        with pytest.raises(QuotaExceeded, match="quota 2"):
            queue.submit(self.job(3))
        # Another tenant is unaffected.
        queue.submit(self.job(3, tenant="other"))
        # Finishing a job frees the slot.
        done = queue.next_job(timeout=0.01)
        done.state = "done"
        queue.submit(self.job(4))

    def test_submit_is_idempotent_for_known_ids(self):
        queue = JobQueue(quota=1)
        job = self.job(1)
        assert queue.submit(job) is queue.submit(self.job(1))

    def test_cancel_queued_job_never_runs(self):
        queue = JobQueue(quota=10)
        doomed = queue.submit(self.job(1))
        survivor = queue.submit(self.job(2))
        assert queue.cancel(doomed.id).state == "cancelled"
        assert queue.next_job(timeout=0.01) is survivor
        assert queue.next_job(timeout=0.01) is None


# ---------------------------------------------------------------------------
# HTTP lifecycle
# ---------------------------------------------------------------------------
class TestServiceLifecycle:
    def test_health_reports_schema_version(self, client):
        from repro.api import SPEC_SCHEMA_VERSION

        health = client.health()
        assert health["ok"] is True
        assert health["spec_schema_version"] == SPEC_SCHEMA_VERSION

    def test_submit_status_stream(self, service, client):
        job = client.submit(crawl_spec(), tenant="alice", priority=1)
        assert job["state"] in ("queued", "running")
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["summary"]["record_count"] > 0
        assert final["summary"]["failures"] == 0
        records = client.records(job["id"])
        assert records.count(b"\n") == final["summary"]["record_count"]
        for line in records.splitlines()[:5]:
            json.loads(line)
        listing = client.campaigns()["campaigns"]
        assert [j["id"] for j in listing] == [job["id"]]
        # Resubmitting the identical campaign is idempotent: same
        # content-addressed id, still done, nothing re-runs.
        again = client.submit(crawl_spec(), tenant="alice")
        assert again["id"] == job["id"]
        assert again["state"] == "done"

    def test_records_of_unfinished_campaign_conflict(self, service, client):
        # Submitted but executing (or queued): records are not ready.
        job = client.submit(crawl_spec(seed=77))
        with pytest.raises(ServiceError) as excinfo:
            client.records(job["id"])
        assert excinfo.value.status == 409
        client.wait(job["id"], timeout=120)

    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("feedfacecafe")
        assert excinfo.value.status == 404

    def test_future_schema_version_rejected_readably(self, service):
        payload = crawl_spec().to_dict()
        payload["schema_version"] = 99
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/campaigns", {"spec": payload})
        assert excinfo.value.status == 400
        assert "schema_version 99" in str(excinfo.value)

    def test_invalid_spec_rejected_with_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/campaigns",
                {"spec": {"kind": "teleport"}},
            )
        assert excinfo.value.status == 400

    def test_quota_maps_to_429(self, tmp_path):
        service = CampaignService(
            tmp_path / "q", port=0, quota=1
        ).start()
        try:
            client = ServiceClient(service.url)
            client.submit(crawl_spec(seed=1), tenant="bob")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(crawl_spec(seed=2), tenant="bob")
            assert excinfo.value.status == 429
            # Other tenants are unaffected by bob's quota.
            client.submit(crawl_spec(seed=2), tenant="carol")
        finally:
            service.stop()

    def test_cancel_queued_campaign(self, service, client):
        # The first campaign occupies the single runner; the second is
        # deterministically still queued when the cancel arrives.
        running = client.submit(crawl_spec(seed=5))
        queued = client.submit(crawl_spec(seed=6))
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] in ("queued", "cancelled")
        final = client.wait(queued["id"], timeout=120)
        assert final["state"] == "cancelled"
        assert client.wait(running["id"], timeout=120)["state"] == "done"

    def test_cancel_running_campaign(self, service, client):
        # A multi-wave campaign is long enough to cancel mid-flight.
        spec = RunSpec(
            kind="multivantage",
            world=WorldSpec(scale=0.05, seed=3),
            multivantage=MultiVantageSpec(months=(0, 2, 4)),
        )
        job = client.submit(spec)
        deadline = time.monotonic() + 60
        while client.status(job["id"])["state"] == "queued":
            assert time.monotonic() < deadline, "never started"
            time.sleep(0.02)
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "cancelled"


# ---------------------------------------------------------------------------
# Crash + --resume via the real CLI
# ---------------------------------------------------------------------------
class TestServiceCrashResume:
    @staticmethod
    def _serve(data_dir, *extra):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--data-dir", str(data_dir), "--port", "0", *extra],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = process.stdout.readline()
        assert "listening on" in banner, banner
        url = banner.split("listening on ")[1].split()[0]
        return process, url

    def test_sigkilled_campaign_resumes_from_checkpoint(self, tmp_path):
        data_dir = tmp_path / "data"
        spec = RunSpec(
            kind="multivantage",
            world=WorldSpec(scale=0.02, seed=7),
            # Many shards so the engine checkpoints per-shard progress
            # long before the wave completes.
            engine=EngineSpec(workers=2, shards=12, executor="process"),
            multivantage=MultiVantageSpec(months=(0, 2)),
        )
        process, url = self._serve(data_dir)
        try:
            client = ServiceClient(url)
            job = client.submit(spec)
            campaign_dir = data_dir / "campaigns" / job["id"]
            deadline = time.monotonic() + 120
            # Wait for real checkpointed progress — at least one shard
            # entry beyond the header line — then pull the plug.
            def checkpointed_shards():
                return sum(
                    max(0, path.read_bytes().count(b"\n") - 1)
                    for path in campaign_dir.glob("wave-*.checkpoint")
                )

            while checkpointed_shards() == 0:
                assert time.monotonic() < deadline, "no checkpoint appeared"
                assert process.poll() is None
                time.sleep(0.005)
            assert client.status(job["id"])["state"] == "running"
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()

        # The persisted job is still marked active from the dead server.
        persisted = json.loads(
            (data_dir / "jobs" / f"{job['id']}.json").read_text()
        )
        assert persisted["state"] in ("queued", "running")

        process, url = self._serve(data_dir, "--resume")
        try:
            client = ServiceClient(url)
            final = client.wait(job["id"], timeout=300, poll=0.2)
            assert final["state"] == "done"
            assert final["summary"]["resumed"] > 0, (
                "restart re-ran the whole campaign instead of resuming "
                "from its checkpoint fingerprint"
            )
            records = client.records(job["id"])
            assert records.count(b"\n") == final["summary"]["record_count"]
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
