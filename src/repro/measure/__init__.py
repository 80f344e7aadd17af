"""The measurement harness (OpenWPM-style crawls, paper §3/§4).

Provides multi-vantage-point detection crawls, cookie measurements
with repeat visits, SMP subscription measurements, uBlock bypass
measurements, accuracy evaluation, record storage, and the sharded
crawl engine that schedules all of the above (plan → shard → execute →
merge; see :mod:`repro.measure.engine`).
"""

from repro.measure.cookies_analysis import CookieCounts, count_cookies
from repro.measure.crawl import Crawler, CrawlResult
from repro.measure.engine import (
    EXECUTOR_BACKENDS,
    MERGE_MODES,
    CheckpointCompaction,
    CheckpointMismatch,
    CrawlEngine,
    CrawlPlan,
    CrawlTask,
    EngineResult,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    TaskOutcome,
    plan_fingerprint,
)
from repro.measure.records import CookieMeasurement, VisitRecord
from repro.measure.storage import (
    TornRecordWarning,
    iter_records,
    load_records,
    save_records,
)

__all__ = [
    "Crawler",
    "CrawlResult",
    "CrawlEngine",
    "CrawlPlan",
    "CrawlTask",
    "CheckpointCompaction",
    "CheckpointMismatch",
    "EngineResult",
    "TaskOutcome",
    "RetryPolicy",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTOR_BACKENDS",
    "MERGE_MODES",
    "VisitRecord",
    "CookieMeasurement",
    "CookieCounts",
    "TornRecordWarning",
    "count_cookies",
    "plan_fingerprint",
    "save_records",
    "load_records",
    "iter_records",
]
