"""The four benchmark workloads: seeded inputs and their execution.

Every workload is a closed-loop batch campaign driven by one process:
the next task starts when the previous one finished (serial), or, for
``campaign-dist``, one local worker process drains a shard queue.  The synthetic
web is always built from :data:`WORLD_SEED`; the benchmark's ``--seed``
only draws the domain lists each workload receives, so the program sees
nothing but those generated lists.

Sizes: each timed repetition is a few seconds of crawling, so that a
run holds several repetitions and can report their median.  The one
exception is ``detect-cold``, whose point is a target list larger than
the 8,192-entry parsed-document cache: it needs more than 8,192 targets
per vantage point, which makes one repetition about 20 seconds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Every workload measures the same synthetic web (the library default).
WORLD_SEED = 2023

#: uBlock arm: size of the synthetic full-scale filter list added to
#: EasyList + Annoyances, as in the paper's real-list configuration.
FULL_LIST_RULES = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    #: Vantage points, or ``None`` for all eight.
    vps: Optional[Sequence[str]]
    #: Domains per vantage point (detection/campaign) or sampled banner
    #: sites (measure-mix).
    size: int
    #: Set-ups timed per untraced repetition, for a median of several
    #: where one repetition fills a run.  Only for workloads whose
    #: set-up caches nothing process-wide (the filter-list compile does).
    setups: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "detect-hot",
            "8-VP detection crawl at scale 0.05 whose targets fit the "
            "parse cache (~81% hits): an optimisation must not lose when "
            "the cache already works",
            0.05, None, 250,
        ),
        Workload(
            "detect-cold",
            "2-VP detection crawl at scale 0.2 whose targets exceed the "
            "parse cache (0 hits), so every visit pays parse plus clone: "
            "shows parse and cache changes",
            0.2, ("DE", "USE"), 8600, setups=3,
        ),
        Workload(
            "measure-mix",
            "DE accept/reject cookie measurements and the uBlock arm: the "
            "cookie-jar write, banner-interaction, reload and adblock path "
            "the detection crawls barely use",
            0.2, ("DE",), 220,
        ),
        Workload(
            "campaign-dist",
            "8-VP x 2-wave campaign on the distributed backend with spool "
            "merge and checkpoints: the only record-encoding, wire, spool, "
            "k-way merge and evolved-world path",
            0.05, None, 300,
        ),
    )
}

#: Waves (months after the baseline) and shards of the ``campaign-dist``
#: campaign.
CAMPAIGN_MONTHS = (0, 6)
CAMPAIGN_SHARDS = 8
#: Repeats per cookie measurement and iterations per uBlock visit.
MEASURE_REPEATS = 5


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def seeded_sample(
    rng: random.Random, pool: Sequence[str], keep: Sequence[str], size: int
) -> List[str]:
    """*keep* plus a seeded sample of the rest of *pool*, *size* domains
    in all, in a seeded order.

    The wall sites are always kept, so the output check (per-VP wall
    counts) covers every wall whatever the seed draws.
    """
    keep_set = set(keep)
    rest = [d for d in pool if d not in keep_set]
    picked = list(keep) + rng.sample(rest, max(size - len(keep), 0))
    rng.shuffle(picked)
    return picked


def make_inputs(workload: Workload, seed: int, world) -> Dict[str, List[str]]:
    """The domain lists *workload* runs on, drawn from *seed* alone."""
    from repro.webgen.spec import BannerKind

    rng = random.Random(f"{workload.name}/{seed}")
    targets = list(world.crawl_targets)
    walls = [d for d in targets if d in world.wall_domains]
    if workload.name == "measure-mix":
        banners = [
            d for d in targets
            if world.sites[d].banner is BannerKind.REGULAR
        ]
        return {"walls": walls, "banners": rng.sample(banners, workload.size)}
    return {"targets": seeded_sample(rng, targets, walls, workload.size)}


def vps_of(workload: Workload) -> List[str]:
    from repro.vantage import VP_ORDER

    return list(workload.vps) if workload.vps is not None else list(VP_ORDER)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class TaskClock:
    """The engine ``progress`` hook: the gap between consecutive calls
    is one task's latency as the caller sees it.

    *clock* times the gaps, and :meth:`now` the pass around them; a
    :class:`~perfbench.calibrate.Calibrator`'s clock keeps the reference
    slices out of both.  :attr:`ends` holds the reading that ended each
    gap, and :attr:`started` the one that began the first.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.gaps: List[float] = []
        self.ends: List[float] = []
        self.now = clock
        self.started = self._last = 0.0

    def start(self) -> None:
        self.started = self._last = self.now()

    def __call__(self, done, total, task) -> None:
        now = self.now()
        self.gaps.append(now - self._last)
        self.ends.append(now)
        self._last = now


@dataclass
class PassResult:
    """One execution of a workload's plans, folded and summarised."""

    tasks: int
    records: int
    failed: int
    #: Seconds from the first plan submission until the fold held the
    #: last record (summed over plans for multi-plan workloads), on the
    #: progress hook's clock.
    elapsed: float
    summary: Dict


def run_pass(
    workload: Workload,
    inputs: Dict[str, List[str]],
    world,
    *,
    progress: Callable,
    workdir: Path,
    executor: Optional[str] = None,
    event_log=None,
    ublock_lists: Sequence[str] = (),
) -> PassResult:
    """Run *workload* once through the public API.

    *executor* overrides the backend of ``campaign-dist`` (the traced
    run replays its plan serially to time the worker-side layers).
    """
    if workload.name == "measure-mix":
        return _run_measure(workload, inputs, world, progress, ublock_lists)
    if workload.name == "campaign-dist":
        return _run_campaign(
            workload, inputs, world, progress, workdir,
            executor or "distributed", event_log,
        )
    return _run_detect(workload, inputs, world, progress)


def _run_detect(workload, inputs, world, progress) -> PassResult:
    from repro.analysis.streaming import StreamingCrawlAnalysis
    from repro.api import Session

    vps = vps_of(workload)
    session = Session(world, progress=progress)
    plan = session.crawler.plan_detection_crawl(vps, inputs["targets"])
    analysis = StreamingCrawlAnalysis(world)
    progress.start()
    started = progress.now()
    result = session.execute(plan)
    for record in result.iter_records():
        analysis.add(record)
    elapsed = progress.now() - started
    table = analysis.table1()
    return PassResult(
        tasks=len(plan),
        records=analysis.record_count,
        failed=len(result.failures),
        elapsed=elapsed,
        summary={"walls": {vp: table.row(vp).cookiewalls for vp in vps}},
    )


def _run_measure(workload, inputs, world, progress, ublock_lists) -> PassResult:
    from repro.analysis.streaming import StreamingCookieComparison
    from repro.api import Session
    from repro.measure.crawl import Crawler

    (vp,) = vps_of(workload)
    crawler = Crawler(world, ublock_lists=list(ublock_lists))
    session = Session(world, crawler=crawler, progress=progress)
    walls, banners = inputs["walls"], inputs["banners"]
    comparison = StreamingCookieComparison(
        "Cookies after accepting vs rejecting", "accept", "reject"
    )
    suppressed: List[str] = []
    plans = [
        ("a", crawler.plan_cookie_measurements(
            vp, walls + banners, mode="accept", repeats=MEASURE_REPEATS)),
        ("b", crawler.plan_cookie_measurements(
            vp, banners, mode="reject", repeats=MEASURE_REPEATS)),
        ("ublock", crawler.plan_ublock(vp, walls, iterations=MEASURE_REPEATS)),
    ]
    tasks = records = failed = 0
    elapsed = 0.0
    for group, plan in plans:
        progress.start()
        started = progress.now()
        result = session.execute(plan)
        for record in result.iter_records():
            records += 1
            if group == "ublock":
                if record.suppressed:
                    suppressed.append(record.domain)
            else:
                comparison.add(group, record)
        elapsed += progress.now() - started
        tasks += len(plan)
        failed += len(result.failures)
    return PassResult(
        tasks=tasks,
        records=records,
        failed=failed,
        elapsed=elapsed,
        summary={
            "suppressed": sorted(suppressed),
            "accept": comparison.group_size("a"),
            "reject": comparison.group_size("b"),
        },
    )


def _run_campaign(
    workload, inputs, world, progress, workdir, executor, event_log
) -> PassResult:
    from repro.api import EngineSpec, MultiVantageSpec, OutputSpec, Session

    vps = vps_of(workload)
    # One worker, on the one core the repetition is pinned to: the
    # coordinator mostly waits on it.  Eight shards, as two workers
    # would get by default, keep the wire traffic and the k-way merge
    # as wide.
    engine = EngineSpec(
        executor=executor, workers=1, shards=CAMPAIGN_SHARDS, merge="spool",
    )
    session = Session(
        world, engine=engine, progress=progress, event_log=event_log
    )
    spec = MultiVantageSpec(
        vps=tuple(vps), domains=tuple(inputs["targets"]),
        months=CAMPAIGN_MONTHS,
    )
    progress.start()
    started = progress.now()
    result = session.multivantage(
        spec, output=OutputSpec(out_dir=str(workdir))
    )
    elapsed = progress.now() - started
    report = result.campaign.report
    return PassResult(
        tasks=len(vps) * len(inputs["targets"]) * len(CAMPAIGN_MONTHS),
        records=report.record_count,
        failed=len(result.failures),
        elapsed=elapsed,
        summary={"walls": {
            str(month): report.wall_counts(month) for month in CAMPAIGN_MONTHS
        }},
    )
