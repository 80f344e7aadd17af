"""The crawler: detection crawls, cookie measurements, bypass runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.adblock import UBlockOrigin
from repro.bannerclick import BannerClick, accept_banner, reject_banner
from repro.consent.tcf import accept_all_string
from repro.errors import (
    MeasurementError,
    NavigationError,
    NetworkError,
    is_transient,
)
from repro.httpkit import CookieJar
from repro.lang import LanguageDetector
from repro.measure.cookies_analysis import CookieCounts, average_counts, count_cookies
from repro.measure.engine import CrawlPlan, CrawlTask
from repro.measure.instrumentation import BatchedProgress
from repro.measure.records import CookieMeasurement, UBlockRecord, VisitRecord
from repro.smp import SMPPlatform
from repro.vantage import VANTAGE_POINTS
from repro.vantage.regulation import RegulationScenario
from repro.webgen.world import World

#: Legacy progress cadence of the serial crawler, kept for the wrappers.
PROGRESS_BATCH = 1000


@dataclass
class CrawlResult:
    """All visit records of one crawl, with simple accessors."""

    records: List[VisitRecord] = field(default_factory=list)

    def by_vp(self, vp: str) -> List[VisitRecord]:
        return [r for r in self.records if r.vp == vp]

    def cookiewalls(self, vp: Optional[str] = None) -> List[VisitRecord]:
        return [
            r for r in self.records
            if r.is_cookiewall and (vp is None or r.vp == vp)
        ]

    def cookiewall_domains(self, vp: Optional[str] = None) -> List[str]:
        seen = set()
        out = []
        for record in self.cookiewalls(vp):
            if record.domain not in seen:
                seen.add(record.domain)
                out.append(record.domain)
        return out

    def regular_banner_domains(self, vp: str) -> List[str]:
        return [
            r.domain for r in self.by_vp(vp)
            if r.banner_found and not r.is_cookiewall and r.has_accept
        ]

    def __len__(self) -> int:
        return len(self.records)


class Crawler:
    """Runs the paper's measurements against a :class:`World`."""

    def __init__(
        self,
        world: World,
        *,
        bannerclick: Optional[BannerClick] = None,
        language_detector: Optional[LanguageDetector] = None,
        ublock_lists: Optional[Sequence[str]] = None,
    ) -> None:
        self.world = world
        self.bannerclick = bannerclick or BannerClick()
        self._lang = language_detector or LanguageDetector()
        #: Extra filter-list texts loaded into every uBlock instance of
        #: the §4.5 measurement (e.g. a full-scale list for benchmarks).
        self.ublock_lists = list(ublock_lists) if ublock_lists else None

    # ------------------------------------------------------------------
    # Detection crawls (Table 1, §4.1)
    # ------------------------------------------------------------------
    def visit(
        self,
        vp: str,
        domain: str,
        *,
        extensions: Sequence = (),
        detect_language: bool = True,
        visit_ids=None,
        scenario: Optional[RegulationScenario] = None,
        wave: int = 0,
    ) -> VisitRecord:
        """One detection visit with a fresh browser profile.

        *scenario* applies multi-vantage campaign knobs: the record
        keeps the logical *vp*, but the browser is located at the
        scenario's exit vantage point for *wave*, and visits to wall
        sites from a geo-blocked exit fail with ``error="GeoBlocked"``
        before any request is made.
        """
        record = VisitRecord(vp=vp, domain=domain)
        exit_vp = vp
        if scenario is not None:
            exit_vp = scenario.exit_vp(vp, wave)
            if scenario.blocks(exit_vp) and self._wall_site(domain):
                record.reachable = False
                record.error = "GeoBlocked"
                return record
        browser = self.world.browser(
            exit_vp, extensions=extensions, visit_ids=visit_ids
        )
        try:
            page = browser.visit(domain)
        except (NavigationError, NetworkError) as exc:
            if is_transient(exc):
                raise
            record.reachable = False
            record.error = type(exc).__name__
            return record
        detection = self.bannerclick.detect(page)
        record.banner_found = detection.found
        record.banner_location = detection.location
        record.has_accept = detection.accept_element is not None
        record.has_reject = detection.has_reject
        record.is_cookiewall = detection.is_cookiewall
        record.wall_word_match = detection.wall_word_match
        record.currency_matches = list(detection.currency_matches)
        record.banner_text = detection.text
        record.flags = dict(page.flags)
        if page.scroll_locked:
            record.flags["scroll_locked"] = True
        if exit_vp != vp:
            record.flags["exit_vp"] = exit_vp
        if detection.accept_element is not None:
            cmp_id = detection.accept_element.get_attribute("data-cmp-id")
            if cmp_id and str(cmp_id).isdigit():
                record.flags["tcf_accept"] = accept_all_string(int(cmp_id))
        if scenario is not None:
            # Campaign-only enrichment: the jar's third-party site set
            # depends on the visit id (sync-pixel partners are drawn
            # per visit), so recording it on plain detection visits
            # would break the engine's serial-vs-parallel record
            # identity.  Campaign plans always run in the per-task id
            # regime, where the set is reproducible.
            site = page.site or domain
            third_party = sorted({
                cookie.site
                for cookie in browser.jar.all_cookies()
                if cookie.site and cookie.site != site
            })
            if third_party:
                record.flags["cookies_third_party"] = third_party
        if detect_language and detection.is_cookiewall:
            record.detected_language = self._lang.detect(
                page.visible_text()
            ).language
        return record

    def _wall_site(self, domain: str) -> bool:
        """True when *domain* is a ground-truth accept-or-pay wall site."""
        spec = self.world.sites.get(domain)
        return spec is not None and spec.wall is not None

    def crawl_vp(
        self,
        vp: str,
        domains: Optional[Iterable[str]] = None,
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        workers: int = 1,
        shards: Optional[int] = None,
    ) -> List[VisitRecord]:
        """Detection-crawl *domains* (default: the full target union).

        A thin wrapper over the crawl engine: compiles a single-VP
        detection plan and executes it through the engine (serial for
        ``workers=1``, worker processes otherwise).
        *progress* fires every :data:`PROGRESS_BATCH` sites and — unlike
        the old serial loop — once more for the final partial batch, so
        short crawls also report completion.
        """
        # Imported lazily: repro.api is built on this module.
        from repro.api import EngineSpec, Session

        plan = self.plan_detection_crawl([vp], domains)
        hook = None
        if progress is not None:
            hook = BatchedProgress(progress, every=PROGRESS_BATCH)
        session = Session(
            self.world,
            engine=EngineSpec(workers=workers, shards=shards),
            crawler=self,
            progress=hook,
        )
        return session.execute(plan).records

    def crawl_all(
        self,
        vps: Optional[Sequence[str]] = None,
        domains: Optional[Iterable[str]] = None,
        *,
        progress: Optional[Callable[[str, int, int], None]] = None,
        workers: int = 1,
        shards: Optional[int] = None,
    ) -> CrawlResult:
        """The full multi-VP detection crawl, engine-executed.

        For a fixed world seed the returned records are identical for
        every *workers*/*shards* combination: outcomes are merged in
        plan (vp-major, then target) order and detection visits do not
        depend on scheduling.
        """
        from repro.api import EngineSpec, Session

        vps = list(vps) if vps is not None else list(VANTAGE_POINTS)
        targets = list(domains) if domains is not None else self.world.crawl_targets
        plan = self.plan_detection_crawl(vps, targets)
        hook = None
        if progress is not None:
            hook = BatchedProgress(
                progress, every=PROGRESS_BATCH, per_vp_total=len(targets)
            )
        session = Session(
            self.world,
            engine=EngineSpec(workers=workers, shards=shards),
            crawler=self,
            progress=hook,
        )
        return CrawlResult(records=session.execute(plan).records)

    # ------------------------------------------------------------------
    # Plan compilation (the engine's front end)
    # ------------------------------------------------------------------
    def plan_detection_crawl(
        self,
        vps: Optional[Sequence[str]] = None,
        domains: Optional[Iterable[str]] = None,
    ) -> CrawlPlan:
        """Compile the multi-VP detection crawl into a task plan."""
        vps = list(vps) if vps is not None else list(VANTAGE_POINTS)
        targets = list(domains) if domains is not None else self.world.crawl_targets
        return CrawlPlan(tasks=[
            CrawlTask(vp=vp, domain=domain, mode="detect")
            for vp in vps
            for domain in targets
        ])

    def plan_cookie_measurements(
        self,
        vp: str,
        domains: Iterable[str],
        *,
        mode: str = "accept",
        repeats: int = 5,
    ) -> CrawlPlan:
        """Compile repeated accept/reject cookie measurements."""
        if mode not in ("accept", "reject"):
            raise ValueError(f"unsupported cookie-measurement mode {mode!r}")
        return CrawlPlan(tasks=[
            CrawlTask(vp=vp, domain=domain, mode=mode, repeats=repeats)
            for domain in domains
        ])

    def plan_subscription_measurements(
        self,
        vp: str,
        domains: Iterable[str],
        platform: str,
        email: str,
        password: str,
        *,
        repeats: int = 5,
    ) -> CrawlPlan:
        """Compile logged-in SMP subscriber measurements.

        *platform* is the platform name (a ``world.platforms`` key); the
        credentials travel in the plan context so the plan stays pure
        serialisable data.
        """
        return CrawlPlan(
            tasks=[
                CrawlTask(vp=vp, domain=domain, mode="subscription",
                          repeats=repeats)
                for domain in domains
            ],
            context={
                "platform": platform, "email": email, "password": password,
            },
        )

    def plan_ublock(
        self,
        vp: str,
        domains: Iterable[str],
        *,
        iterations: int = 5,
    ) -> CrawlPlan:
        """Compile the §4.5 uBlock bypass measurement."""
        return CrawlPlan(tasks=[
            CrawlTask(vp=vp, domain=domain, mode="ublock", repeats=iterations)
            for domain in domains
        ])

    def run_task(
        self,
        task: CrawlTask,
        context: Optional[Dict] = None,
        *,
        visit_ids=None,
    ):
        """Execute one engine task; the engine's dispatch point.

        *visit_ids* is an optional per-task visit-id allocator the
        engine supplies in parallel mode (see the engine docstring).
        """
        if task.mode == "detect":
            campaign = (context or {}).get("multivantage")
            if campaign:
                return self.visit(
                    task.vp, task.domain, visit_ids=visit_ids,
                    scenario=RegulationScenario.from_context(
                        campaign.get("scenario")
                    ),
                    wave=int(campaign.get("wave", 0)),
                )
            return self.visit(task.vp, task.domain, visit_ids=visit_ids)
        if task.mode == "accept":
            return self.measure_accept_cookies(
                task.vp, task.domain, repeats=task.repeats,
                visit_ids=visit_ids,
            )
        if task.mode == "reject":
            return self.measure_reject_cookies(
                task.vp, task.domain, repeats=task.repeats,
                visit_ids=visit_ids,
            )
        if task.mode == "subscription":
            context = context or {}
            platform = self.world.platforms[str(context["platform"])]
            return self.measure_subscription_cookies(
                task.vp, task.domain, platform,
                str(context["email"]), str(context["password"]),
                repeats=task.repeats, visit_ids=visit_ids,
            )
        if task.mode == "ublock":
            return self.measure_ublock(
                task.vp, task.domain, iterations=task.repeats,
                visit_ids=visit_ids,
            )
        raise ValueError(f"unknown task mode {task.mode!r}")

    # ------------------------------------------------------------------
    # Cookie measurements (§4.3, Figure 4; §4.4, Figure 5)
    # ------------------------------------------------------------------
    def measure_accept_cookies(
        self, vp: str, domain: str, *, repeats: int = 5, visit_ids=None
    ) -> CookieMeasurement:
        """Visit, accept the banner, reload, count cookies; repeat."""
        measurement = CookieMeasurement(vp=vp, domain=domain, mode="accept")
        counts: List[CookieCounts] = []
        for _ in range(repeats):
            jar = CookieJar()
            browser = self.world.browser(vp, jar=jar, visit_ids=visit_ids)
            try:
                page = browser.visit(domain)
                detection = self.bannerclick.detect(page)
                if detection.found and detection.accept_element is not None:
                    accept_banner(browser, page, detection)
                    page = browser.reload(page)
            except (NavigationError, NetworkError, MeasurementError) as exc:
                if is_transient(exc):
                    raise
                measurement.error = type(exc).__name__
                continue
            site = page.site or domain
            count = count_cookies(jar, site, self.world.tracking_list)
            counts.append(count)
            measurement.per_visit.append(count.as_dict())
        measurement.repeats = len(counts)
        (measurement.avg_first_party,
         measurement.avg_third_party,
         measurement.avg_tracking) = average_counts(counts)
        return measurement

    def measure_reject_cookies(
        self, vp: str, domain: str, *, repeats: int = 5, visit_ids=None
    ) -> CookieMeasurement:
        """Visit, click reject (where offered), reload, count cookies.

        BannerClick's reject interaction (its PAM'23 heritage); walls
        have no reject button, so those measurements record an error.
        """
        measurement = CookieMeasurement(vp=vp, domain=domain, mode="reject")
        counts: List[CookieCounts] = []
        for _ in range(repeats):
            jar = CookieJar()
            browser = self.world.browser(vp, jar=jar, visit_ids=visit_ids)
            try:
                page = browser.visit(domain)
                detection = self.bannerclick.detect(page)
                if detection.found:
                    reject_banner(browser, page, detection)
                    page = browser.reload(page)
            except (NavigationError, NetworkError, MeasurementError) as exc:
                if is_transient(exc):
                    raise
                measurement.error = type(exc).__name__
                continue
            site = page.site or domain
            count = count_cookies(jar, site, self.world.tracking_list)
            counts.append(count)
            measurement.per_visit.append(count.as_dict())
        measurement.repeats = len(counts)
        (measurement.avg_first_party,
         measurement.avg_third_party,
         measurement.avg_tracking) = average_counts(counts)
        return measurement

    def measure_subscription_cookies(
        self,
        vp: str,
        domain: str,
        platform: SMPPlatform,
        email: str,
        password: str,
        *,
        repeats: int = 5,
        visit_ids=None,
    ) -> CookieMeasurement:
        """Visit as a logged-in subscriber; count newly set cookies."""
        measurement = CookieMeasurement(vp=vp, domain=domain, mode="subscription")
        counts: List[CookieCounts] = []
        for _ in range(repeats):
            jar = CookieJar()
            browser = self.world.browser(vp, jar=jar, visit_ids=visit_ids)
            try:
                login = browser.visit(
                    f"https://{platform.domain}/login"
                    f"?email={email}&password={password}"
                )
                if login.status != 200:
                    raise MeasurementError("SMP login failed")
                baseline = jar.snapshot()
                page = browser.visit(domain)
            except (NavigationError, NetworkError, MeasurementError) as exc:
                if is_transient(exc):
                    raise
                measurement.error = type(exc).__name__
                continue
            site = page.site or domain
            count = count_cookies(
                jar, site, self.world.tracking_list, baseline=baseline
            )
            counts.append(count)
            measurement.per_visit.append(count.as_dict())
        measurement.repeats = len(counts)
        (measurement.avg_first_party,
         measurement.avg_third_party,
         measurement.avg_tracking) = average_counts(counts)
        return measurement

    # ------------------------------------------------------------------
    # uBlock bypass measurement (§4.5)
    # ------------------------------------------------------------------
    def measure_ublock(
        self, vp: str, domain: str, *, iterations: int = 5, visit_ids=None
    ) -> UBlockRecord:
        """Visit with uBlock (Annoyances enabled); check wall and page."""
        record = UBlockRecord(domain=domain, iterations=iterations)
        for _ in range(iterations):
            ublock = UBlockOrigin(annoyances=True, extra_lists=self.ublock_lists)
            browser = self.world.browser(
                vp, extensions=[ublock], visit_ids=visit_ids
            )
            try:
                page = browser.visit(domain)
            except (NavigationError, NetworkError) as exc:
                if is_transient(exc):
                    raise
                record.errors += 1
                continue
            detection = self.bannerclick.detect(page)
            if detection.is_cookiewall:
                record.wall_seen_count += 1
            if page.flags.get("adblock_wall"):
                record.broken = True
                record.broken_reason = "anti-adblock prompt"
            elif page.scroll_locked and not detection.is_cookiewall:
                record.broken = True
                record.broken_reason = "page not scrollable"
        # "Suppressed" requires evidence: at least one visit must have
        # succeeded, otherwise an unreachable site would masquerade as a
        # successful uBlock bypass.
        record.suppressed = (
            record.wall_seen_count == 0 and record.errors < iterations
        )
        return record
