"""Which calls the traced run wraps, and the per-layer metrics they give.

Each layer is timed at its public entry points (the wrappers come from
:mod:`perfbench.tracer`); a layer's time is the *self* time of its
spans, so time a layer spends calling into another layer is booked to
the callee.  ``README.md`` maps every metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

#: (span name, defining module, attribute path, modules that import the
#: attribute by name).  A method is patched on the class that defines it.
SPANS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("netsim.fetch", "repro.netsim.network", "Network.fetch", ()),
    ("soup.cache_parse", "repro.soup.cache", "DocumentCache.parse", ()),
    ("soup.parse_document", "repro.soup.parser", "parse_document",
     ("repro.soup.cache", "repro.browser.core")),
    ("browser.visit", "repro.browser.core", "Browser.visit", ()),
    ("browser.fetch_subresource", "repro.browser.core",
     "Browser.fetch_subresource", ()),
    ("httpkit.set_cookie", "repro.httpkit.cookies",
     "CookieJar.set_from_header", ()),
    ("httpkit.cookies_for", "repro.httpkit.cookies", "CookieJar.cookies_for", ()),
    ("adblock.should_block", "repro.adblock.engine",
     "FilterEngine.should_block", ()),
    ("adblock.build", "repro.adblock.ublock", "UBlockOrigin.__init__", ()),
    ("bannerclick.detect", "repro.bannerclick.detect", "BannerClick.detect", ()),
    ("bannerclick.interact", "repro.bannerclick.interact", "accept_banner",
     ("repro.measure.crawl",)),
    ("bannerclick.interact", "repro.bannerclick.interact", "reject_banner",
     ("repro.measure.crawl",)),
    ("lang.detect", "repro.lang.detector", "LanguageDetector.detect", ()),
    ("engine.run_task", "repro.measure.crawl", "Crawler.run_task", ()),
    ("engine.execute", "repro.measure.engine", "CrawlEngine.execute", ()),
    ("storage.encode", "repro.measure.storage", "encode_record_line",
     ("repro.measure.engine",)),
    ("storage.merge", "repro.measure.storage", "merge_record_spools",
     ("repro.measure.engine",)),
    ("wire.encode", "repro.distributed.wire", "encode_message", ()),
    ("wire.decode", "repro.distributed.wire", "decode_message", ()),
    ("wire.redispatch", "repro.distributed.executor",
     "DistributedExecutor.redispatch_bundle", ()),
    ("analysis.fold", "repro.analysis.streaming",
     "StreamingCrawlAnalysis.add", ()),
    ("analysis.fold", "repro.analysis.streaming",
     "StreamingCookieComparison.add", ()),
    ("analysis.fold", "repro.analysis.discrepancy",
     "StreamingDiscrepancyReport.add", ()),
    ("webgen.evolve", "repro.webgen.evolve", "evolve_world",
     ("repro.api.session",)),
)


def _count_blocked(tracer, blocked, args) -> None:
    if blocked:
        tracer.count("adblock.blocked")


def _count_encoded(tracer, frame, args) -> None:
    tracer.count("wire.bytes", len(frame))


def _count_decoded(tracer, message, args) -> None:
    tracer.count("wire.bytes", len(args[0]))


_OBSERVERS = {
    "adblock.should_block": _count_blocked,
    "wire.encode": _count_encoded,
    "wire.decode": _count_decoded,
}


def install(tracer) -> None:
    """Wrap every entry point in :data:`SPANS` (undo: ``tracer.restore``)."""
    for name, module_name, path, alias_names in SPANS:
        owner = importlib.import_module(module_name)
        attr = path
        if "." in path:
            class_name, attr = path.split(".")
            cls = getattr(owner, class_name)
            owner = next((k for k in cls.__mro__ if attr in vars(k)), cls)
        aliases = [importlib.import_module(m) for m in alias_names]
        tracer.patch(
            owner, attr, name, aliases=aliases, observe=_OBSERVERS.get(name)
        )


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("netsim.fetch_calls_per_task", "count", "lower"),
    ("netsim.fetch_us_per_task", "us", "lower"),
    ("soup.parse_us_per_task", "us", "lower"),
    ("soup.clone_us_per_task", "us", "lower"),
    ("soup.cache_hit_ratio", "ratio", "higher"),
    ("browser.tree_us_per_task", "us", "lower"),
    ("browser.subresources_per_task", "count", "lower"),
    ("httpkit.set_cookie_calls_per_task", "count", "lower"),
    ("httpkit.set_cookie_us_per_task", "us", "lower"),
    ("httpkit.cookies_for_us_per_task", "us", "lower"),
    ("adblock.decisions_per_task", "count", "lower"),
    ("adblock.should_block_us_per_task", "us", "lower"),
    ("adblock.block_ratio", "ratio", "higher"),
    ("adblock.build_ms", "ms", "lower"),
    ("bannerclick.detect_us_per_task", "us", "lower"),
    ("bannerclick.interact_us_per_task", "us", "lower"),
    ("lang.detect_us_per_task", "us", "lower"),
    ("engine.run_task_us", "us", "lower"),
    ("engine.overhead_us_per_task", "us", "lower"),
    ("engine.records_per_attempt", "ratio", "higher"),
    ("storage.encode_us_per_record", "us", "lower"),
    ("storage.merge_s", "s", "lower"),
    ("storage.spool_bytes", "bytes", "lower"),
    ("storage.checkpoint_bytes", "bytes", "lower"),
    ("wire.frames", "count", "lower"),
    ("wire.bytes", "bytes", "lower"),
    ("wire.decode_us_per_record", "us", "lower"),
    ("wire.redispatches", "count", "lower"),
    ("analysis.fold_us_per_record", "us", "lower"),
    ("webgen.build_s", "s", "lower"),
    ("webgen.evolve_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup, visits, coordinator, *, tasks: int, records: int,
    cache_hits: int, cache_misses: int, files: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics from three tracer snapshots.

    *setup* covers set-up (world build, filter compile); *visits* a
    pass whose visits ran in this process; *coordinator* the pass whose
    coordinator-side layers count (the same object as *visits* except
    on ``campaign-dist``, where visits run in worker processes and a
    serial replay of the plan stands in for them).  *files* carries the
    spool and checkpoint bytes the pass wrote.  ``trace.overhead_ratio``
    is filled in by the caller, which also ran untraced.
    """
    us = 1e6
    v, c = visits, coordinator
    return {
        "netsim.fetch_calls_per_task": _ratio(v.calls("netsim.fetch"), tasks),
        "netsim.fetch_us_per_task": _ratio(v.self_time("netsim.fetch") * us, tasks),
        "soup.parse_us_per_task": _ratio(
            v.self_time("soup.parse_document") * us, tasks),
        "soup.clone_us_per_task": _ratio(
            v.self_time("soup.cache_parse") * us, tasks),
        "soup.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "browser.tree_us_per_task": _ratio(
            (v.self_time("browser.visit")
             + v.self_time("browser.fetch_subresource")) * us, tasks),
        "browser.subresources_per_task": _ratio(
            v.calls("browser.fetch_subresource"), tasks),
        "httpkit.set_cookie_calls_per_task": _ratio(
            v.calls("httpkit.set_cookie"), tasks),
        "httpkit.set_cookie_us_per_task": _ratio(
            v.self_time("httpkit.set_cookie") * us, tasks),
        "httpkit.cookies_for_us_per_task": _ratio(
            v.self_time("httpkit.cookies_for") * us, tasks),
        "adblock.decisions_per_task": _ratio(
            v.calls("adblock.should_block"), tasks),
        "adblock.should_block_us_per_task": _ratio(
            v.self_time("adblock.should_block") * us, tasks),
        "adblock.block_ratio": _ratio(
            v.counter("adblock.blocked"), v.calls("adblock.should_block")),
        "adblock.build_ms": (
            setup.total("adblock.build") + v.total("adblock.build")) * 1e3,
        "bannerclick.detect_us_per_task": _ratio(
            v.self_time("bannerclick.detect") * us, tasks),
        "bannerclick.interact_us_per_task": _ratio(
            v.self_time("bannerclick.interact") * us, tasks),
        "lang.detect_us_per_task": _ratio(v.self_time("lang.detect") * us, tasks),
        "engine.run_task_us": _ratio(
            v.total("engine.run_task") * us, v.calls("engine.run_task")),
        "engine.overhead_us_per_task": _ratio(
            (v.total("engine.execute") - v.total("engine.run_task")) * us,
            tasks),
        "engine.records_per_attempt": _ratio(
            records, v.calls("engine.run_task")),
        "storage.encode_us_per_record": _ratio(
            v.self_time("storage.encode") * us, v.calls("storage.encode")),
        "storage.merge_s": c.total("storage.merge"),
        "storage.spool_bytes": files.get("spool", 0),
        "storage.checkpoint_bytes": files.get("checkpoint", 0),
        "wire.frames": c.calls("wire.encode") + c.calls("wire.decode"),
        "wire.bytes": c.counter("wire.bytes"),
        "wire.decode_us_per_record": _ratio(
            c.self_time("wire.decode") * us, records),
        "wire.redispatches": c.calls("wire.redispatch"),
        "analysis.fold_us_per_record": _ratio(
            c.self_time("analysis.fold") * us, records),
        "webgen.build_s": setup.total("webgen.build"),
        "webgen.evolve_s": c.total("webgen.evolve"),
    }
