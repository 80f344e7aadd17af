"""Hot-path benchmarks: the indexed visit loop vs the linear baseline.

Four measurements, written cumulatively to
``benchmarks/output/BENCH_hotpaths.json`` so the perf trajectory is
tracked across PRs:

- ``filter_match``   — request decisions against a full-scale list
                       (naive linear scan vs trie/token-indexed engine);
- ``parse_cache``    — parsing a site body vs a cache miss (one parse
                       plus a snapshot) vs a cache hit (a rebuild from
                       the snapshot);
- ``selector``       — cosmetic-filter style queries, tree walk vs
                       compiled plans + document index;
- ``end_to_end``     — the §4.5 uBlock-arm measurement (visits/sec)
                       with every hot path off vs on.

The acceptance floors (≥5x filter matching, ≥2x end-to-end uBlock
visits/sec, a cache miss ≤1.15x a bare parse, byte-identical records)
are asserted here, so the bench smoke doubles as a regression gate.  A
dedicated small world keeps the numbers stable regardless of
``REPRO_BENCH_SCALE``.  ``parse_cache`` keeps its historical
``clone_ms_per_doc`` key for the time of a cache hit.
"""

import gc
import json
import statistics
import time

from conftest import BENCH_SEED, OUTPUT_DIR, write_artifact

from repro import perf
from repro.adblock import FilterEngine, NaiveFilterEngine, annoyances_list, easylist
from repro.adblock.lists import synthetic_full_list
from repro.dom.selector import query_selector_all
from repro.httpkit import Request
from repro.measure.crawl import Crawler
from repro.netsim import VisitorContext
from repro.soup import parse_document
from repro.soup.cache import DocumentCache
from repro.vantage import VANTAGE_POINTS
from repro.webgen import build_world

_WORLD_SCALE = 0.05
_FULL_LIST_RULES = 20000
_UBLOCK_DOMAINS = 12
_UBLOCK_ITERATIONS = 5
#: A parse-cache miss may cost at most this many bare parses.
_MISS_RATIO_CEILING = 1.15

_JSON_PATH = OUTPUT_DIR / "BENCH_hotpaths.json"


def _update_json(section: str, payload: dict) -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    data = {}
    if _JSON_PATH.exists():
        data = json.loads(_JSON_PATH.read_text(encoding="utf-8"))
    data.setdefault("meta", {
        "world_scale": _WORLD_SCALE,
        "seed": BENCH_SEED,
        "full_list_rules": _FULL_LIST_RULES,
    })
    data[section] = payload
    _JSON_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _full_lists():
    return [easylist(), annoyances_list(),
            synthetic_full_list(_FULL_LIST_RULES, seed=BENCH_SEED)]


def _request_stream(n: int = 400):
    hosts = (
        "doubleclick.net", "cdn.opencmp.net", "site.de", "sub.trackmax.com",
        "news.example.co.uk", "assets.boerse.de", "cdn.usercentrics.eu",
    )
    types = ("script", "image", "xhr", "stylesheet")
    return [
        Request(
            url=f"https://{hosts[i % len(hosts)]}/path{i}/pixel?id={i}",
            initiator="https://site.de/",
            resource_type=types[i % len(types)],
        )
        for i in range(n)
    ]


def test_filter_match_speedup(benchmark):
    """Decision throughput at full-list size: naive vs indexed."""
    lists = _full_lists()
    requests = _request_stream()

    def build_and_run(engine_cls):
        engine = engine_cls()
        engine.add_lists(lists)
        engine.should_block(requests[0])  # compile / warm
        started = time.perf_counter()
        decisions = [engine.should_block(r) for r in requests]
        return time.perf_counter() - started, decisions

    naive_elapsed, naive_decisions = build_and_run(NaiveFilterEngine)

    def indexed_run():
        return build_and_run(FilterEngine)

    indexed_elapsed, indexed_decisions = benchmark.pedantic(
        indexed_run, rounds=1, iterations=1, warmup_rounds=0
    )
    assert indexed_decisions == naive_decisions
    speedup = naive_elapsed / indexed_elapsed
    _update_json("filter_match", {
        "requests": len(requests),
        "filters": sum(len(t.splitlines()) for t in lists),
        "naive_rps": round(len(requests) / naive_elapsed),
        "indexed_rps": round(len(requests) / indexed_elapsed),
        "speedup": round(speedup, 2),
    })
    # The ISSUE's acceptance floor.
    assert speedup >= 5.0


def test_parse_vs_clone(benchmark, bench_world):
    """Re-tokenizing a site body vs a parse-cache miss vs a cache hit.

    A miss must cost one parse and little else.  Each round times a
    bare parse and a miss on a fresh cache back to back, in alternating
    order, so a drifting core slows both sides alike; the median of the
    per-round miss/parse ratios may be at most ``_MISS_RATIO_CEILING``.
    The collector is paused for the rounds: both sides leave the same
    cyclic garbage (a parsed tree links parents and children), and in a
    loop this regular its collections phase-lock onto one side.  What
    the collector costs a crawl is measured end to end (``perfbench``).
    """
    domain = bench_world.crawl_targets[0]
    url = f"https://{domain}/"
    request = Request(url=url, resource_type="document")
    visitor = VisitorContext(vp=VANTAGE_POINTS["DE"], visit_id=1)
    body = bench_world.network.fetch(request, visitor).body
    rounds = 200

    parse_document(body, url=url)
    DocumentCache().parse(body, url)  # warm both paths
    parse_times, miss_times = [], []
    gc.disable()
    try:
        for index in range(rounds):
            cold = DocumentCache()
            for side in ((0, 1) if index % 2 else (1, 0)):
                started = time.perf_counter()
                if side:
                    cold.parse(body, url)
                    miss_times.append(time.perf_counter() - started)
                else:
                    parse_document(body, url=url)
                    parse_times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    miss_ratio = statistics.median(
        miss / parse for miss, parse in zip(miss_times, parse_times)
    )
    parse_s = statistics.median(parse_times)

    cache = DocumentCache()
    cache.parse(body, url)  # prime

    def hit_run():
        started = time.perf_counter()
        for _ in range(rounds):
            cache.parse(body, url)
        return time.perf_counter() - started

    hit_s = benchmark.pedantic(
        hit_run, rounds=1, iterations=1, warmup_rounds=0
    ) / rounds
    _update_json("parse_cache", {
        "body_bytes": len(body),
        "rounds": rounds,
        "parse_ms_per_doc": round(parse_s * 1000, 4),
        "miss_ms_per_doc": round(statistics.median(miss_times) * 1000, 4),
        "clone_ms_per_doc": round(hit_s * 1000, 4),
        "speedup": round(parse_s / hit_s, 2),
        "miss_ratio": round(miss_ratio, 3),
        "miss_ratio_ceiling": _MISS_RATIO_CEILING,
    })
    assert cache.hits == rounds
    assert miss_ratio <= _MISS_RATIO_CEILING


def test_selector_query_speedup(benchmark, bench_world):
    """Cosmetic-filter style selector queries: walk vs document index."""
    domain = bench_world.crawl_targets[0]
    request = Request(url=f"https://{domain}/", resource_type="document")
    visitor = VisitorContext(vp=VANTAGE_POINTS["DE"], visit_id=1)
    document = parse_document(
        bench_world.network.fetch(request, visitor).body,
        url=f"https://{domain}/",
    )
    selectors = [
        ".ad-banner-top", "div[data-ad-slot]", ".cmp-overlay-backdrop",
        'div[id^="sp_message_container"]', ".cookie-notice-slide-in",
        "footer a", "main > article p", "#nonexistent",
    ]
    rounds = 300

    with perf.disabled("selector_index"):
        walk_results = [query_selector_all(document, s) for s in selectors]
        started = time.perf_counter()
        for _ in range(rounds):
            for selector in selectors:
                query_selector_all(document, selector)
        walk_elapsed = time.perf_counter() - started

    assert [query_selector_all(document, s) for s in selectors] == walk_results

    def indexed_run():
        started = time.perf_counter()
        for _ in range(rounds):
            for selector in selectors:
                query_selector_all(document, selector)
        return time.perf_counter() - started

    indexed_elapsed = benchmark.pedantic(
        indexed_run, rounds=1, iterations=1, warmup_rounds=0
    )
    queries = rounds * len(selectors)
    _update_json("selector", {
        "queries": queries,
        "walk_qps": round(queries / walk_elapsed),
        "indexed_qps": round(queries / indexed_elapsed),
        "speedup": round(walk_elapsed / indexed_elapsed, 2),
    })


def test_end_to_end_ublock_arm(benchmark):
    """The §4.5 uBlock-arm measurement at full-list size, off vs on.

    Real uBlock runs EasyList + Annoyances at tens of thousands of
    rules; the embedded lists only cover the synthetic third parties,
    so the arm is benchmarked with a deterministic full-scale list
    loaded on top — the regime the ISSUE's 2x floor refers to.
    """
    world = build_world(scale=_WORLD_SCALE, seed=BENCH_SEED)
    crawler = Crawler(
        world,
        ublock_lists=[synthetic_full_list(_FULL_LIST_RULES, seed=BENCH_SEED)],
    )
    walls = sorted(world.wall_domains)[:_UBLOCK_DOMAINS]
    visits = len(walls) * _UBLOCK_ITERATIONS

    def ublock_arm():
        return [
            crawler.measure_ublock("DE", d, iterations=_UBLOCK_ITERATIONS)
            for d in walls
        ]

    # Warm the shared list-parse cache so neither leg times list parsing.
    ublock_arm()

    with perf.disabled():
        started = time.perf_counter()
        naive_records = ublock_arm()
        naive_elapsed = time.perf_counter() - started

    indexed_records = benchmark.pedantic(
        ublock_arm, rounds=1, iterations=1, warmup_rounds=0
    )
    indexed_elapsed = benchmark.stats.stats.total

    assert [r.to_dict() for r in indexed_records] == [
        r.to_dict() for r in naive_records
    ]
    speedup = naive_elapsed / indexed_elapsed
    naive_rate = visits / naive_elapsed
    indexed_rate = visits / indexed_elapsed
    _update_json("end_to_end", {
        "wall_domains": len(walls),
        "iterations": _UBLOCK_ITERATIONS,
        "visits": visits,
        "naive_visits_per_sec": round(naive_rate, 1),
        "indexed_visits_per_sec": round(indexed_rate, 1),
        "speedup": round(speedup, 2),
    })
    write_artifact(
        "hotpaths_summary",
        f"uBlock arm at full-list size ({_FULL_LIST_RULES} extra rules)\n"
        f"hot paths off: {naive_rate:.1f} visits/sec\n"
        f"hot paths on:  {indexed_rate:.1f} visits/sec\n"
        f"speedup:       {speedup:.2f}x (records byte-identical)",
    )
    # The ISSUE's acceptance floor.
    assert speedup >= 2.0
