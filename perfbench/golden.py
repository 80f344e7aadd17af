"""Stored per-domain outcomes the benchmark checks every run against.

The benchmark's seed draws domain subsets, so no single stored summary
fits every seed.  Instead this module stores, once per workload, the
outcome of *every* domain the workload can draw, and the expected
summary for any seed is reduced from that table:

* detection workloads: which vantage points detect a wall on each
  domain (per-VP wall counts follow for any target subset);
* ``campaign-dist``: the same per wave of the campaign;
* ``measure-mix``: the wall sites uBlock suppresses.

The tables are generated on the process backend, whose per-task
visit-id streams differ from the serial shared counter the detection
workloads run under; the stored outcomes are therefore independent of
visit ids and of the backend, as the check requires.  A stale table
(the world generator changed) is reported as a mismatch of the world
digest, never as a silently different expectation.

Regenerate with ``python3 perfbench/golden.py`` (about a minute on two
cores); it rewrites ``perfbench/golden/*.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"


def world_digest(world) -> Dict[str, object]:
    targets = "\n".join(world.crawl_targets).encode("utf-8")
    return {
        "seed": world.config.seed,
        "scale": world.config.scale,
        "targets": len(world.crawl_targets),
        "sha256": hashlib.sha256(targets).hexdigest(),
    }


def load(name: str) -> Dict:
    with (GOLDEN_DIR / f"{name}.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def wall_counts(walls: Dict[str, List[str]], vps, domains) -> Dict[str, int]:
    """Per-VP number of *domains* the stored table marks as walls."""
    counts = {vp: 0 for vp in vps}
    for domain in domains:
        for vp in walls.get(domain, ()):
            if vp in counts:
                counts[vp] += 1
    return counts


def expected_summary(workload, inputs: Dict[str, List[str]]) -> Dict:
    """The summary a correct run of *workload* on *inputs* produces."""
    from perfbench.workloads import CAMPAIGN_MONTHS, vps_of

    table = load(workload.name)
    vps = vps_of(workload)
    if workload.name == "measure-mix":
        return {
            "suppressed": sorted(table["suppressed"]),
            "accept": len(inputs["walls"]) + len(inputs["banners"]),
            "reject": len(inputs["banners"]),
        }
    if workload.name == "campaign-dist":
        return {"walls": {
            str(month): wall_counts(
                table["waves"][str(month)], vps, inputs["targets"]
            )
            for month in CAMPAIGN_MONTHS
        }}
    return {"walls": wall_counts(table["walls"], vps, inputs["targets"])}


def check(workload, inputs, world, result) -> List[str]:
    """Every way *result* differs from a correct run (empty when none)."""
    problems = []
    stored = load(workload.name)["world"]
    if world_digest(world) != stored:
        problems.append(
            f"world differs from the stored table ({stored}); "
            "regenerate with perfbench/golden.py only if that is intended"
        )
    if result.records != result.tasks:
        problems.append(
            f"{result.records} records for a plan of {result.tasks} tasks"
        )
    if result.failed:
        problems.append(f"{result.failed} failed or degraded tasks")
    expected = expected_summary(workload, inputs)
    if result.summary != expected:
        problems.append(
            f"summary {result.summary} != expected {expected}"
        )
    return problems


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _walls_by_domain(records) -> Dict[str, List[str]]:
    walls: Dict[str, List[str]] = {}
    for record in records:
        if record.is_cookiewall:
            walls.setdefault(record.domain, []).append(record.vp)
    return {d: sorted(vps) for d, vps in sorted(walls.items())}


def generate(name: str) -> Dict:
    from repro.adblock.lists import synthetic_full_list
    from repro.api import EngineSpec, MultiVantageSpec, Session
    from repro.measure.crawl import Crawler
    from repro.webgen.world import build_world

    from perfbench.workloads import (
        CAMPAIGN_MONTHS, FULL_LIST_RULES, MEASURE_REPEATS, WORKLOADS,
        WORLD_SEED, vps_of,
    )

    workload = WORKLOADS[name]
    world = build_world(scale=workload.scale, seed=WORLD_SEED)
    engine = EngineSpec(executor="process", workers=2)
    vps = vps_of(workload)
    table: Dict[str, object] = {"world": world_digest(world)}
    if name == "measure-mix":
        crawler = Crawler(
            world, ublock_lists=[synthetic_full_list(FULL_LIST_RULES)]
        )
        walls = [d for d in world.crawl_targets if d in world.wall_domains]
        plan = crawler.plan_ublock(vps[0], walls, iterations=MEASURE_REPEATS)
        result = Session(world, engine=engine, crawler=crawler).execute(plan)
        table["suppressed"] = sorted(
            r.domain for r in result.iter_records() if r.suppressed
        )
    elif name == "campaign-dist":
        run = Session(world, engine=engine).multivantage(
            MultiVantageSpec(vps=tuple(vps), months=CAMPAIGN_MONTHS)
        )
        waves: Dict[str, Dict] = {str(month): {} for month in CAMPAIGN_MONTHS}
        records = iter(run.iter_records())
        per_wave = len(vps) * len(world.crawl_targets)
        for month in CAMPAIGN_MONTHS:
            wave = [next(records) for _ in range(per_wave)]
            waves[str(month)] = _walls_by_domain(wave)
        table["waves"] = waves
    else:
        session = Session(world, engine=engine)
        plan = session.crawler.plan_detection_crawl(vps, world.crawl_targets)
        table["walls"] = _walls_by_domain(session.execute(plan).iter_records())
    return table


def main(argv: List[str]) -> int:
    from perfbench.workloads import WORKLOADS

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        table = generate(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]
    sys.exit(main(sys.argv[1:]))
