"""The golden-output scenarios: small fixed-seed runs whose final spool
bytes (and papercheck values) are stored under ``tests/golden/``.

The stored values are the behaviour freeze for refactors of the
execution stack: a change that removes a backend, a merge mode, or a
code path must still reproduce these bytes on every remaining backend.
``tests/test_golden_outputs.py`` checks them; ``tests/golden/regen.py``
(never run by the tests) rewrites them.

Every scenario runs on the scale-0.02, seed-7 world.  Digests are the
sha256 of the final spool file.  Two regimes appear:

- the *serial shared-counter* regime (``workers=1``, no checkpoint):
  measurements draw visit ids from the network's monotonic counter, so
  only the serial backend can produce these bytes;
- the *per-task* regime (checkpointed runs, campaigns, chaos, and every
  parallel backend): each task owns a visit-id stream, so the bytes are
  the same on every backend.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import EngineSpec, MultiVantageSpec, OutputSpec, Session
from repro.measure import CrawlEngine, Crawler, RetryPolicy
from repro.resilience.chaos import ChaosSpec
from repro.webgen import build_world
from repro.webgen.evolve import evolve_world

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
SPOOLS_FILE = GOLDEN_DIR / "spools.json"
PAPERCHECK_FILE = GOLDEN_DIR / "papercheck.json"
WORLDS_FILE = GOLDEN_DIR / "worlds.json"

#: The world every spool scenario runs on.
WORLD = {"scale": 0.02, "seed": 7}


#: Parallel geometry for the bundle backends.
WORKERS = 2
SHARDS = 4

#: Recoverable chaos regime (the one ``tests/test_chaos.py`` pins) and
#: its seeded-but-silent twin, which keeps the visit-id regime equal.
RECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, disconnect_rate=0.03,
    truncate_rate=0.02,
)
IDLE = ChaosSpec(seed=99)

#: Scenarios whose bytes only the serial shared-counter regime makes.
SERIAL_ONLY = ("accept_de_r2_serial_counter",)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def engine_kwargs(backend: str) -> Dict:
    """``CrawlEngine`` geometry for *backend*."""
    if backend == "serial":
        return {"workers": 1, "backend": "serial"}
    return {"workers": WORKERS, "shards": SHARDS, "backend": backend}


def engine_spec(backend: str) -> EngineSpec:
    kwargs = engine_kwargs(backend)
    return EngineSpec(
        workers=kwargs["workers"],
        shards=kwargs.get("shards"),
        executor=kwargs["backend"],
    )


def measure_domains(world) -> List[str]:
    """Every wall plus regular sites, so both page kinds are measured."""
    walls = sorted(world.wall_domains)
    filler = [d for d in world.crawl_targets if d not in set(walls)]
    return walls + filler[:14]


def campaign_domains(world) -> tuple:
    """Targets of the two-wave campaign (baseline + 6 months).

    ``evolve_world`` picks the walls whose price changes or that drop
    their wall by sampling a list built from the ``wall_domains`` set,
    so *which* independent walls change depends on ``PYTHONHASHSEED``.
    Those sites (the baseline's independent walls and the walls the
    evolution adopts, which are independent too) are left out, so the
    stored bytes are a function of the seed alone.  The SMP walls, the
    regular sites and the sites that die in the evolution remain.
    """
    _, summary = evolve_world(world, months=6)
    unstable = set(summary.new_walls) | {
        d for d in world.wall_domains if world.sites[d].smp is None
    }
    smp_walls = sorted(set(world.wall_domains) - unstable)
    regular = [d for d in world.crawl_targets[:60] if d not in unstable]
    return tuple(smp_walls + regular)


def _spool(crawler, plan, path: Path, backend: str, *, checkpoint: bool,
           retry: Optional[RetryPolicy] = None) -> str:
    CrawlEngine(
        crawler,
        spool_path=path,
        checkpoint_path=Path(f"{path}.checkpoint") if checkpoint else None,
        retry=retry,
        **engine_kwargs(backend),
    ).execute(plan)
    return sha256_file(path)


def run_scenario(name: str, world, backend: str, tmp: Path) -> Dict[str, str]:
    """Run scenario *name* under *backend*; returns its digests."""
    crawler = Crawler(world)
    domains = measure_domains(world)
    out = tmp / f"{name}.jsonl"
    if name == "detect_de_use":
        plan = crawler.plan_detection_crawl(["DE", "USE"], world.crawl_targets)
        return {"spool": _spool(crawler, plan, out, backend, checkpoint=False)}
    if name == "accept_de_r2_serial_counter":
        # The shared counter carries over between runs on one world, so
        # this regime gets a fresh build: the bytes must not depend on
        # which scenarios ran before.
        crawler = Crawler(build_world(**WORLD))
        plan = crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        return {"spool": _spool(crawler, plan, out, backend, checkpoint=False)}
    if name == "accept_de_r2_per_task":
        plan = crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        return {"spool": _spool(crawler, plan, out, backend, checkpoint=True)}
    if name == "ublock_de":
        plan = crawler.plan_ublock("DE", domains, iterations=2)
        return {"spool": _spool(crawler, plan, out, backend, checkpoint=True)}
    if name == "multivantage_2wave":
        out_dir = tmp / name
        Session(world, engine=engine_spec(backend)).multivantage(
            MultiVantageSpec(
                vps=("DE", "USE", "BR"), months=(0, 6),
                domains=campaign_domains(world),
            ),
            output=OutputSpec(out_dir=str(out_dir)),
        )
        return {
            path.name: sha256_file(path)
            for path in sorted(out_dir.glob("wave-*.jsonl"))
        }
    if name == "chaos_recoverable":
        digests = {}
        for label, spec in (("fault_free", IDLE), ("recoverable", RECOVERABLE)):
            plan = crawler.plan_detection_crawl(
                ["DE", "USE"], world.crawl_targets[:60]
            )
            plan.context["chaos"] = spec.to_context()
            digests[label] = _spool(
                crawler, plan, tmp / f"{name}-{label}.jsonl", backend,
                checkpoint=False, retry=RetryPolicy(max_attempts=8),
            )
        return digests
    raise KeyError(name)


SCENARIOS = (
    "detect_de_use",
    "accept_de_r2_serial_counter",
    "accept_de_r2_per_task",
    "ublock_de",
    "multivantage_2wave",
    "chaos_recoverable",
)


def papercheck_measured() -> List[Dict]:
    """``compare_with_paper`` rows for every experiment on a fresh
    context over the golden world.

    Fresh, not a shared fixture: the context measures cookies in the
    serial shared-counter regime, so its values depend on every visit
    made on that world before.
    """
    from repro.analysis.papercheck import compare_with_paper
    from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment

    world = build_world(**WORLD)
    context = ExperimentContext(world, crawler=Crawler(world))
    comparison = compare_with_paper(
        [run_experiment(e, context=context) for e in sorted(EXPERIMENTS)]
    )
    return [
        {
            "experiment": row.experiment,
            "metric": row.metric,
            "measured": row.measured,
            "holds": row.holds,
        }
        for row in comparison.rows
    ]


#: World-identity cases: ``(seed, scale, months)``.  The 0.2-scale base
#: world runs ``make_domain`` deep into saturated stem x suffix
#: namespaces (its numbered fallback), which the 0.02 spool world
#: barely touches; months > 0 is an ``evolve_world`` snapshot.
WORLD_CASES = ((2023, 0.05, 0), (2023, 0.2, 0), (2023, 0.05, 6))

#: ``evolve_world`` samples from lists built by iterating the
#: ``wall_domains`` set, so an evolved snapshot is only reproducible
#: under one fixed hash seed; evolved cases are digested in a
#: subprocess pinned to it.
EVOLVED_HASH_SEED = "0"


def _canonical(value):
    """A JSON-able form of *value* with every set sorted."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


def _sha(value) -> str:
    blob = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def world_digests(world) -> Dict:
    """sha256 digests of everything that makes up a world's identity:
    every ``SiteSpec`` (in insertion order), each toplist's entries,
    the crawl targets, the wall/bait sets, and the SMP rosters."""
    return {
        "sites": _sha(list(world.sites.values())),
        "toplists": {
            country: _sha(toplist.domains())
            for country, toplist in sorted(world.toplists.items())
        },
        "crawl_targets": _sha(world.crawl_targets),
        "wall_domains": _sha(sorted(world.wall_domains)),
        "bait_domains": _sha(sorted(world.bait_domains)),
        "partner_domains": {
            name: _sha(platform.partner_domains)
            for name, platform in sorted(world.platforms.items())
        },
        "offlist_partner_domains": _sha(world.offlist_partner_domains),
    }


def case_key(seed: int, scale: float, months: int) -> str:
    return f"seed={seed} scale={scale} months={months}"


def world_case_digests(seed: int, scale: float, months: int) -> Dict:
    """:func:`world_digests` of one :data:`WORLD_CASES` entry.

    Base worlds are digested in this process; evolved ones in a
    subprocess with ``PYTHONHASHSEED`` pinned to
    :data:`EVOLVED_HASH_SEED`.
    """
    if not months:
        return world_digests(build_world(seed=seed, scale=scale))
    root = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ, PYTHONHASHSEED=EVOLVED_HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-m", "tests.support.golden",
         str(seed), str(scale), str(months)],
        env=env, cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _evolved_digests_main(argv: List[str]) -> int:
    seed, scale, months = int(argv[0]), float(argv[1]), int(argv[2])
    world, _ = evolve_world(build_world(seed=seed, scale=scale), months=months)
    print(json.dumps(world_digests(world), sort_keys=True))
    return 0


def load(path: Path) -> Dict:
    return json.loads(path.read_text(encoding="utf-8"))


def dump(path: Path, payload: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    raise SystemExit(_evolved_digests_main(sys.argv[1:]))
