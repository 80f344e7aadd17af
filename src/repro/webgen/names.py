"""Deterministic, language-flavoured domain name generation.

:func:`make_domain` draws from the world generator's seeded streams, and
every later site, toplist and wall depends on how much of the stream it
consumes, so its draws are fixed: per attempt, a stem index and then a
suffix index, each exactly as ``rng.choice`` would draw it.  It inlines
CPython's ``Random.choice`` (3.11/3.12), which is
``seq[self._randbelow(len(seq))]`` with ``_randbelow`` the
``getrandbits`` rejection loop::

    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)

so it consumes the same words of the Mersenne Twister stream as two
``choice`` calls, at a fraction of their cost.  That cost matters: in a
saturated stem x suffix namespace a call makes all 200 attempts before
its numbered fallback, and those draws dominated building a large world.
``tests/test_names_differential.py`` holds this function to the
``choice``-based reference (``tests/support/names_oracle.py``), name,
``used`` set and generator state after every call; a Python whose
``choice`` draws differently fails it.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Set, Tuple

_STEMS: Dict[str, List[str]] = {
    "de": [
        "nachrichten", "zeitung", "stadtanzeiger", "sportwelt", "wetter",
        "boerse", "autohaus", "reisefieber", "kochstube", "technikblick",
        "spielehalle", "gesundleben", "immowelt", "modetrend", "musikbox",
        "heimwerker", "gartenzeit", "finanztipp", "lokalblatt", "kinowelt",
        "buchecke", "familienzeit", "studienwahl", "jobboerse", "tierfreund",
    ],
    "en": [
        "dailynews", "sportsline", "weatherhub", "marketwatcher", "autozone",
        "travelnest", "cookbook", "technews", "gamerden", "healthline",
        "homefinder", "fashionfeed", "musicbay", "moviegeek", "bookworm",
        "jobsearch", "petcorner", "gardenlife", "financetips", "localvoice",
        "campusdaily", "foodcritic", "streetstyle", "cityguide", "nightowl",
    ],
    "it": [
        "giornale", "notizie", "sportivo", "meteoitalia", "borsaoggi",
        "automondo", "viaggiare", "cucinare", "tecnologia", "saluteviva",
    ],
    "sv": [
        "nyheter", "sportbladet", "vaderkollen", "borsliv", "bilvarlden",
        "reselust", "matglad", "teknikkollen", "halsoliv", "bostadsnytt",
    ],
    "fr": [
        "journal", "actualites", "sportif", "meteofrance", "boursier",
        "automoto", "voyageur", "cuisinier", "technologie", "santevie",
    ],
    "es": [
        "diario", "noticias", "deportivo", "tiempohoy", "bolsaviva",
        "automundo", "viajero", "cocinar", "tecnologia", "saludhoy",
    ],
    "pt": [
        "jornal", "noticias", "esportivo", "tempoagora", "bolsaviva",
        "automundo", "viajante", "cozinhar", "tecnologia", "saudeviva",
    ],
    "nl": [
        "nieuwsblad", "sportwereld", "weerbericht", "beurskoers",
        "autowereld", "reislust", "kookplezier", "techniek", "gezondleven",
        "woonnieuws",
    ],
    "da": [
        "nyhederne", "sportsliv", "vejrudsigt", "borsnyt", "bilverden",
        "rejselyst", "madglad", "teknikfokus", "sundliv", "boligny",
    ],
    "zu": [
        "izindaba", "ezemidlalo", "isimozulu", "imakethe", "izimoto",
        "uhambo", "ukupheka", "ubuchwepheshe", "impilo", "ikhaya",
    ],
}

_SUFFIXES = [
    "", "24", "-online", "portal", "aktuell", "plus", "direct", "zone",
    "base", "point", "spot", "live", "now", "pro", "hq", "city", "land",
]

_N_SUFFIXES = len(_SUFFIXES)
_K_SUFFIXES = _N_SUFFIXES.bit_length()


@functools.lru_cache(maxsize=64)
def _candidates(language: str, tld: str) -> Tuple[Tuple[str, ...], ...]:
    """``stem + suffix + "." + tld`` for every stem and suffix of
    *language*, as ``table[stem_index][suffix_index]``: the 200-attempt
    loop looks names up instead of formatting them.  A world uses a few
    dozen (language, tld) pairs."""
    return tuple(
        tuple(f"{stem}{suffix}.{tld}" for suffix in _SUFFIXES)
        for stem in _STEMS[language]
    )


def make_domain(
    rng: random.Random, language: str, tld: str, used: Set[str]
) -> str:
    """Generate a unique registrable domain for a language/TLD."""
    if language not in _STEMS:
        language = "en"
    stems = _STEMS[language]
    table = _candidates(language, tld)
    getrandbits = rng.getrandbits
    n_stems = len(stems)
    k_stems = n_stems.bit_length()
    for _ in range(200):
        # rng.choice(stems), then rng.choice(_SUFFIXES), inlined.
        stem = getrandbits(k_stems)
        while stem >= n_stems:
            stem = getrandbits(k_stems)
        suffix = getrandbits(_K_SUFFIXES)
        while suffix >= _N_SUFFIXES:
            suffix = getrandbits(_K_SUFFIXES)
        candidate = table[stem][suffix]
        if candidate not in used:
            used.add(candidate)
            return candidate
    # Dense namespace: fall back to numbered names (always unique).
    counter = 1
    stem = rng.choice(stems)
    while f"{stem}{counter}.{tld}" in used:
        counter += 1
    candidate = f"{stem}{counter}.{tld}"
    used.add(candidate)
    return candidate


def site_title(domain: str) -> str:
    """A human-readable site name derived from the domain."""
    label = domain.split(".")[0]
    return label.replace("-", " ").title()
