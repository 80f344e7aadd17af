"""The reference domain namer: ``make_domain`` as a plain
``rng.choice`` loop.

:func:`repro.webgen.names.make_domain` inlines ``random.Random.choice``
to pay less per draw; ``tests/test_names_differential.py`` holds it to
this oracle, which must return the same name and leave the same ``used``
set and the same generator state after every call.
"""

from __future__ import annotations

import random
from typing import Set

from repro.webgen.names import _STEMS, _SUFFIXES


def reference_make_domain(
    rng: random.Random, language: str, tld: str, used: Set[str]
) -> str:
    """Generate a unique registrable domain for a language/TLD."""
    stems = _STEMS.get(language, _STEMS["en"])
    for _ in range(200):
        stem = rng.choice(stems)
        suffix = rng.choice(_SUFFIXES)
        candidate = f"{stem}{suffix}.{tld}"
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
