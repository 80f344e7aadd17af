"""Hot-path switches: one place to turn the indexed fast paths off.

Every per-visit hot path added by the indexing pass — the token/trie
filter engine, the parsed-document cache, and the compiled-selector /
DOM-index query planner — consults this module.  The switches exist for
two reasons:

1. **Differential testing.**  The acceptance bar for every fast path is
   byte-identical output, so the test suite runs the same crawl twice —
   once with the indexes, once with the original linear scans — and
   compares records.  ``disabled()`` flips all (or selected) paths off
   for the duration of a ``with`` block.
2. **Benchmarking.**  ``benchmarks/bench_hotpaths.py`` measures the
   before/after of each path in one process, which keeps the comparison
   honest (same interpreter state, same world).

The switches are process-global and are *not* thread-safe to flip while
a parallel crawl is running; flip them only around whole runs, which is
what the tests and benchmarks do.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields


@dataclass
class HotpathConfig:
    """Which indexed hot paths are active (all on by default)."""

    #: Token/trie-indexed :class:`~repro.adblock.engine.FilterEngine`
    #: (off = the linear-scan naive matcher).
    filter_index: bool = True
    #: Parsed-document cache keyed by (body hash, url): repeated visits
    #: rebuild a cached snapshot of the parse instead of re-tokenizing
    #: the HTML (off = parse every body).
    parse_cache: bool = True
    #: Compiled selector plans + per-document tag/id/class indexes
    #: (off = re-parse the selector and walk the whole tree per query).
    selector_index: bool = True
    #: Per-load caching of ``Page.all_documents()`` / ``Page.iframes()``
    #: frame walks (off = re-walk the pierced tree on every call).
    frame_cache: bool = True

    def all_names(self) -> tuple:
        return tuple(f.name for f in fields(self))


#: The process-wide configuration every hot path consults.
config = HotpathConfig()


@contextmanager
def disabled(*names: str):
    """Temporarily disable hot paths (all of them when *names* is empty).

    >>> with disabled("filter_index"):
    ...     config.filter_index
    False
    >>> config.filter_index
    True
    """
    targets = names or config.all_names()
    unknown = set(targets) - set(config.all_names())
    if unknown:
        raise ValueError(f"unknown hot path(s): {sorted(unknown)}")
    saved = {name: getattr(config, name) for name in targets}
    try:
        for name in targets:
            setattr(config, name, False)
        yield config
    finally:
        for name, value in saved.items():
            setattr(config, name, value)
