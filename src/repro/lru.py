"""A small thread-safe bounded LRU map.

The hot-path caches (parsed filter lists, compiled filter indexes,
per-host cosmetic selectors, parsed documents) all need the same
thing: a dict with move-to-front on read and oldest-first eviction,
safe when several threads share it (the distributed coordinator and
the campaign service are threaded).  One implementation keeps the
lock discipline in one place.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LockedLRU(Generic[K, V]):
    """Bounded mapping with LRU eviction; every operation takes the lock."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def get(self, key: K) -> Optional[V]:
        """The cached value (freshened), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh *key*, evicting oldest entries over capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
