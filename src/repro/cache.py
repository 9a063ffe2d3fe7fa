"""The one bounded cache behind every cache in the library.

:class:`LRUCache` is a least-recently-used map bounded by the summed sizes its
callers give their values.  Each owner chooses the unit and states it in its
own docstring: the bytes of the arrays a value holds (states, snapshots,
expectation values, segment records, noise channels), or one per entry for
values that are object graphs (transpile results, served payloads).

Hits and misses are the caller's to count: what counts as a hit (a cacheable
lookup, a key at all) is the caller's decision, so the cache reports only what
it alone sees — its capacity, occupancy and evictions (:meth:`as_dict`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple


class LRUCache:
    """A thread-safe least-recently-used map bounded by summed value sizes.

    ``put(key, value, size)`` stores ``value`` as ``size`` units (at least
    one, so the entry count never exceeds the capacity) and evicts least
    recently used entries until the summed size fits the capacity again.  A
    value larger than the whole capacity is not stored and evicts nothing, so
    a capacity of 0 stores nothing.  ``put`` on a key already present
    refreshes its recency and keeps the stored value.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._size = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def __contains__(self, key: Hashable) -> bool:
        """Membership, without refreshing the key's recency."""
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The stored value (now the most recently used), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any, size: int = 1) -> Any:
        """Store ``value`` under ``key`` and return the value the cache now
        holds for it: the earlier one when ``key`` was already present."""
        size = max(1, int(size))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            if size > self.capacity:
                return value
            self._entries[key] = (value, size)
            self._size += size
            while self._size > self.capacity:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._size -= evicted
                self._evictions += 1
            return value

    def __getstate__(self) -> Dict[str, Any]:
        # Entries pickle with their owner (a noise model shipped to a worker
        # process keeps its memo); the lock does not pickle.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def clear(self) -> None:
        """Drop every entry; the eviction count is kept."""
        with self._lock:
            self._entries.clear()
            self._size = 0

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "size": self._size,
                "evictions": self._evictions,
            }
