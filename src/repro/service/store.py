"""Fleet-wide content-addressed result store.

The engine already dedupes *within* one process by content fingerprint; this
store lifts the same idea to the service tier, across tenants: two tenants
submitting the identical schedule get one engine execution and two
bit-identical responses.

The key digests everything a served payload is a function of:

* the program's full content fingerprint — the last entry of the engine's
  shard chain, which (for the density engines) is already salted with the
  noise key: device calibration, noise-model flags and simulation kernel.  Two engines configured differently never share a line;
* the operation (``run`` vs ``expectation``) and its knobs (shots,
  observable fingerprint);
* the engine seed — sampled expectation values are functions of
  ``(engine seed, content)`` per the seeding contract, so the seed is part
  of the content.

Because every stored payload is a pure function of its key (see the
determinism argument in ``docs/service.md``), serving a hit is bit-identical
to re-executing — which the parity tests pin on both kernels.

Engines whose ``_shard_chain`` hook is the identity fallback (keys derived
from ``id()``) are *not* content-addressable: ``id`` reuse after garbage
collection could alias two different programs onto one key.  The service
detects that and disables the store rather than risking cross-tenant result
corruption.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Optional

_SEP = b"\x1f"


def store_key(*parts: str) -> str:
    """Hex digest of the ordered key parts (BLAKE2b, like the engine's)."""
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(_SEP)
    return hasher.hexdigest()


class ResultStore:
    """A bounded LRU mapping of content keys to serialized result payloads.

    Values are the JSON-safe response dicts the protocol layer builds —
    storing the serialized form (not engine objects) keeps hits cheap and
    guarantees a hit's bytes match the miss that populated it.
    """

    def __init__(self, max_entries: int = 4096):
        self._max_entries = max(1, int(max_entries))
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        """The stored payload, counting the lookup (``None`` key: always miss)."""
        if key is not None:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def put(self, key: Optional[str], payload: Dict[str, Any]) -> None:
        if key is None:
            return
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def as_dict(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


__all__ = ["ResultStore", "store_key"]
