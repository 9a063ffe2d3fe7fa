"""Content keys of the fleet-wide result store.

The engine already dedupes *within* one process by content fingerprint; the
service's result store (``EngineService.store``, a
:class:`~repro.cache.LRUCache`) lifts the same idea to the service tier,
across tenants: two tenants submitting the identical schedule get one engine
execution and two bit-identical responses.

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

_SEP = b"\x1f"


def store_key(*parts: str) -> str:
    """Hex digest of the ordered key parts (BLAKE2b, like the engine's)."""
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(_SEP)
    return hasher.hexdigest()


__all__ = ["store_key"]
