"""Per-tenant and fleet metrics for the engine service.

Everything here is plain counting plus a bounded latency reservoir; mutation
happens exclusively on the service's event-loop thread (completion callbacks
are marshalled there), so no locks are needed and a metrics snapshot is
always internally consistent.

Latency percentiles use the nearest-rank method over the most recent
``max_samples`` request latencies — bounded memory, and exact for the sample
window (no sketch approximation to explain away in tests).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict


#: Rejection classes a tenant can see, in the order the docs list them.
REJECTION_KINDS = ("rate_limit", "queue_depth", "invalid", "shutdown", "execution")


def percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    if not samples:
        return 0.0
    rank = max(1, int(round(fraction * len(samples) + 0.5)))
    return samples[min(rank, len(samples)) - 1]


class TenantMetrics:
    """Counters and the latency reservoir of one tenant."""

    __slots__ = (
        "submitted", "completed", "programs", "dedupe_hits", "store_misses",
        "rejected", "_latencies",
    )

    def __init__(self, max_samples: int):
        self.submitted = 0
        self.completed = 0
        self.programs = 0
        self.dedupe_hits = 0
        self.store_misses = 0
        self.rejected: Dict[str, int] = {kind: 0 for kind in REJECTION_KINDS}
        self._latencies: Deque[float] = deque(maxlen=max_samples)

    def record_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def latency_snapshot(self) -> Dict[str, float]:
        samples = sorted(self._latencies)
        count = len(samples)
        return {
            "count": count,
            "p50_ms": percentile(samples, 0.50) * 1e3,
            "p99_ms": percentile(samples, 0.99) * 1e3,
            "mean_ms": (sum(samples) / count * 1e3) if count else 0.0,
        }


class ServiceMetrics:
    """The service's metrics tree: per-tenant plus fleet-level counters."""

    def __init__(self, max_samples: int = 1024):
        self._max_samples = max(1, int(max_samples))
        self._tenants: Dict[str, TenantMetrics] = {}
        #: Fleet-level counters the tenants cannot be blamed for.
        self.requests = 0
        self.disconnects = 0
        self.protocol_errors = 0

    def tenant(self, name: str) -> TenantMetrics:
        metrics = self._tenants.get(name)
        if metrics is None:
            metrics = TenantMetrics(self._max_samples)
            self._tenants[name] = metrics
        return metrics

    def store_snapshot(self, store) -> Dict[str, float]:
        """The fleet store's section of the metrics payload: its
        :meth:`~repro.cache.LRUCache.as_dict` plus the lookups the tenants
        counted (a ``None`` key, an uncacheable program, is a miss)."""
        hits = sum(metrics.dedupe_hits for metrics in self._tenants.values())
        misses = sum(metrics.store_misses for metrics in self._tenants.values())
        total = hits + misses
        return {
            **store.as_dict(),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    def snapshot(self, queue_depth_of) -> Dict[str, Dict]:
        """The per-tenant section of the metrics payload.

        ``queue_depth_of`` maps a tenant name to its current in-flight count
        (owned by the admission controller, not duplicated here).
        """
        payload: Dict[str, Dict] = {}
        for name in sorted(self._tenants):
            metrics = self._tenants[name]
            payload[name] = {
                "queue_depth": queue_depth_of(name),
                "submitted": metrics.submitted,
                "completed": metrics.completed,
                "programs": metrics.programs,
                "dedupe_hits": metrics.dedupe_hits,
                "store_misses": metrics.store_misses,
                "rejected": dict(metrics.rejected),
                "latency": metrics.latency_snapshot(),
            }
        return payload


__all__ = ["REJECTION_KINDS", "ServiceMetrics", "TenantMetrics", "percentile"]
