"""Per-tenant admission control for the engine service.

Three gates, checked in order for every submission (see ``docs/service.md``):

1. **Token-bucket rate limit** — each tenant owns a bucket refilled at
   ``rate_per_second`` up to ``burst`` tokens; a submission costs one token.
   An empty bucket raises :class:`~repro.exceptions.RateLimitError` carrying
   the bucket's exact time-to-next-token as ``retry_after``.
2. **Per-tenant queue depth** — at most ``max_queue_depth`` of a tenant's
   requests may be in flight (admitted but unanswered) at once; beyond that,
   :class:`~repro.exceptions.QueueDepthError`.
3. **Fleet queue depth** — a global bound on in-flight requests across all
   tenants, mapping the engine scheduler's ``max_pending_batches``
   backpressure onto a typed rejection: the service *rejects with
   retry-after* where an in-process caller would block.

Time is injectable (``ServiceConfig.clock``) so the fault-injection tests
exhaust and refill buckets deterministically without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..exceptions import QueueDepthError, RateLimitError
from ..frontend import ResourceLimits


@dataclass(frozen=True)
class TenantPolicy:
    """Admission knobs for one tenant (or the default for all of them).

    ``limits`` is the tenant's :class:`~repro.frontend.ResourceLimits`,
    applied to every program the tenant submits — the same trust-boundary
    validation an in-process :func:`~repro.frontend.ingest_json` call runs,
    configured per tenant instead of per call.
    """

    rate_per_second: float = 50.0
    burst: int = 20
    max_queue_depth: int = 8
    max_programs_per_request: int = 32
    limits: ResourceLimits = field(default_factory=ResourceLimits)


@dataclass
class ServiceConfig:
    """Configuration of one :class:`~repro.service.EngineService`.

    ``default_policy`` applies to tenants without an entry in ``tenants``.
    ``max_inflight_requests`` bounds admitted-but-unanswered requests across
    all tenants (``None``: the engine's ``max_pending_batches``).
    ``clock`` must be monotonic; tests inject a fake one to drive the token
    buckets deterministically.
    """

    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    tenants: Dict[str, TenantPolicy] = field(default_factory=dict)
    max_inflight_requests: Optional[int] = None
    max_body_bytes: int = 4 << 20
    #: ``retry_after`` hint for queue-depth and shutdown rejections, seconds.
    queue_retry_after: float = 0.1
    #: Per-tenant latency samples kept for the p50/p99 metrics.
    latency_samples: int = 1024
    clock: Callable[[], float] = time.monotonic

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)


class TokenBucket:
    """A standard token bucket with an injectable clock.

    Starts full.  ``try_acquire`` either takes one token or reports the exact
    wait until the next token exists — the ``retry_after`` a 429 carries.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: int, now: float):
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self._tokens = float(self.burst)
        self._last = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)

    def try_acquire(self, now: float) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds until one exists."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        if self.rate <= 0.0:
            return float("inf")
        return (1.0 - self._tokens) / self.rate


class _TenantState:
    __slots__ = ("bucket", "in_flight")

    def __init__(self, bucket: TokenBucket):
        self.bucket = bucket
        self.in_flight = 0


class AdmissionController:
    """Applies the three admission gates; owns the per-tenant buckets.

    Not thread-safe by itself: the service calls it exclusively from its
    event-loop thread, which is what makes the bucket and depth accounting
    race-free without locks.
    """

    def __init__(self, config: ServiceConfig, engine_max_pending: int):
        self._config = config
        self._states: Dict[str, _TenantState] = {}
        self._global_limit = (
            config.max_inflight_requests
            if config.max_inflight_requests is not None
            else engine_max_pending
        )
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def tenant_in_flight(self, tenant: str) -> int:
        state = self._states.get(tenant)
        return state.in_flight if state is not None else 0

    def _state(self, tenant: str) -> _TenantState:
        state = self._states.get(tenant)
        if state is None:
            policy = self._config.policy_for(tenant)
            state = _TenantState(
                TokenBucket(policy.rate_per_second, policy.burst, self._config.clock())
            )
            self._states[tenant] = state
        return state

    def admit(self, tenant: str) -> None:
        """Pass one request through all three gates or raise a typed rejection.

        On success the request counts as in flight until :meth:`release`.
        A rejected request consumes its rate token (the attempt is what the
        rate limit meters) but never occupies queue depth.
        """
        policy = self._config.policy_for(tenant)
        state = self._state(tenant)
        retry_after = state.bucket.try_acquire(self._config.clock())
        if retry_after is not None:
            raise RateLimitError(
                f"tenant {tenant!r} exceeded its rate limit "
                f"({policy.rate_per_second}/s, burst {policy.burst})",
                retry_after=retry_after,
            )
        if state.in_flight >= policy.max_queue_depth:
            raise QueueDepthError(
                f"tenant {tenant!r} has {state.in_flight} requests in flight "
                f"(bound {policy.max_queue_depth})",
                retry_after=self._config.queue_retry_after,
            )
        if self._in_flight >= self._global_limit:
            raise QueueDepthError(
                f"service is at its global in-flight bound ({self._global_limit})",
                retry_after=self._config.queue_retry_after,
            )
        state.in_flight += 1
        self._in_flight += 1

    def release(self, tenant: str) -> None:
        state = self._states.get(tenant)
        if state is not None and state.in_flight > 0:
            state.in_flight -= 1
        if self._in_flight > 0:
            self._in_flight -= 1


__all__ = ["AdmissionController", "ServiceConfig", "TenantPolicy", "TokenBucket"]
