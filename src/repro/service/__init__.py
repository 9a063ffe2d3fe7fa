"""Engine-as-a-service: the multi-tenant server tier.

Serve one :class:`~repro.engine.ExecutionEngine` to many concurrent tenants
over a small JSON/HTTP protocol, with per-tenant admission control, a
fleet-wide content-addressed result store, and a metrics endpoint.  See
``docs/service.md`` for the protocol reference and the determinism argument
behind cross-tenant dedupe.

Typical use::

    from repro.service import EngineServer, ServiceClient

    with EngineServer(engine) as server:
        client = ServiceClient(server.host, server.port, tenant="alice")
        result = client.run(circuit_document)
"""

from .admission import AdmissionController, ServiceConfig, TenantPolicy, TokenBucket
from .client import ServiceClient
from .metrics import REJECTION_KINDS, ServiceMetrics, TenantMetrics
from .protocol import OPERATIONS, SERVICE_PROTOCOL, parse_envelope, raise_for_error
from .server import EngineServer, EngineService
from .store import store_key

__all__ = [
    "AdmissionController",
    "EngineServer",
    "EngineService",
    "OPERATIONS",
    "REJECTION_KINDS",
    "SERVICE_PROTOCOL",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "TenantMetrics",
    "TenantPolicy",
    "TokenBucket",
    "parse_envelope",
    "raise_for_error",
    "store_key",
]
