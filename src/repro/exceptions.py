"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that a
caller can catch library failures without also swallowing programming errors
such as :class:`TypeError` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid circuit operations."""


class ParameterError(CircuitError):
    """Raised when binding or resolving circuit parameters fails."""


class SimulationError(ReproError):
    """Raised when a simulator cannot execute the requested circuit."""


class EngineError(ReproError):
    """Raised when the execution-engine layer is misused (e.g. an unknown
    ``parallelism`` mode or a submission to a closed scheduler)."""


class NoiseModelError(SimulationError):
    """Raised when a noise model is inconsistent or incomplete."""


class TranspilerError(ReproError):
    """Raised when compilation (layout, routing, scheduling) fails."""


class BackendError(ReproError):
    """Raised when a device model is queried for missing properties."""


class MitigationError(ReproError):
    """Raised when an error-mitigation pass cannot be applied."""


class OptimizerError(ReproError):
    """Raised when a classical optimizer is misconfigured."""


class VQEError(ReproError):
    """Raised when a VQE problem definition or execution is invalid."""


class VAQEMError(ReproError):
    """Raised when the VAQEM tuning framework is misconfigured."""


class RuntimeSessionError(ReproError):
    """Raised when a runtime session violates its constraints (e.g. time cap)."""


class ServiceError(ReproError):
    """Base class of every error raised by the engine-as-a-service tier
    (:mod:`repro.service`).

    The service contract mirrors the frontend's: every failure a remote
    tenant can trigger — malformed envelopes, admission rejections, server
    shutdown — surfaces as exactly this taxonomy, serialised over the wire by
    exception class name and re-raised client-side as the same type, so
    callers handle local and remote failures with one ``except`` clause.
    """


class ServiceProtocolError(ServiceError):
    """Raised for malformed service requests: bodies that are not JSON, bad
    envelopes (missing tenant, empty program list), unknown paths or methods,
    oversized payloads.  Maps to HTTP 400-class statuses."""


class AdmissionError(ServiceError):
    """Base of the admission-control rejections (rate limit, queue depth,
    shutdown).  ``retry_after`` is the server's hint, in seconds, for when a
    retry is likely to be admitted (``None`` when retrying is pointless)."""

    def __init__(self, message: str, retry_after: float = None):
        self.retry_after = retry_after
        super().__init__(message)


class RateLimitError(AdmissionError):
    """Raised when a tenant exceeds its token-bucket request rate (HTTP 429).
    Carries ``retry_after``: the bucket's time-to-next-token."""


class QueueDepthError(AdmissionError):
    """Raised when a tenant's (or the fleet's) bounded queue depth is full
    (HTTP 503) — the service-tier mapping of the scheduler's
    ``max_pending_batches`` backpressure, rejecting instead of blocking."""


class ServiceShutdownError(AdmissionError):
    """Raised for submissions arriving while the server is draining for
    shutdown (HTTP 503).  In-flight requests complete; new ones get this."""


class IngestError(ReproError):
    """Base class of every error raised while ingesting *untrusted* external
    programs (OpenQASM text, JSON circuit/schedule documents).

    The frontend's contract is that malformed or hostile input raises exactly
    this taxonomy — :class:`ParseError`, :class:`ValidationError`,
    :class:`DecompositionError`, :class:`ResourceLimitError` — and never a
    bare ``KeyError`` / ``IndexError`` / ``RecursionError`` or a hang, so a
    service tier can ``except IngestError`` at the trust boundary and reject
    the request with a message safe to echo back to the submitter.
    """


class ParseError(IngestError):
    """Raised when external program text cannot be parsed.

    Carries the 1-based source position of the offending token when known;
    ``str(error)`` always embeds it (``"line L, column C: ..."``) so log
    lines and test assertions need no attribute access.
    """

    def __init__(self, message: str, line: int = None, column: int = None):
        self.line = line
        self.column = column
        if line is not None:
            position = f"line {line}"
            if column is not None:
                position += f", column {column}"
            message = f"{position}: {message}"
        super().__init__(message)


class ValidationError(IngestError):
    """Raised when a parsed program fails structural validation (bad schema,
    unknown gate, out-of-range qubit, non-finite parameter, ...)."""


class DecompositionError(IngestError):
    """Raised when a gate cannot be expanded into the native basis (no rule,
    arity/parameter mismatch against the rule, or a rule cycle)."""


class ResourceLimitError(ValidationError):
    """Raised when an ingested program exceeds a configured resource cap
    (qubits, instructions, depth, shots, macro expansion).  Subclasses
    :class:`ValidationError`: a limit violation is a validation failure with
    an explicitly configurable bound."""

    def __init__(self, message: str, limit_name: str = None, limit: float = None, actual: float = None):
        self.limit_name = limit_name
        self.limit = limit
        self.actual = actual
        super().__init__(message)
