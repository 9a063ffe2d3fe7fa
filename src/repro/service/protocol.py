"""The v1 service wire protocol: envelopes, result payloads, error payloads.

Requests and responses are JSON over HTTP (see ``docs/service.md`` for the
full reference; ``tests/fixtures/service/`` pins every shape as golden
fixtures).  This module is transport-free — it validates parsed envelopes
and builds response dicts; the HTTP framing lives in
:mod:`repro.service.server`.

Bit-parity over the wire rests on JSON float round-tripping: ``json.dumps``
emits ``repr(float)`` (shortest round-trip form) and ``json.loads`` parses
it back to the identical IEEE-754 double, so a probability vector or an
expectation value survives serving byte-exactly — the same property the
frontend's wire formats already rely on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import (
    AdmissionError,
    IngestError,
    ParseError,
    QueueDepthError,
    RateLimitError,
    ResourceLimitError,
    ServiceError,
    ServiceProtocolError,
    ServiceShutdownError,
    ValidationError,
)

#: Version of the service protocol (independent of the program documents'
#: ``repro-circuit``/``repro-schedule`` format version, which rides inside).
SERVICE_PROTOCOL = 1

#: The operations a submitted program may request.
OPERATIONS = ("run", "expectation")

_ENVELOPE_KEYS = frozenset({"protocol", "tenant", "programs"})
_PROGRAM_KEYS = frozenset({"op", "program", "shots", "observable"})

#: HTTP status per rejection class.  Anything not listed (engine-side
#: execution failures) maps to 500.
_STATUS_BY_CLASS = {
    RateLimitError: 429,
    QueueDepthError: 503,
    ServiceShutdownError: 503,
    ServiceProtocolError: 400,
}


class ProgramRequest:
    """One validated entry of a submission's ``programs`` list."""

    __slots__ = ("op", "document", "shots", "observable_terms")

    def __init__(self, op: str, document: dict, shots: Optional[int], observable_terms):
        self.op = op
        self.document = document
        self.shots = shots
        #: ``[(label, coeff), ...]`` for ``op == "expectation"``, else ``None``.
        self.observable_terms = observable_terms


def parse_envelope(parsed: Any) -> Tuple[str, List[ProgramRequest]]:
    """Validate a submission envelope, returning ``(tenant, programs)``.

    Everything wrong with the envelope itself raises
    :class:`~repro.exceptions.ServiceProtocolError` with a path-precise
    message (program *documents* are validated later, at ingest, under the
    tenant's resource limits).
    """
    if not isinstance(parsed, dict):
        raise ServiceProtocolError(
            f"request body must be a JSON object, got {type(parsed).__name__}"
        )
    unknown = set(parsed) - _ENVELOPE_KEYS
    if unknown:
        raise ServiceProtocolError(f"unknown envelope fields: {sorted(unknown)}")
    protocol = parsed.get("protocol", SERVICE_PROTOCOL)
    if protocol != SERVICE_PROTOCOL:
        raise ServiceProtocolError(
            f"protocol: expected {SERVICE_PROTOCOL}, got {protocol!r}"
        )
    tenant = parsed.get("tenant")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise ServiceProtocolError(
            "tenant: expected a non-empty string of at most 64 characters"
        )
    raw_programs = parsed.get("programs")
    if not isinstance(raw_programs, list) or not raw_programs:
        raise ServiceProtocolError("programs: expected a non-empty list")
    programs = []
    for index, entry in enumerate(raw_programs):
        programs.append(_parse_program(entry, f"programs[{index}]"))
    return tenant, programs


def _parse_program(entry: Any, path: str) -> ProgramRequest:
    if not isinstance(entry, dict):
        raise ServiceProtocolError(f"{path}: expected an object, got {type(entry).__name__}")
    unknown = set(entry) - _PROGRAM_KEYS
    if unknown:
        raise ServiceProtocolError(f"{path}: unknown fields: {sorted(unknown)}")
    op = entry.get("op", "run")
    if op not in OPERATIONS:
        raise ServiceProtocolError(f"{path}.op: expected one of {OPERATIONS}, got {op!r}")
    document = entry.get("program")
    if not isinstance(document, dict):
        raise ServiceProtocolError(
            f"{path}.program: expected a repro-circuit/repro-schedule object"
        )
    shots = entry.get("shots")
    if shots is not None and (isinstance(shots, bool) or not isinstance(shots, int) or shots < 1):
        raise ServiceProtocolError(f"{path}.shots: expected a positive integer or null")
    observable_terms = None
    if op == "expectation":
        observable_terms = _parse_observable(entry.get("observable"), f"{path}.observable")
    elif "observable" in entry:
        raise ServiceProtocolError(f"{path}.observable: only valid with op 'expectation'")
    return ProgramRequest(op, document, shots, observable_terms)


def _parse_observable(raw: Any, path: str) -> List[Tuple[str, float]]:
    """``[["ZZ", 0.5], ...]`` into validated ``(label, coeff)`` pairs."""
    if not isinstance(raw, list) or not raw:
        raise ServiceProtocolError(f"{path}: expected a non-empty list of [label, coefficient]")
    terms = []
    for index, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not isinstance(pair[0], str)
            or isinstance(pair[1], bool)
            or not isinstance(pair[1], (int, float))
        ):
            raise ServiceProtocolError(f"{path}[{index}]: expected [label, coefficient]")
        terms.append((pair[0], float(pair[1])))
    return terms


def build_observable(terms: List[Tuple[str, float]]):
    """A :class:`~repro.operators.PauliSum` from wire terms (typed errors)."""
    from ..operators import PauliSum

    try:
        return PauliSum.from_list(terms)
    except Exception as error:
        raise ValidationError(f"observable: {error}") from error


# ----------------------------------------------------------------------------
# Response payloads
# ----------------------------------------------------------------------------

def serialize_run_result(result) -> Dict[str, Any]:
    """The JSON-safe payload of one ``op: run`` result (stored and served)."""
    probabilities = result.probabilities
    return {
        "op": "run",
        "fingerprint": result.fingerprint,
        "engine": result.engine,
        "probabilities": (
            [float(value) for value in probabilities] if probabilities is not None else None
        ),
        "clbit_order": (
            [int(bit) for bit in result.clbit_order] if result.clbit_order is not None else None
        ),
    }


def serialize_expectation_result(value: float) -> Dict[str, Any]:
    return {"op": "expectation", "value": float(value)}


def success_payload(tenant: str, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"protocol": SERVICE_PROTOCOL, "tenant": tenant, "results": results}


def error_status(error: BaseException) -> int:
    """The HTTP status an exception maps to."""
    for cls, status in _STATUS_BY_CLASS.items():
        if isinstance(error, cls):
            return status
    if isinstance(error, IngestError):
        return 400
    return 500


def error_payload(error: BaseException, program_index: Optional[int] = None) -> Dict[str, Any]:
    """The JSON error body: class name, message, and typed extras.

    The ``class`` field is what the client maps back to an exception type;
    the message is safe to echo (it came from the typed taxonomy, never from
    a raw traceback).
    """
    body: Dict[str, Any] = {
        "class": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, AdmissionError) and error.retry_after is not None:
        body["retry_after"] = float(error.retry_after)
    if isinstance(error, ResourceLimitError):
        if error.limit_name is not None:
            body["limit_name"] = error.limit_name
        if error.limit is not None:
            body["limit"] = error.limit
        if error.actual is not None:
            body["actual"] = error.actual
    if program_index is not None:
        body["program_index"] = program_index
    return {"protocol": SERVICE_PROTOCOL, "error": body}


#: Exception classes a client may reconstruct from the ``class`` field.
#: Message-only construction is intentional: server-side position/limit
#: details ride as payload extras and are reattached as attributes.
CLIENT_ERROR_CLASSES = {
    "ServiceProtocolError": ServiceProtocolError,
    "RateLimitError": RateLimitError,
    "QueueDepthError": QueueDepthError,
    "ServiceShutdownError": ServiceShutdownError,
    "ValidationError": ValidationError,
    "ResourceLimitError": ResourceLimitError,
    "ParseError": ParseError,
}


def raise_for_error(status: int, payload: Any) -> None:
    """Re-raise a server error payload as its typed exception (client side)."""
    detail = payload.get("error", {}) if isinstance(payload, dict) else {}
    name = detail.get("class", "ServiceError")
    message = detail.get("message", f"service returned HTTP {status}")
    cls = CLIENT_ERROR_CLASSES.get(name)
    if cls is None:
        error: ServiceError = ServiceError(f"{name}: {message}")
    elif issubclass(cls, AdmissionError):
        error = cls(message, retry_after=detail.get("retry_after"))
    elif cls is ParseError:
        # The server-side message already embeds the position; building with
        # line=None keeps it from being prefixed twice.
        error = cls(message)
    else:
        error = cls(message)
    error.status = status
    error.error_class = name
    if "program_index" in detail:
        error.program_index = detail["program_index"]
    for extra in ("limit_name", "limit", "actual"):
        if extra in detail:
            setattr(error, extra, detail[extra])
    raise error


__all__ = [
    "CLIENT_ERROR_CLASSES",
    "OPERATIONS",
    "ProgramRequest",
    "SERVICE_PROTOCOL",
    "build_observable",
    "error_payload",
    "error_status",
    "parse_envelope",
    "raise_for_error",
    "serialize_expectation_result",
    "serialize_run_result",
    "success_payload",
]
