"""The persistent multi-tenant engine server.

Two layers (full design in ``docs/service.md``):

:class:`EngineService`
    Transport-independent request handling on an asyncio event loop:
    envelope validation, admission control, per-tenant ingestion through the
    frontend's trust boundary, fleet-store dedupe, submission onto the
    engine's :class:`~repro.engine.scheduler.BatchScheduler` with
    ``submitter=tenant`` (so the scheduler's round-robin fairness *is* the
    cross-tenant fairness), and result serialization.

:class:`EngineServer`
    A hand-rolled HTTP/1.1 façade over asyncio streams, running the service
    loop on a dedicated thread.  Hand-rolled deliberately: the CI container
    installs no HTTP framework, and the protocol surface (three endpoints,
    ``Connection: close``) is small enough that owning the framing is
    cheaper than gating a dependency.

Threading model
---------------
All service state (admission buckets, metrics, the result store) is touched
only on the event-loop thread.  Engine futures resolve on scheduler worker
threads; :func:`_bridge` marshals each resolution back onto the loop with
``call_soon_threadsafe``, so no lock guards any service structure.  The
blocking edge of ``submit_batch`` (scheduler backpressure) runs inside the
loop's default executor — the event loop itself never blocks, and the
admission controller's queue-depth gate bounds how many executor threads can
be parked there.

Degradation contract
--------------------
Every failure a tenant can cause — malformed bytes, hostile documents, rate
or queue exhaustion, disconnects mid-request — produces a typed error
response (or a counted aborted connection) for *that tenant only*; the
server never crashes, never hangs, and never lets one tenant's failure
corrupt another's results.  ``tests/test_service_faults.py`` injects each of
these and then re-checks bit-parity against a clean engine.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..engine.base import ExecutionEngine
from ..engine.fingerprint import observable_fingerprint
from ..exceptions import (
    IngestError,
    QueueDepthError,
    RateLimitError,
    ServiceError,
    ServiceProtocolError,
    ServiceShutdownError,
)
from ..frontend import ingest_json
from .admission import AdmissionController, ServiceConfig
from .metrics import ServiceMetrics
from .protocol import (
    SERVICE_PROTOCOL,
    ProgramRequest,
    build_observable,
    error_payload,
    error_status,
    parse_envelope,
    serialize_expectation_result,
    serialize_run_result,
    success_payload,
)
from .store import ResultStore, store_key

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Header-section byte bound; a client streaming junk instead of headers is
#: cut off here rather than buffered without limit.
_MAX_HEADER_BYTES = 32768


class _Disconnect(Exception):
    """Internal: the client went away mid-request (no response possible)."""


def _bridge(loop: asyncio.AbstractEventLoop, engine_future) -> asyncio.Future:
    """An asyncio future resolving with an :class:`EngineFuture`'s outcome.

    The engine resolves its futures on scheduler worker threads;
    ``call_soon_threadsafe`` marshals the outcome onto the service loop so
    response building (and store/metrics mutation) stays single-threaded.
    """
    aio = loop.create_future()

    def _resolve(value, error):
        if aio.cancelled():
            return
        if error is not None:
            aio.set_exception(error)
        else:
            aio.set_result(value)

    def _done(resolved):
        try:
            value = resolved.result(timeout=0)
        except BaseException as error:  # noqa: BLE001 - forwarded, not handled
            outcome = (None, error)
        else:
            outcome = (value, None)
        try:
            loop.call_soon_threadsafe(_resolve, *outcome)
        except RuntimeError:
            pass  # loop already closed during shutdown; nothing to deliver to

    engine_future.add_done_callback(_done)
    return aio


class EngineService:
    """Multi-tenant request handling around one execution engine.

    The service borrows the engine (it does not own or close it) and runs
    entirely on the event loop that first serves a request — in practice the
    :class:`EngineServer`'s loop thread.
    """

    def __init__(self, engine: ExecutionEngine, config: Optional[ServiceConfig] = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(self.config, engine.max_pending_batches)
        self.store = ResultStore(self.config.store_entries)
        self.metrics = ServiceMetrics(self.config.latency_samples)
        self._closing = False
        self._started = self.config.clock()
        #: Content addressing requires a real per-content shard chain; the
        #: base-class fallback keys on ``id()``, which garbage collection can
        #: reuse — aliasing two different programs onto one store line.  With
        #: such an engine the store stays off (every lookup misses).
        self._content_addressable = (
            type(engine)._shard_chain is not ExecutionEngine._shard_chain
        )

    # ------------------------------------------------------------------
    @property
    def closing(self) -> bool:
        return self._closing

    def begin_shutdown(self) -> None:
        """Stop admitting new submissions; in-flight requests drain."""
        self._closing = True

    # ------------------------------------------------------------------
    async def handle(self, method: str, path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
        """Route one request; always returns ``(status, payload)``."""
        if path == "/v1/submit":
            if method != "POST":
                return 405, error_payload(ServiceProtocolError("submit requires POST"))
            return await self._submit(body)
        if path == "/v1/metrics":
            if method != "GET":
                return 405, error_payload(ServiceProtocolError("metrics requires GET"))
            return 200, self.metrics_payload()
        if path == "/v1/health":
            if method != "GET":
                return 405, error_payload(ServiceProtocolError("health requires GET"))
            status = "closing" if self._closing else "ok"
            return 200, {"protocol": SERVICE_PROTOCOL, "status": status}
        return 404, error_payload(ServiceProtocolError(f"unknown path {path!r}"))

    # ------------------------------------------------------------------
    async def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        self.metrics.requests += 1
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self.metrics.protocol_errors += 1
            return 400, error_payload(
                ServiceProtocolError(f"request body is not valid JSON: {error}")
            )
        try:
            tenant, programs = parse_envelope(parsed)
        except ServiceProtocolError as error:
            self.metrics.protocol_errors += 1
            return 400, error_payload(error)

        tenant_metrics = self.metrics.tenant(tenant)
        tenant_metrics.submitted += 1
        policy = self.config.policy_for(tenant)
        if len(programs) > policy.max_programs_per_request:
            tenant_metrics.rejected["invalid"] += 1
            return 400, error_payload(
                ServiceProtocolError(
                    f"programs: {len(programs)} entries exceed the per-request "
                    f"bound ({policy.max_programs_per_request})"
                )
            )
        if self._closing:
            tenant_metrics.rejected["shutdown"] += 1
            return 503, error_payload(
                ServiceShutdownError(
                    "server is shutting down",
                    retry_after=self.config.queue_retry_after,
                )
            )
        try:
            self.admission.admit(tenant)
        except RateLimitError as error:
            tenant_metrics.rejected["rate_limit"] += 1
            return 429, error_payload(error)
        except QueueDepthError as error:
            tenant_metrics.rejected["queue_depth"] += 1
            return 503, error_payload(error)

        started = self.config.clock()
        try:
            status, payload = await self._execute(tenant, policy, programs, tenant_metrics)
        finally:
            self.admission.release(tenant)
        if status == 200:
            tenant_metrics.completed += 1
            tenant_metrics.record_latency(self.config.clock() - started)
        return status, payload

    async def _execute(
        self, tenant: str, policy, programs: List[ProgramRequest], tenant_metrics
    ) -> Tuple[int, Dict[str, Any]]:
        """Ingest, dedupe, submit and serialize one admitted request.

        All-or-nothing per request: the first failing program fails the
        request with its index (partial batches would make bit-parity with a
        direct ``run_batch`` ambiguous).
        """
        engine = self.engine
        prepared = []  # (request, engine payload, observable, shots, store key)
        for index, request in enumerate(programs):
            try:
                program = ingest_json(request.document, limits=policy.limits)
                payload = program.engine_payload(engine)
                observable = (
                    build_observable(request.observable_terms)
                    if request.op == "expectation"
                    else None
                )
                shots = request.shots if request.shots is not None else program.shots
                if shots is not None:
                    policy.limits.check_shots(shots)
            except IngestError as error:
                tenant_metrics.rejected["invalid"] += 1
                return 400, error_payload(error, program_index=index)
            prepared.append(
                (request, payload, observable, shots, self._store_key(request.op, payload, observable, shots))
            )

        tenant_metrics.programs += len(prepared)
        results: List[Optional[Dict[str, Any]]] = [None] * len(prepared)
        misses: List[int] = []
        for index, (request, payload, observable, shots, key) in enumerate(prepared):
            stored = self.store.get(key)
            if stored is not None:
                served = dict(stored)
                served["store"] = "hit"
                results[index] = served
                tenant_metrics.dedupe_hits += 1
            else:
                misses.append(index)
                tenant_metrics.store_misses += 1

        if misses:
            loop = asyncio.get_running_loop()

            def submit_all():
                """Queue every miss on the scheduler (may block on the
                engine's backpressure — which is why this runs in the
                executor, never on the event loop)."""
                futures = {}
                run_indices = [i for i in misses if prepared[i][0].op == "run"]
                if run_indices:
                    batch = engine.submit_batch(
                        [prepared[i][1] for i in run_indices], submitter=tenant
                    )
                    futures.update(zip(run_indices, batch))
                # Expectation kwargs are per batch, so group by them.
                groups: Dict[Tuple[str, Optional[int]], List[int]] = {}
                for i in misses:
                    if prepared[i][0].op == "expectation":
                        group = (observable_fingerprint(prepared[i][2]), prepared[i][3])
                        groups.setdefault(group, []).append(i)
                for (_, shots), indices in groups.items():
                    batch = engine.submit_expectation_batch(
                        [prepared[i][1] for i in indices],
                        prepared[indices[0]][2],
                        shots=shots,
                        submitter=tenant,
                    )
                    futures.update(zip(indices, batch))
                return futures

            try:
                futures = await loop.run_in_executor(None, submit_all)
            except BaseException as error:  # noqa: BLE001 - typed response below
                tenant_metrics.rejected["execution"] += 1
                return error_status(error), error_payload(error, program_index=misses[0])
            bridged = {index: _bridge(loop, future) for index, future in futures.items()}
            outcomes = await asyncio.gather(*bridged.values(), return_exceptions=True)
            values = dict(zip(bridged.keys(), outcomes))
            for index in misses:
                outcome = values[index]
                if isinstance(outcome, BaseException):
                    tenant_metrics.rejected["execution"] += 1
                    return error_status(outcome), error_payload(outcome, program_index=index)
            for index in misses:
                request = prepared[index][0]
                if request.op == "run":
                    serialized = serialize_run_result(values[index])
                else:
                    serialized = serialize_expectation_result(values[index])
                self.store.put(prepared[index][4], serialized)
                served = dict(serialized)
                served["store"] = "miss"
                results[index] = served

        return 200, success_payload(tenant, results)

    def _store_key(self, op: str, payload, observable, shots) -> Optional[str]:
        """The fleet-store key of one program, or ``None`` when uncacheable.

        Sampled expectation values on an *unseeded* engine draw fresh OS
        entropy per call (no content determines them), so they are never
        stored — mirroring the engine's own ``_expectation_cacheable`` rule.
        """
        if not self._content_addressable:
            return None
        if op == "expectation" and shots is not None and self.engine.seed is None:
            return None
        fingerprint = self.engine._shard_chain(op, payload)[-1]
        parts = [fingerprint, op, repr(self.engine.seed)]
        if op == "expectation":
            parts.append(observable_fingerprint(observable))
            parts.append(repr(shots))
        return store_key(*parts)

    # ------------------------------------------------------------------
    def metrics_payload(self) -> Dict[str, Any]:
        return {
            "protocol": SERVICE_PROTOCOL,
            "status": "closing" if self._closing else "ok",
            "uptime_seconds": self.config.clock() - self._started,
            "tenants": self.metrics.snapshot(self.admission.tenant_in_flight),
            "fleet": {
                "requests": self.metrics.requests,
                "in_flight": self.admission.in_flight,
                "disconnects": self.metrics.disconnects,
                "protocol_errors": self.metrics.protocol_errors,
                "store": self.store.as_dict(),
                "engine_stats": self.engine.stats.as_dict(),
            },
        }


class EngineServer:
    """HTTP/1.1 façade over an :class:`EngineService`, on its own thread.

    ``port=0`` (the default) binds an ephemeral port, published as
    :attr:`port` once :meth:`start` returns.  Usable as a context manager::

        with EngineServer(engine) as server:
            client = ServiceClient(server.host, server.port, tenant="alice")
            ...

    :meth:`close` degrades gracefully: new submissions are rejected with a
    typed shutdown error while requests already executing drain and answer;
    only after the drain (or its timeout) does the loop stop.  The engine is
    closed afterwards only when constructed with ``own_engine=True``.
    """

    def __init__(
        self,
        engine: ExecutionEngine,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        own_engine: bool = False,
        read_timeout: float = 30.0,
        drain_timeout: float = 60.0,
    ):
        self.service = EngineService(engine, config)
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self._own_engine = own_engine
        self._read_timeout = read_timeout
        self._drain_timeout = drain_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> "EngineServer":
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="engine-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise ServiceError(f"server failed to start: {self._startup_error}")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as error:  # noqa: BLE001 - published to start()
            self._startup_error = error
        finally:
            self._ready.set()  # in case startup itself failed
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.run_until_complete(loop.shutdown_default_executor())
            except Exception:
                pass
            loop.close()

    async def _serve(self) -> None:
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            )
        except OSError as error:
            self._startup_error = error
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._shutdown.wait()
            server.close()
            await server.wait_closed()
        # Drain in-flight requests: their engine batches resolve (the engine
        # is still open here), their responses go out, then the loop ends.
        pending = {task for task in self._connections if not task.done()}
        if pending:
            _, survivors = await asyncio.wait(pending, timeout=self._drain_timeout)
            for task in survivors:
                task.cancel()
            if survivors:
                await asyncio.gather(*survivors, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                method, path, length = await asyncio.wait_for(
                    self._read_head(reader), timeout=self._read_timeout
                )
            except (asyncio.TimeoutError, _Disconnect):
                self.service.metrics.disconnects += 1
                return
            except ServiceProtocolError as error:
                self.service.metrics.protocol_errors += 1
                await self._respond(writer, 400, error_payload(error))
                return
            if length > self.service.config.max_body_bytes:
                self.service.metrics.protocol_errors += 1
                await self._respond(
                    writer,
                    413,
                    error_payload(
                        ServiceProtocolError(
                            f"request body of {length} bytes exceeds the "
                            f"{self.service.config.max_body_bytes}-byte bound"
                        )
                    ),
                )
                return
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self._read_timeout
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
                # Truncated body / disconnect mid-request: nobody to answer.
                self.service.metrics.disconnects += 1
                return
            try:
                status, payload = await self.service.handle(method, path, body)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - last-resort typed 500
                status, payload = 500, error_payload(error)
            await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.CancelledError):
            self.service.metrics.disconnects += 1
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_head(self, reader: asyncio.StreamReader) -> Tuple[str, str, int]:
        """Parse the request line and headers; returns (method, path, length)."""
        request_line = await reader.readline()
        if not request_line.endswith(b"\n"):
            # Empty or unterminated: the peer vanished mid-line.
            raise _Disconnect()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ServiceProtocolError(f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0]
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                raise _Disconnect()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise ServiceProtocolError("header section too large")
            name, separator, value = line.decode("latin-1").partition(":")
            if not separator:
                raise ServiceProtocolError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise ServiceProtocolError(f"malformed Content-Length {raw_length!r}") from None
        if length < 0:
            raise ServiceProtocolError(f"malformed Content-Length {raw_length!r}")
        return method, path, length

    async def _respond(self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        retry_after = payload.get("error", {}).get("retry_after")
        if retry_after is not None and math.isfinite(retry_after):
            headers.append(f"Retry-After: {max(0, math.ceil(retry_after))}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: reject new work, drain in-flight, stop the loop.

        Idempotent.  ``timeout`` caps the thread join (the loop-side drain is
        separately capped by ``drain_timeout``).
        """
        if self._closed or self._thread is None:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and self._shutdown is not None:
            def _begin():
                self.service.begin_shutdown()
                self._shutdown.set()

            try:
                loop.call_soon_threadsafe(_begin)
            except RuntimeError:
                pass  # loop already stopped
        self._thread.join(timeout)
        if self._own_engine:
            self.service.engine.close()

    def __enter__(self) -> "EngineServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["EngineServer", "EngineService"]
