"""Seeded fault-injection harness for the service tier.

Each test injects one failure class the degradation contract names —
disconnects mid-request, malformed bytes, quota exhaustion, worker-process
death in a process map, shutdown with in-flight batches — and checks the
same three invariants every time:

* the failing tenant gets a **typed** error (or a counted aborted
  connection), never a hang or a raw traceback;
* **no other tenant's results are corrupted** — post-chaos submissions are
  bit-identical to a clean, never-faulted engine;
* the server (or engine) **keeps serving** afterwards.

Everything is deterministic: sockets are driven byte-by-byte, the gated
engine blocks on explicit events, and a worker process kills itself — no
sleeps standing in for synchronization.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.circuits import efficient_su2
from repro.engine import NoisyDensityMatrixEngine, gather
from repro.engine.parallel import process_map
from repro.exceptions import RateLimitError
from repro.frontend import ingest_json
from repro.service import EngineServer, ServiceClient, ServiceConfig, TenantPolicy
from repro.simulators import NoiseModel

BELL_DOC = {
    "format": "repro-circuit", "version": 1, "num_qubits": 2, "num_clbits": 2,
    "instructions": [
        {"gate": "h", "qubits": [0]},
        {"gate": "cx", "qubits": [0, 1]},
        {"gate": "measure", "qubits": [0], "clbits": [0]},
        {"gate": "measure", "qubits": [1], "clbits": [1]},
    ],
}


def _envelope(tenant, document=BELL_DOC):
    return json.dumps(
        {"protocol": 1, "tenant": tenant, "programs": [{"op": "run", "program": document}]}
    ).encode("utf-8")


def _send_raw(server, data, shutdown_after=True, timeout=10.0):
    """Ship raw bytes at the server socket; returns whatever comes back."""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(data)
        if shutdown_after:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except (socket.timeout, ConnectionError):
            pass
        return b"".join(chunks)


def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = timeout / interval
    while deadline > 0:
        if predicate():
            return True
        deadline -= 1
        threading.Event().wait(interval)
    return predicate()


@pytest.fixture
def chaos_server(device_noise):
    engine = NoisyDensityMatrixEngine(device_noise, seed=23)
    config = ServiceConfig(
        default_policy=TenantPolicy(rate_per_second=10_000.0, burst=10_000),
        tenants={
            "quota-victim": TenantPolicy(rate_per_second=1e-9, burst=2),
        },
    )
    server = EngineServer(engine, config, own_engine=True, read_timeout=2.0).start()
    yield server
    server.close()


class TestConnectionFaults:
    def test_disconnect_mid_body_is_counted_and_harmless(self, chaos_server):
        body = _envelope("dropper")
        # Headers promise more bytes than ever arrive, then the client leaves.
        partial = (
            b"POST /v1/submit HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % (len(body) + 512,)
        ) + body[: len(body) // 2]
        _send_raw(chaos_server, partial)
        # A half-written request line, then nothing.
        _send_raw(chaos_server, b"POST /v1/sub")
        # An opened-and-abandoned connection (no bytes at all).
        _send_raw(chaos_server, b"")
        assert _wait_for(lambda: chaos_server.service.metrics.disconnects >= 3)
        # The dropper never made it into tenant accounting, and the server
        # still answers other tenants.
        client = ServiceClient(chaos_server.host, chaos_server.port, tenant="alive")
        assert client.run(BELL_DOC)["probabilities"]
        metrics = client.metrics()
        assert "dropper" not in metrics["tenants"]
        assert metrics["fleet"]["disconnects"] >= 3

    def test_garbage_bytes_get_a_typed_400(self, chaos_server):
        for junk in (b"\x00\x01\x02\xff\xfe\r\n\r\n", b"EHLO service\r\n\r\n", b"GET\r\n\r\n"):
            response = _send_raw(chaos_server, junk, shutdown_after=False)
            assert response.startswith(b"HTTP/1.1 400"), junk
            payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
            assert payload["error"]["class"] == "ServiceProtocolError"
        assert chaos_server.service.metrics.protocol_errors >= 3

    def test_truncated_json_body_is_typed_not_fatal(self, chaos_server):
        body = _envelope("truncator")[:-25]
        request = (
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        ) + body
        response = _send_raw(chaos_server, request, shutdown_after=False)
        assert response.startswith(b"HTTP/1.1 400")
        payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert payload["error"]["class"] == "ServiceProtocolError"
        assert "JSON" in payload["error"]["message"]


class TestQuotaFaults:
    def test_quota_exhaustion_is_isolated_per_tenant(self, chaos_server):
        victim = ServiceClient(chaos_server.host, chaos_server.port, tenant="quota-victim")
        bystander = ServiceClient(chaos_server.host, chaos_server.port, tenant="bystander")
        first = victim.run(BELL_DOC)
        victim.run(BELL_DOC)
        with pytest.raises(RateLimitError) as caught:
            victim.run(BELL_DOC)
        assert caught.value.status == 429
        assert caught.value.retry_after > 0
        # Exhaustion is per tenant: the bystander is admitted and — thanks to
        # the fleet store — served the victim's exact bytes.
        served = bystander.run(BELL_DOC)
        assert served["store"] == "hit"
        assert served["probabilities"] == first["probabilities"]
        rejected = victim.metrics()["tenants"]["quota-victim"]["rejected"]
        assert rejected["rate_limit"] == 1


def _run_or_die(task):
    """A process-map task that SIGKILLs its own worker for a doomed batch."""
    device, schedules, doomed = task
    if doomed:
        os.kill(os.getpid(), signal.SIGKILL)
    engine = NoisyDensityMatrixEngine(NoiseModel.from_device(device), seed=31)
    return gather(engine.submit_batch(schedules))


class TestWorkerPoolDeath:
    def test_pool_death_is_one_typed_failure_then_full_recovery(self, device, device_noise):
        """A worker process killed mid-map fails that map with the typed
        broken-pool error, and the next map, on a pool of its own, returns
        results bit-identical to a never-faulted engine."""
        from repro.transpiler import transpile

        rng = np.random.default_rng(77)

        def batch(tag, count=3):
            schedules = []
            for index in range(count):
                ansatz = efficient_su2(2, reps=1, entanglement="linear")
                bound = ansatz.bind_parameters(
                    rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
                )
                bound.measure_all()
                bound.name = f"{tag}-{index}"
                schedules.append(transpile(bound, device).scheduled)
            return schedules

        warmup, doomed, recovery = batch("warm"), batch("doom"), batch("recover")
        process_map(_run_or_die, [(device, warmup, False)], 2)
        with pytest.raises(BrokenProcessPool):
            process_map(_run_or_die, [(device, warmup, False), (device, doomed, True)], 2)
        (recovered,) = process_map(_run_or_die, [(device, recovery, False)], 2)

        clean_engine = NoisyDensityMatrixEngine(device_noise, seed=31)
        try:
            clean = gather(clean_engine.submit_batch(recovery))
        finally:
            clean_engine.close()
        for after, reference in zip(recovered, clean):
            assert after.fingerprint == reference.fingerprint
            assert np.array_equal(after.probabilities, reference.probabilities)


class _GatedEngine(NoisyDensityMatrixEngine):
    """Engine whose dispatch blocks until the test opens the gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.dispatch_started = threading.Event()

    def _dispatch_batch(self, kind, items, kwargs):
        self.dispatch_started.set()
        if not self.gate.wait(timeout=30):  # pragma: no cover - deadlock guard
            raise RuntimeError("test gate never opened")
        return super()._dispatch_batch(kind, items, kwargs)


class TestShutdownFaults:
    def test_close_drains_inflight_batches_and_answers_them(self, device_noise):
        engine = _GatedEngine(device_noise, seed=23)
        server = EngineServer(engine, own_engine=True).start()
        client = ServiceClient(server.host, server.port, tenant="drainer")
        outcome = {}

        def submit():
            try:
                outcome["result"] = client.run(BELL_DOC)
            except Exception as error:  # pragma: no cover - asserted below
                outcome["error"] = error

        request_thread = threading.Thread(target=submit)
        request_thread.start()
        assert engine.dispatch_started.wait(timeout=10)

        closer = threading.Thread(target=server.close)
        closer.start()
        # close() must not abandon the admitted batch: the request thread is
        # still waiting while the gate is shut.
        request_thread.join(timeout=0.3)
        assert request_thread.is_alive()
        engine.gate.set()
        closer.join(timeout=30)
        request_thread.join(timeout=30)
        assert not closer.is_alive() and not request_thread.is_alive()
        assert "error" not in outcome, outcome.get("error")

        # The drained response is bit-identical to a clean engine's.
        clean_engine = NoisyDensityMatrixEngine(device_noise, seed=23)
        try:
            direct = clean_engine.run(ingest_json(BELL_DOC).engine_payload(clean_engine))
        finally:
            clean_engine.close()
        assert outcome["result"]["probabilities"] == [
            float(v) for v in direct.probabilities
        ]
        # And the server is actually gone: new connections are refused.
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=2).close()


class TestPostChaosParity:
    def test_combined_chaos_leaves_results_bit_identical(self, chaos_server, device_noise):
        """The full gauntlet against one server, then parity for everyone."""
        # 1) disconnects, 2) garbage, 3) truncation, 4) quota exhaustion.
        _send_raw(chaos_server, b"POST /v1/submit HTTP/1.1\r\nContent-Length: 400\r\n\r\n{")
        _send_raw(chaos_server, b"\xde\xad\xbe\xef\r\n\r\n", shutdown_after=False)
        victim = ServiceClient(chaos_server.host, chaos_server.port, tenant="quota-victim")
        victim.run(BELL_DOC)
        victim.run(BELL_DOC)
        with pytest.raises(RateLimitError):
            victim.run(BELL_DOC)

        # Post-chaos: two fresh tenants get bit-identical results to a clean
        # in-process engine; every tenant's counters stay consistent.
        clean_engine = NoisyDensityMatrixEngine(device_noise, seed=23)
        try:
            direct = clean_engine.run(ingest_json(BELL_DOC).engine_payload(clean_engine))
        finally:
            clean_engine.close()
        expected = [float(v) for v in direct.probabilities]
        for tenant in ("phoenix", "lazarus"):
            client = ServiceClient(chaos_server.host, chaos_server.port, tenant=tenant)
            assert client.run(BELL_DOC)["probabilities"] == expected
        metrics = ServiceClient(
            chaos_server.host, chaos_server.port, tenant="auditor"
        ).metrics()
        for tenant, counters in metrics["tenants"].items():
            assert counters["submitted"] == counters["completed"] + sum(
                counters["rejected"].values()
            ), tenant
        assert metrics["fleet"]["disconnects"] >= 1
        assert metrics["fleet"]["protocol_errors"] >= 1
        assert metrics["status"] == "ok"
