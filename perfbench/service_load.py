"""The ``service_load`` workload: open-loop multi-tenant traffic to a served engine.

The engine server runs in its own process (``server_main.py``).  This
process is the load generator: one asyncio event loop on one thread sends
every request at its due time over its own connection, whether or not earlier
requests have been answered, so a stalled server shows as latency rather
than as less load.  Each latency is timed from the request's *due* time, and
the generator's own lateness is reported as ``loadgen.lag_p99_ms``.

Traffic per cycle: three fixed-rate steps (``STEP_RATES``).  Most requests
repeat a small pool of schedules (fleet-store hits, which bypass the kernel);
``NEW_SHARE`` of them carry a schedule never sent before (store misses,
executed by the engine).
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent

#: Offered rates of the fixed-rate steps, requests per second.
STEP_RATES = (60.0, 90.0, 120.0)
#: Share of requests that carry a never-seen schedule.  At 20% the median
#: latency measures the store-hit path and ``p90_ms`` the middle of the
#: store-miss (engine) path, so neither sits on the boundary between them.
NEW_SHARE = 0.2
#: Distinct schedules the repeated requests draw from.
POOL = 6
TENANTS = 4
#: p90 latency limit a rate step must meet to count towards ``max_ok_rps``.
P90_LIMIT_MS = 100.0
#: Responses per run compared against an in-process engine evaluation.
CHECK_SAMPLE = 12

OBSERVABLE = [["ZZI", 1.0], ["IZZ", 0.5], ["XII", 0.25], ["IXI", -0.25], ["IIY", 0.125]]


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _schedule_document(device, rng) -> dict:
    from repro.circuits import efficient_su2
    from repro.frontend import schedule_to_json
    from repro.transpiler import transpile

    ansatz = efficient_su2(3, reps=2, entanglement="linear")
    bound = ansatz.bind_parameters(rng.uniform(-np.pi, np.pi, ansatz.num_parameters))
    bound.measure_all()
    return json.loads(schedule_to_json(transpile(bound, device).scheduled))


def _phases(seconds: float) -> List[Tuple[str, float, float, int]]:
    """``(name, start_s, rate, count)`` of the steps of one cycle."""
    step = 0.9 * seconds / len(STEP_RATES)
    phases = []
    start = 0.0
    for rate in STEP_RATES:
        phases.append((f"{rate:g}rps", start, rate, int(round(rate * step))))
        start += step
    return phases


def build_plan(seed: int, seconds: float) -> Dict[str, Any]:
    """Every request of one cycle, generated from ``seed`` alone."""
    from repro.backends import fake_casablanca
    from repro.service.protocol import SERVICE_PROTOCOL

    rng = np.random.default_rng(seed)
    device = fake_casablanca()
    phases = _phases(seconds)
    total = sum(count for _, _, _, count in phases)
    fresh = rng.random(total) < NEW_SHARE
    documents = [_schedule_document(device, rng) for _ in range(POOL + int(fresh.sum()))]
    next_new = POOL
    requests = []  # (due_s, phase, document index, body)
    index = 0
    for name, start, rate, count in phases:
        for k in range(count):
            due = start + k / rate
            if fresh[index]:
                doc, next_new = next_new, next_new + 1
            else:
                doc = int(rng.integers(POOL))
            tenant = f"tenant-{index % TENANTS}"
            envelope = {
                "protocol": SERVICE_PROTOCOL,
                "tenant": tenant,
                "programs": [
                    {"op": "expectation", "program": documents[doc], "observable": OBSERVABLE}
                ],
            }
            body = json.dumps(envelope).encode("utf-8")
            head = (
                "POST /v1/submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\nConnection: close\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            requests.append((due, name, doc, head + body))
            index += 1
    return {"phases": phases, "documents": documents, "requests": requests}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------

class ServerProcess:
    """``server_main.py`` in a child process.  :meth:`start` it, then use it
    as a context manager: leaving the block stops the server."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.report: Optional[dict] = None
        self._process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.start_s = 0.0

    def __enter__(self) -> "ServerProcess":
        return self

    def start(self) -> "ServerProcess":
        """Launch the server and wait until it listens; times the start."""
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py"), "--trace", str(int(self.trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self._process.stdout.readline()
        if not line:
            self._process.wait(timeout=30)
            raise RuntimeError("the engine server exited before listening")
        self.port = int(json.loads(line)["port"])
        self.start_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc_info) -> None:
        process = self._process
        try:
            out, _ = process.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise
        if self.trace and out.strip():
            self.report = json.loads(out.strip().splitlines()[-1])

    def metrics(self) -> dict:
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, tenant="observer").metrics()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------

async def _send(port: int, body: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(body)
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()


async def _drive(port: int, requests) -> List[Tuple[float, float, Optional[bytes]]]:
    """``(lag_s, latency_s, response)`` per request, both timed from its due time."""
    loop = asyncio.get_running_loop()
    outcomes: List[Optional[Tuple[float, float, Optional[bytes]]]] = [None] * len(requests)
    zero = loop.time() + 0.05

    async def fire(index: int, due: float, body: bytes) -> None:
        sent = loop.time()
        try:
            response = await _send(port, body)
        except OSError:
            response = None
        outcomes[index] = (sent - due, loop.time() - due, response)

    tasks = []
    for index, (offset, _, _, body) in enumerate(requests):
        due = zero + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(fire(index, due, body)))
    await asyncio.gather(*tasks)
    return outcomes


def _parse(response: Optional[bytes]) -> Optional[float]:
    """The expectation value of a 200 response, else ``None``."""
    if not response:
        return None
    head, _, body = response.partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0]:
        return None
    try:
        return float(json.loads(body)["results"][0]["value"])
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def run_cycle(plan: Dict[str, Any], server: ServerProcess) -> Dict[str, Any]:
    """Serve one cycle of ``plan`` from a started server, then stop it."""
    with server:
        outcomes = asyncio.run(_drive(server.port, plan["requests"]))
        metrics = server.metrics()
    values: Dict[int, List[float]] = {}
    by_phase: Dict[str, List[Tuple[float, float]]] = {}
    lags: List[float] = []
    failed = 0
    for (due, phase, doc, _), (lag, latency, response) in zip(plan["requests"], outcomes):
        value = _parse(response)
        lags.append(lag)
        if value is None:
            failed += 1
            continue
        values.setdefault(doc, []).append(value)
        by_phase.setdefault(phase, []).append((due, latency))
    return {
        "values": values,
        "by_phase": by_phase,
        "lags": lags,
        "failed": failed,
        "attempted": len(outcomes),
        "metrics": metrics,
        "report": server.report,
        # Open loop: the cycle ends with its last answer, so it outlasts the
        # offered schedule only by the service's final latency or backlog.
        "cycle_s": max(
            request[0] + outcome[1] for request, outcome in zip(plan["requests"], outcomes)
        ),
    }


def summarize(plan: Dict[str, Any], cycle: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end figures of one cycle."""
    latencies = [latency for served in cycle["by_phase"].values() for _, latency in served]
    max_ok = 0.0
    for name, start, rate, count in plan["phases"]:
        served = cycle["by_phase"].get(name, [])
        if len(served) < count:
            continue
        backlog = max(due + latency for due, latency in served) - (start + count / rate)
        p90 = percentile([latency for _, latency in served], 0.90)
        if p90 * 1e3 <= P90_LIMIT_MS and backlog * 1e3 <= P90_LIMIT_MS:
            max_ok = max(max_ok, rate)
    return {
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p90_ms": percentile(latencies, 0.90) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "max_ok_rps": max_ok,
        "run_s": cycle["cycle_s"],
        "samples": len(latencies),
        "lag_p99_ms": percentile(cycle["lags"], 0.99) * 1e3,
    }


def unattributed_s(report: Dict[str, Any]) -> float:
    """Request-handler time in the server not covered by a traced layer.

    Handler time is wall time per request, so concurrent requests overlap;
    subtracting the outermost spans of every thread but the engine
    scheduler's and the batches' submit-to-done turnaround leaves the time
    the event loop spent on HTTP, JSON and the result store.  Approximate.
    """
    handled = report["layers"].get("service.exec", [0, 0, 0])[1]
    covered = sum(ns for thread, ns in report["roots"].items() if not thread.endswith("-scheduler"))
    awaited = report["counters"].get("scheduler.turnaround_ns", 0)
    return max(0.0, (handled - covered - awaited) / 1e9)


def expected_values(plan: Dict[str, Any], docs: List[int]) -> Dict[int, float]:
    """In-process engine evaluations of the sampled documents."""
    from repro.frontend import ingest_json
    from repro.service.protocol import build_observable

    from server_main import build_engine

    engine = build_engine()
    observable = build_observable([tuple(term) for term in OBSERVABLE])
    expected = {}
    for doc in docs:
        payload = ingest_json(plan["documents"][doc]).engine_payload(engine)
        expected[doc] = float(engine.expectation(payload, observable))
    engine.close()
    return expected


def check(plan: Dict[str, Any], cycle: Dict[str, Any], seed: int) -> List[str]:
    """Wrong answers: a document answered two ways, or unlike the in-process engine."""
    problems = []
    for doc, values in cycle["values"].items():
        if any(value != values[0] for value in values):
            problems.append(f"document {doc} answered {len(set(values))} different values")
    rng = np.random.default_rng(seed + 1)
    answered = sorted(cycle["values"])
    sample = sorted(set(rng.choice(answered, size=min(CHECK_SAMPLE, len(answered)), replace=False).tolist()))
    expected = expected_values(plan, sample)
    for doc in sample:
        if cycle["values"][doc][0] != expected[doc]:
            problems.append(
                f"document {doc}: service {cycle['values'][doc][0]!r} != engine {expected[doc]!r}"
            )
    return problems


def service_counters(metrics: dict) -> Dict[str, float]:
    store = metrics["fleet"]["store"]
    rejections = sum(
        sum(tenant["rejected"].values()) for tenant in metrics["tenants"].values()
    )
    return {"service.store_hit_rate": float(store["hit_rate"]), "service.rejections": rejections}
