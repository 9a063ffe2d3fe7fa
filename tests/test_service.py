"""Tests for the multi-tenant service tier (:mod:`repro.service`).

Four layers:

* **Unit** — token bucket and admission gates under an injected clock, the
  LRU result store, envelope validation, error payload round-trips.
* **Parity** — results served over HTTP (including cross-tenant dedupe hits
  from the fleet store) are bit-identical to a direct in-process
  ``run``/``expectation`` on an identically-configured engine, pinned on
  both the dense and PTM kernels.
* **Conformance** — golden request/response fixtures under
  ``tests/fixtures/service/`` pin the v1 wire protocol: success shapes,
  every rejection class, the metrics payload.
* **Robustness** — the mutation classes from :mod:`randomized` thrown at the
  HTTP boundary: every corrupted envelope earns a typed 4xx (never a 500),
  and the server keeps serving bit-identical results afterwards.
"""

from __future__ import annotations

import json
import http.client
import pathlib

import numpy as np
import pytest

import randomized
from repro.circuits import QuantumCircuit, efficient_su2
from repro.engine import NoisyDensityMatrixEngine
from repro.exceptions import (
    QueueDepthError,
    RateLimitError,
    ResourceLimitError,
    ServiceProtocolError,
)
from repro.frontend import ResourceLimits, ingest_json, schedule_to_json
from repro.operators import PauliSum
from repro.service import (
    AdmissionController,
    EngineServer,
    ResultStore,
    ServiceClient,
    ServiceConfig,
    TenantPolicy,
    TokenBucket,
    parse_envelope,
)
from repro.service.metrics import percentile
from repro.service.protocol import error_payload, raise_for_error
from repro.transpiler import transpile

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures" / "service"

BELL_DOC = {
    "format": "repro-circuit", "version": 1, "num_qubits": 2, "num_clbits": 2,
    "instructions": [
        {"gate": "h", "qubits": [0]},
        {"gate": "cx", "qubits": [0, 1]},
        {"gate": "measure", "qubits": [0], "clbits": [0]},
        {"gate": "measure", "qubits": [1], "clbits": [1]},
    ],
}


class _Clock:
    """An injectable monotonic clock the admission tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _raw_request(server, method, path, body=None, tenant_header=None):
    """One HTTP exchange against ``server``, returning ``(status, payload)``."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        raw = None
        if isinstance(body, (dict, list)):
            raw = json.dumps(body).encode("utf-8")
        elif isinstance(body, str):
            raw = body.encode("utf-8")
        elif isinstance(body, bytes):
            raw = body
        connection.request(method, path, body=raw, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


# ----------------------------------------------------------------------------
# Unit: admission control
# ----------------------------------------------------------------------------

class TestAdmission:
    def test_token_bucket_starts_full_and_reports_exact_retry(self):
        bucket = TokenBucket(rate=2.0, burst=2, now=0.0)
        assert bucket.try_acquire(0.0) is None
        assert bucket.try_acquire(0.0) is None
        # Empty: the next token exists in exactly 1/rate seconds.
        assert bucket.try_acquire(0.0) == pytest.approx(0.5)
        # Refill is proportional to elapsed time, capped at the burst.
        assert bucket.try_acquire(0.5) is None
        assert bucket.try_acquire(100.0) is None
        assert bucket.try_acquire(100.0) is None
        assert bucket.try_acquire(100.0) == pytest.approx(0.5)

    def test_rate_gate_rejects_with_retry_after(self):
        clock = _Clock()
        config = ServiceConfig(
            default_policy=TenantPolicy(rate_per_second=1.0, burst=2), clock=clock
        )
        controller = AdmissionController(config, engine_max_pending=8)
        controller.admit("a")
        controller.admit("a")
        with pytest.raises(RateLimitError) as caught:
            controller.admit("a")
        assert caught.value.retry_after == pytest.approx(1.0)
        # The rejected attempt consumed a rate token but no queue depth.
        assert controller.tenant_in_flight("a") == 2
        # Tokens return with time; other tenants have independent buckets.
        clock.now = 1.0
        controller.admit("b")
        controller.admit("a")

    def test_depth_gates_tenant_then_fleet(self):
        clock = _Clock()
        config = ServiceConfig(
            default_policy=TenantPolicy(
                rate_per_second=1000.0, burst=1000, max_queue_depth=2
            ),
            clock=clock,
        )
        controller = AdmissionController(config, engine_max_pending=3)
        controller.admit("a")
        controller.admit("a")
        with pytest.raises(QueueDepthError):
            controller.admit("a")  # per-tenant bound
        controller.admit("b")
        with pytest.raises(QueueDepthError):
            controller.admit("b")  # fleet bound (3 in flight)
        controller.release("a")
        controller.admit("b")
        assert controller.in_flight == 3
        assert controller.tenant_in_flight("a") == 1
        assert controller.tenant_in_flight("b") == 2

    @pytest.mark.parametrize(
        "knobs", [{"parallelism": "gpu"}, {"parallelism": "thread"}, {"max_workers": 4}]
    )
    def test_config_rejects_what_no_engine_would_run(self, knobs):
        # A served engine executes its batches serially: the config takes no
        # tier knobs, so a service never starts with one it would ignore.
        with pytest.raises(TypeError):
            ServiceConfig(**knobs)


# ----------------------------------------------------------------------------
# Unit: result store, metrics helpers, protocol validation
# ----------------------------------------------------------------------------

class TestStore:
    def test_lru_eviction_and_counters(self):
        store = ResultStore(max_entries=2)
        assert store.get("a") is None
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        assert store.get("a") == {"v": 1}  # refreshes a
        store.put("c", {"v": 3})  # evicts b (least recently used)
        assert store.get("b") is None
        assert store.get("a") == {"v": 1}
        assert store.get("c") == {"v": 3}
        assert (store.hits, store.misses) == (3, 2)
        assert store.hit_rate == pytest.approx(3 / 5)

    def test_none_key_is_uncacheable(self):
        store = ResultStore()
        store.put(None, {"v": 1})
        assert store.get(None) is None
        assert len(store) == 0


def test_percentile_nearest_rank():
    samples = sorted([0.1, 0.2, 0.3, 0.4])
    assert percentile(samples, 0.50) == 0.2
    assert percentile(samples, 0.99) == 0.4
    assert percentile([], 0.5) == 0.0


class TestEnvelope:
    @pytest.mark.parametrize(
        "body",
        [
            [],  # not an object
            {"tenant": "t"},  # missing programs
            {"tenant": "t", "programs": []},  # empty programs
            {"tenant": "", "programs": [{"program": {}}]},  # empty tenant
            {"tenant": "t", "programs": [{"program": {}}], "extra": 1},
            {"tenant": "t", "protocol": 2, "programs": [{"program": {}}]},
            {"tenant": "t", "programs": [{"program": {}, "op": "teleport"}]},
            {"tenant": "t", "programs": [{"program": "text"}]},
            {"tenant": "t", "programs": [{"program": {}, "shots": 0}]},
            {"tenant": "t", "programs": [{"program": {}, "shots": True}]},
            {"tenant": "t", "programs": [{"program": {}, "observable": [["Z", 1.0]]}]},
            {"tenant": "t", "programs": [{"program": {}, "op": "expectation"}]},
            {"tenant": "t", "programs": [{"program": {}, "op": "expectation", "observable": [["Z", True]]}]},
        ],
    )
    def test_rejects_malformed_envelopes(self, body):
        with pytest.raises(ServiceProtocolError):
            parse_envelope(body)

    def test_accepts_minimal_envelope(self):
        tenant, programs = parse_envelope(
            {"tenant": "t", "programs": [{"program": {"format": "x"}}]}
        )
        assert tenant == "t"
        assert programs[0].op == "run"
        assert programs[0].shots is None

    def test_error_payload_round_trips_typed_extras(self):
        error = ResourceLimitError(
            "too wide", limit_name="max_qubits", limit=1, actual=2
        )
        payload = error_payload(error, program_index=3)
        with pytest.raises(ResourceLimitError) as caught:
            raise_for_error(400, payload)
        rebuilt = caught.value
        assert rebuilt.status == 400
        assert rebuilt.program_index == 3
        assert (rebuilt.limit_name, rebuilt.limit, rebuilt.actual) == ("max_qubits", 1, 2)


# ----------------------------------------------------------------------------
# Parity: served results are bit-identical to direct execution, both kernels
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module", params=("dense", "ptm"))
def kernel(request):
    return request.param


@pytest.fixture(scope="module")
def parity_server(device_noise, kernel):
    engine = NoisyDensityMatrixEngine(device_noise, seed=11, kernel=kernel)
    server = EngineServer(engine, own_engine=True).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def direct_engine(device_noise, kernel):
    engine = NoisyDensityMatrixEngine(device_noise, seed=11, kernel=kernel)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def schedule_doc(device):
    ansatz = efficient_su2(3, reps=1, entanglement="linear")
    rng = np.random.default_rng(1234)
    circuit = ansatz.bind_parameters(rng.uniform(-np.pi, np.pi, ansatz.num_parameters))
    circuit.measure_all()
    return json.loads(schedule_to_json(transpile(circuit, device).scheduled))


class TestParity:
    def test_run_results_bit_identical_and_cross_tenant_dedupe(
        self, parity_server, direct_engine, schedule_doc, kernel
    ):
        for name, document in (("bell", BELL_DOC), ("su2", schedule_doc)):
            alice = ServiceClient(
                parity_server.host, parity_server.port, tenant=f"alice-{name}"
            )
            served = alice.run(document)
            payload = ingest_json(document).engine_payload(direct_engine)
            direct = direct_engine.run(payload)
            assert served["fingerprint"] == direct.fingerprint
            assert served["probabilities"] == [float(v) for v in direct.probabilities]
            assert served["clbit_order"] == [int(b) for b in direct.clbit_order]
            # A different tenant submitting identical content is served from
            # the fleet store — and the hit is bit-identical to the miss.
            bob = ServiceClient(
                parity_server.host, parity_server.port, tenant=f"bob-{name}"
            )
            again = bob.run(document)
            assert again["store"] == "hit"
            assert {k: v for k, v in again.items() if k != "store"} == {
                k: v for k, v in served.items() if k != "store"
            }

    def test_expectation_parity_exact_and_sampled(self, parity_server, direct_engine):
        observable = PauliSum.from_list([("ZZ", 0.75), ("XX", 0.25)])
        terms = [["ZZ", 0.75], ["XX", 0.25]]
        client = ServiceClient(parity_server.host, parity_server.port, tenant="carol")
        payload = ingest_json(BELL_DOC).engine_payload(direct_engine)
        exact = client.expectation(BELL_DOC, terms)
        assert exact == direct_engine.expectation(payload, observable, shots=None)
        # Sampled values are pure functions of (engine seed, content), so the
        # seeded service engine reproduces the direct engine's draw exactly.
        sampled = client.expectation(BELL_DOC, terms, shots=256)
        assert sampled == direct_engine.expectation(payload, observable, shots=256)
        # And a second tenant's identical sampled query is a store hit.
        other = ServiceClient(parity_server.host, parity_server.port, tenant="dave")
        assert other.expectation(BELL_DOC, terms, shots=256) == sampled
        store = client.metrics()["fleet"]["store"]
        assert store["hits"] >= 1

    def test_client_serializes_circuit_and_schedule_objects(
        self, parity_server, device
    ):
        client = ServiceClient(parity_server.host, parity_server.port, tenant="erin")
        circuit = QuantumCircuit(2, 2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        from_circuit = client.run(circuit)
        from_schedule = client.run(transpile(circuit, device).scheduled)
        assert from_circuit["probabilities"]
        assert from_schedule["probabilities"]

    def test_metrics_counters_are_consistent(self, parity_server):
        metrics = ServiceClient(
            parity_server.host, parity_server.port, tenant="erin"
        ).metrics()
        for tenant, counters in metrics["tenants"].items():
            assert counters["submitted"] == counters["completed"] + sum(
                counters["rejected"].values()
            ), tenant
            assert counters["latency"]["count"] == counters["completed"]
        fleet = metrics["fleet"]
        assert fleet["store"]["hits"] + fleet["store"]["misses"] > 0
        assert fleet["requests"] >= sum(
            counters["submitted"] for counters in metrics["tenants"].values()
        )


# ----------------------------------------------------------------------------
# Conformance: golden wire-format fixtures
# ----------------------------------------------------------------------------

def _assert_matches(template, actual, path="$"):
    """Structural comparison: placeholder strings match by type, everything
    else must be equal; objects must have exactly the template's keys."""
    placeholders = {
        "<str>": str,
        "<int>": int,
        "<float>": (int, float),
        "<bool>": bool,
        "<object>": dict,
        "<any>": object,
    }
    if isinstance(template, str) and template in placeholders:
        assert isinstance(actual, placeholders[template]), f"{path}: {actual!r} is not {template}"
        return
    if template == "<list[float]>":
        assert isinstance(actual, list) and all(
            isinstance(v, float) for v in actual
        ), f"{path}: {actual!r} is not a list of floats"
        return
    if template == "<list[int]>":
        assert isinstance(actual, list) and all(
            isinstance(v, int) for v in actual
        ), f"{path}: {actual!r} is not a list of ints"
        return
    if isinstance(template, dict):
        assert isinstance(actual, dict), f"{path}: expected object, got {actual!r}"
        assert set(actual) == set(template), (
            f"{path}: keys {sorted(actual)} != {sorted(template)}"
        )
        for key, value in template.items():
            _assert_matches(value, actual[key], f"{path}.{key}")
        return
    if isinstance(template, list):
        assert isinstance(actual, list) and len(actual) == len(template), (
            f"{path}: expected {len(template)} entries, got {actual!r}"
        )
        for index, value in enumerate(template):
            _assert_matches(value, actual[index], f"{path}[{index}]")
        return
    assert actual == template, f"{path}: {actual!r} != {template!r}"


@pytest.fixture(scope="module")
def conformance_servers(device_noise):
    """Lazily-built servers, one per fixture-declared configuration."""
    servers = {}

    def build(variant):
        if variant in servers:
            return servers[variant]
        if variant == "strict_rate":
            config = ServiceConfig(
                default_policy=TenantPolicy(rate_per_second=1e-9, burst=1)
            )
        elif variant == "zero_inflight":
            config = ServiceConfig(max_inflight_requests=0)
        elif variant == "tiny_limits":
            config = ServiceConfig(
                default_policy=TenantPolicy(limits=ResourceLimits(max_instructions=1))
            )
        else:  # "default", "metrics", "closing" use stock config
            config = ServiceConfig()
        engine = NoisyDensityMatrixEngine(device_noise, seed=7)
        server = EngineServer(engine, config, own_engine=True).start()
        if variant == "closing":
            server.service.begin_shutdown()
        servers[variant] = server
        return server

    yield build
    for server in servers.values():
        server.close()


@pytest.mark.parametrize(
    "fixture_path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_wire_format_conformance(fixture_path, conformance_servers):
    fixture = json.loads(fixture_path.read_text())
    server = conformance_servers(fixture.get("server", "default"))
    for setup in fixture.get("setup", []):
        _raw_request(server, setup["method"], setup["path"], setup.get("body"))
    request = fixture["request"]
    body = request.get("body_raw", request.get("body"))
    status, payload = _raw_request(server, request["method"], request["path"], body)
    assert status == fixture["response"]["status"], payload
    _assert_matches(fixture["response"]["body"], payload)


# ----------------------------------------------------------------------------
# Robustness: mutated envelopes at the HTTP boundary
# ----------------------------------------------------------------------------

def test_http_boundary_survives_corrupted_envelopes(device_noise):
    engine = NoisyDensityMatrixEngine(device_noise, seed=3)
    config = ServiceConfig(
        default_policy=TenantPolicy(rate_per_second=10_000.0, burst=10_000)
    )
    with EngineServer(engine, config, own_engine=True) as server:
        envelope_text = json.dumps(
            {"protocol": 1, "tenant": "fuzz", "programs": [{"op": "run", "program": BELL_DOC}]}
        )
        baseline_status, baseline = _raw_request(server, "POST", "/v1/submit", envelope_text)
        assert baseline_status == 200
        case = 0
        for kind in randomized.CORRUPTION_KINDS:
            for seed in range(4):
                _, corrupted = randomized.corrupt_program(
                    envelope_text, seed=9100 + case, kind=kind
                )
                case += 1
                status, payload = _raw_request(server, "POST", "/v1/submit", corrupted)
                # Typed outcome, never an internal error: a mutation either
                # still parses (200) or earns a 4xx rejection class.
                assert status in (200, 400, 413, 429), (kind, seed, payload)
                assert payload.get("protocol") == 1, (kind, seed, payload)
        # The server survived every mutation and still serves bit-identical
        # results (from the fleet store, matching the pre-fuzz baseline).
        status, after = _raw_request(server, "POST", "/v1/submit", envelope_text)
        assert status == 200
        first, second = baseline["results"][0], after["results"][0]
        assert second["store"] == "hit"
        assert second["probabilities"] == first["probabilities"]
        assert server.service.metrics.protocol_errors > 0
