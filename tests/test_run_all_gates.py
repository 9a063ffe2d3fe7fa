"""``benchmarks/run_all.py``'s correctness gates and its service-load counters,
on synthetic payloads."""

import copy
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "run_all.py"


@pytest.fixture(scope="module")
def run_all():
    # Importing run_all.py sets its smoke-mode default and extends sys.path;
    # neither may leak into the rest of the suite.
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("run_all", _PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def passing_payload(run_all):
    payload = {}
    for gate in run_all.CORRECTNESS_GATES:
        node = payload
        *path, last = gate.split(".")
        for part in path:
            node = node.setdefault(part, {})
        node[last] = True
    payload["spsa_convergence"]["spsa"]["converged"] = False
    return payload


def test_all_true_gates_pass_and_converged_is_informational(run_all):
    assert len(run_all.CORRECTNESS_GATES) == 8
    assert run_all.failed_gates(passing_payload(run_all)) == []


@pytest.mark.parametrize("index", range(8))
def test_each_false_or_missing_gate_is_named(run_all, index):
    gate = run_all.CORRECTNESS_GATES[index]
    for broken in (False, None, "missing"):
        payload = passing_payload(run_all)
        node = payload
        *path, last = gate.split(".")
        for part in path:
            node = node[part]
        if broken == "missing":
            del node[last]
        else:
            node[last] = broken
        assert run_all.failed_gates(payload) == [gate]


def test_a_leg_that_raised_is_left_to_failures(run_all):
    payload = passing_payload(run_all)
    payload["segment_reuse"] = None
    assert run_all.failed_gates(payload) == []


def test_service_counters_keep_sums_not_splits(run_all):
    result = {
        "completed": 88,
        "dedupe_hit_rate": 0.95,
        "fleet_store": {"entries": 3, "hit_rate": 0.95, "hits": 84, "misses": 4},
        "engine_stats": {"cache_hits": 1, "cache_misses": 3, "executions": 4,
                         "hit_rate": 0.25, "prefix_resumes": 1},
        "per_tenant": {
            "tenant-00": {"completed": 45, "dedupe_hits": 44, "store_misses": 1},
            "tenant-01": {"completed": 43, "dedupe_hits": 40, "store_misses": 3},
        },
    }
    # The same run with one racing pair resolved the other way.
    raced = copy.deepcopy(result)
    raced["dedupe_hit_rate"] = 0.966
    raced["fleet_store"].update(hits=85, misses=3, hit_rate=0.966)
    raced["engine_stats"].update(cache_hits=0, executions=3)
    raced["per_tenant"]["tenant-01"].update(dedupe_hits=41, store_misses=2)
    stable = run_all.stable_service_counters(result)
    assert stable == run_all.stable_service_counters(raced)
    assert stable["fleet_store"] == {"entries": 3, "lookups": 88}
    assert stable["engine_stats"] == {"cache_misses": 3, "prefix_resumes": 1}
    assert stable["per_tenant"]["tenant-01"] == {"completed": 43, "store_lookups": 43}
    assert "dedupe_hit_rate" not in stable
    assert result["fleet_store"]["hits"] == 84  # the input is left as it was
