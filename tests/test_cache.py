"""Tests for :class:`repro.cache.LRUCache`, the library's one bounded cache,
for the caches built on it that add behaviour of their own (the segment
cache's records, the service's store report), and for the engines' cache
reports."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.engine import segments
from repro.service.metrics import ServiceMetrics


def _report(cache):
    report = cache.as_dict()
    return report["entries"], report["size"], report["evictions"]


class TestLRUCache:
    def test_evicts_least_recently_used_first(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"  # a is now the most recently used
        cache.put("d", "D")  # evicts b
        assert "b" not in cache
        cache.put("e", "E")  # evicts c
        assert "c" not in cache
        assert [cache.get(key) for key in "ade"] == ["A", "D", "E"]

    def test_size_never_exceeds_capacity_after_put(self):
        rng = np.random.default_rng(7)
        cache = LRUCache(1000)
        for key in range(300):
            cache.put(key, key, int(rng.integers(1, 400)))
            report = cache.as_dict()
            assert report["size"] <= report["capacity"]
        assert cache.as_dict()["evictions"] > 0

    def test_value_larger_than_capacity_is_not_stored_and_evicts_nothing(self):
        cache = LRUCache(10)
        cache.put("a", 1, 6)
        assert cache.put("huge", 2, 11) == 2
        assert "huge" not in cache
        assert cache.get("a") == 1
        assert _report(cache) == (1, 6, 0)
        empty = LRUCache(0)
        empty.put("x", 1)
        assert _report(empty) == (0, 0, 0)

    def test_put_on_present_key_refreshes_recency_and_keeps_value(self):
        cache = LRUCache(2)
        cache.put("a", "first")
        cache.put("b", "B")
        assert cache.put("a", "second") == "first"
        assert cache.get("a") == "first"
        assert _report(cache) == (2, 2, 0)
        cache.put("c", "C")  # "a" was refreshed, so "b" goes
        assert "b" not in cache and "a" in cache

    def test_counts_after_each_step(self):
        cache = LRUCache(10)
        assert _report(cache) == (0, 0, 0)
        cache.put("a", 1, 4)
        assert _report(cache) == (1, 4, 0)
        cache.put("b", 2, 4)
        assert _report(cache) == (2, 8, 0)
        cache.put("c", 3, 5)  # 13 > 10: "a" goes
        assert _report(cache) == (2, 9, 1)
        cache.put("d", 4, 10)  # only "d" fits
        assert _report(cache) == (1, 10, 3)
        cache.put("e", 5, 0)  # every entry counts at least one unit
        assert _report(cache) == (1, 1, 4)
        assert cache.as_dict()["capacity"] == 10

    def test_clear(self):
        cache = LRUCache(2)
        for key in "abc":
            cache.put(key, key)
        cache.clear()
        assert _report(cache) == (0, 0, 1)
        assert cache.get("c") is None
        cache.put("a", "A")
        assert cache.get("a") == "A"

    def test_pickles_with_its_entries(self):
        cache = LRUCache(4)
        cache.put("a", np.arange(3), 2)
        clone = pickle.loads(pickle.dumps(cache))
        assert np.array_equal(clone.get("a"), np.arange(3))
        assert clone.as_dict() == cache.as_dict()
        clone.put("b", 1, 3)  # the clone has a working lock of its own
        assert "a" not in clone and "a" in cache


def test_store_lru_eviction_and_counters():
    """The service's store sequence: a lookup refreshes an entry, the least
    recently used one goes, and the tenants' hit and miss counts make the
    store report."""
    store = LRUCache(2)
    metrics = ServiceMetrics()
    tenant = metrics.tenant("t")

    def lookup(key):
        value = store.get(key)
        if value is None:
            tenant.store_misses += 1
        else:
            tenant.dedupe_hits += 1
        return value

    assert lookup("a") is None
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    assert lookup("a") == {"v": 1}  # refreshes a
    store.put("c", {"v": 3})  # evicts b (least recently used)
    assert lookup("b") is None
    assert lookup("a") == {"v": 1}
    assert lookup("c") == {"v": 3}
    report = metrics.store_snapshot(store)
    assert (report["hits"], report["misses"]) == (3, 2)
    assert report["hit_rate"] == pytest.approx(3 / 5)
    assert (report["entries"], report["evictions"]) == (2, 1)


def test_segment_cache_evicts_oldest_entry(monkeypatch):
    kernel = np.eye(4)
    monkeypatch.setattr(segments, "SEGMENT_CACHE_BYTES", 2 * kernel.nbytes)
    cache = segments.SegmentCache()
    for key in ("a", "b", "c"):
        _, claim = cache.acquire(key)
        cache.fulfil(key, claim, ((kernel, (0,), 0),), (), 1)
    assert cache.records.as_dict()["entries"] == 2
    record, claim = cache.acquire("a")
    assert record is None, "oldest entry should have been evicted"
    cache.abandon("a", claim)
    for key in ("b", "c"):
        record, _ = cache.acquire(key)
        assert record is not None


def test_engines_report_their_caches(device_noise, bell):
    from repro.engine import FakeDeviceEngine, NoisyDensityMatrixEngine, StatevectorEngine

    keys = {"capacity", "entries", "size", "evictions"}
    statevector = StatevectorEngine()
    statevector.run(bell)
    report = statevector.cache_report()
    assert set(report) == {"states", "expectations"}
    assert report["states"]["entries"] == 1
    noisy = NoisyDensityMatrixEngine(device_noise, kernel="dense")
    assert set(noisy.cache_report()) == {"results", "snapshots", "expectations", "channels"}
    fake = FakeDeviceEngine("fake_casablanca", kernel="ptm")
    report = fake.cache_report()
    assert set(report) == {
        "transpiled", "results", "snapshots", "expectations", "channels", "segments",
    }
    assert all(set(entry) == keys for entry in report.values())
