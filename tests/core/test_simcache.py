"""Tests for the versioned similarity cache (Stage 3 hot-path support)."""

import sys
import threading

import pytest

from repro.core.config import FarmerConfig
from repro.core.simcache import SharedSimilarityCache, SimilarityCache
from repro.errors import ConfigError
from repro.vsm.similarity import ipa_similarity
from repro.vsm.vector import SemanticVector


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = SimilarityCache(capacity=8)
        assert cache.lookup(1, 2, 1, 1) is None
        cache.store(1, 2, 1, 1, 0.5)
        assert cache.lookup(1, 2, 1, 1) == 0.5
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_symmetric_key(self):
        """sim is symmetric: (a, b) and (b, a) share one entry."""
        cache = SimilarityCache(capacity=8)
        cache.store(2, 1, ver_a=5, ver_b=3, value=0.25)
        assert cache.lookup(1, 2, ver_a=3, ver_b=5) == 0.25
        assert len(cache) == 1

    def test_version_mismatch_is_stale_miss(self):
        """A bumped endpoint version must never serve the old value."""
        cache = SimilarityCache(capacity=8)
        cache.store(1, 2, 1, 1, 0.9)
        assert cache.lookup(1, 2, 2, 1) is None  # a's vector changed
        assert cache.lookup(1, 2, 1, 2) is None  # b's vector changed
        stats = cache.stats()
        assert stats.stale == 2
        assert stats.misses == 2

    def test_store_overwrites_stale_entry(self):
        cache = SimilarityCache(capacity=8)
        cache.store(1, 2, 1, 1, 0.9)
        cache.store(1, 2, 2, 1, 0.1)
        assert len(cache) == 1
        assert cache.lookup(1, 2, 2, 1) == 0.1
        assert cache.lookup(1, 2, 1, 1) is None


class TestCapacity:
    def test_lru_eviction(self):
        cache = SimilarityCache(capacity=2)
        cache.store(1, 2, 1, 1, 0.1)
        cache.store(1, 3, 1, 1, 0.2)
        assert cache.lookup(1, 2, 1, 1) == 0.1  # refresh (1,2)
        cache.store(1, 4, 1, 1, 0.3)  # evicts (1,3), the LRU entry
        assert cache.lookup(1, 3, 1, 1) is None
        assert cache.lookup(1, 2, 1, 1) == 0.1
        assert cache.lookup(1, 4, 1, 1) == 0.3
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_capacity_zero_disables(self):
        cache = SimilarityCache(capacity=0)
        cache.store(1, 2, 1, 1, 0.5)
        assert len(cache) == 0
        assert cache.lookup(1, 2, 1, 1) is None
        assert cache.stats().hit_rate == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            SimilarityCache(capacity=-1)

    def test_config_knob_rejected_negative(self):
        with pytest.raises(ConfigError):
            FarmerConfig(sim_cache_capacity=-5)


class TestStats:
    def test_hit_rate(self):
        cache = SimilarityCache(capacity=8)
        cache.store(1, 2, 1, 1, 0.5)
        for _ in range(3):
            cache.lookup(1, 2, 1, 1)
        cache.lookup(3, 4, 1, 1)
        stats = cache.stats()
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.size == 1
        assert stats.capacity == 8

    def test_idle_hit_rate_zero(self):
        assert SimilarityCache().stats().hit_rate == 0.0

    def test_clear_keeps_counters(self):
        cache = SimilarityCache(capacity=8)
        cache.store(1, 2, 1, 1, 0.5)
        cache.lookup(1, 2, 1, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_approx_bytes_grows(self):
        cache = SimilarityCache(capacity=64)
        empty = cache.approx_bytes()
        for i in range(10):
            cache.store(0, i + 1, 1, 1, 0.5)
        assert cache.approx_bytes() > empty


class TestSharedRowConsult:
    def test_shared_cache_concurrent_row_consults(self):
        """Four threads consulting overlapping rows of one shared cache:
        no exception, every probe counted once, size within capacity
        and every value exact."""
        vectors = {
            i: SemanticVector((i % 5, 20 + i % 3), (1, i % 4, 7)) for i in range(24)
        }
        cache = SharedSimilarityCache(capacity=40)
        n_threads, rounds = 4, 1000
        start = threading.Barrier(n_threads)
        probes = [0] * n_threads
        errors: list[Exception] = []

        def worker(t: int) -> None:
            try:
                start.wait(timeout=30)
                for r in range(rounds):
                    a = (t + r) % 24
                    # versions cycle so entries go stale under other threads
                    row = [
                        (b, 1 + (r + b) % 3, vectors[b])
                        for b in range(24)
                        if b != a and (b + r) % 3 != t % 3
                    ]
                    values = cache.consult_row(a, 1 + r % 2, vectors[a], row)
                    probes[t] += len(row)
                    for (_b, _ver_b, vb), value in zip(row, values):
                        assert value == ipa_similarity(vectors[a], vb)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(probes)
        assert stats.hits > 0 and stats.stale > 0
        assert len(cache) <= cache.capacity
