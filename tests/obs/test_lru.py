"""LRUCache unit tests: eviction discipline, the capacity-0 kill
switch, stats accounting, metric publication, and single-flight
loading under concurrency."""

import threading

import pytest

from repro.obs import LRUCache, MetricsRegistry


class TestBasics:
    def test_get_put_hit_miss(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "size": 1, "capacity": 4}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_contains_and_keys_do_not_touch_stats(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert cache.keys() == {"a"}
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_copy_snapshot(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        snapshot = cache.copy()
        assert snapshot == {"a": 1, "b": 2}
        cache.put("c", 3)
        assert "c" not in snapshot

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestEviction:
    def test_least_recently_used_goes_first(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        assert cache.keys() == {"b", "c"}
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")     # a is now most recent
        cache.put("c", 3)  # evicts b, not a
        assert cache.keys() == {"a", "c"}

    def test_put_refreshes_recency_and_updates(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)  # evicts b
        assert cache.copy() == {"a": 10, "c": 3}

    def test_eviction_counter_published(self):
        registry = MetricsRegistry()
        cache = LRUCache(1, registry=registry, prefix="test.cache")
        cache.put("a", 1)
        cache.put("b", 2)
        counters = registry.snapshot()["counters"]
        assert counters["test.cache.evictions"] == 1


class TestCapacityZero:
    def test_nothing_is_stored(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats()["misses"] == 1

    def test_get_or_load_always_loads(self):
        cache = LRUCache(0)
        calls = []
        for _ in range(3):
            assert cache.get_or_load("k", lambda: calls.append(1) or 42) \
                == 42
        assert len(calls) == 3
        assert cache.stats() == {"hits": 0, "misses": 3, "evictions": 0,
                                 "size": 0, "capacity": 0}


class TestGetOrLoad:
    def test_loads_once_then_hits(self):
        cache = LRUCache(4)
        calls = []

        def loader():
            calls.append(1)
            return "value"

        assert cache.get_or_load("k", loader) == "value"
        assert cache.get_or_load("k", loader) == "value"
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_loader_exception_propagates_and_allows_retry(self):
        cache = LRUCache(4)
        attempts = []

        def failing():
            attempts.append(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_load("k", failing)
        # The failed flight is cleaned up: a retry loads again.
        assert cache.get_or_load("k", lambda: "ok") == "ok"
        assert len(attempts) == 1

    def test_single_flight_under_concurrency(self):
        cache = LRUCache(4)
        release = threading.Event()
        load_count = [0]
        results = []

        def slow_loader():
            load_count[0] += 1
            release.wait(timeout=5)
            return "loaded"

        def work():
            results.append(cache.get_or_load("k", slow_loader))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join()
        assert results == ["loaded"] * 8
        assert load_count[0] == 1
        stats = cache.stats()
        # Exactly one miss (the owner); every waiter and later caller
        # is a hit — no lost updates.
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_concurrent_distinct_keys_do_not_serialize_results(self):
        cache = LRUCache(16)
        barrier = threading.Barrier(8)
        results = {}

        def work(index: int):
            barrier.wait()
            results[index] = cache.get_or_load(index, lambda: index * 10)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {i: i * 10 for i in range(8)}
        assert cache.stats()["misses"] == 8


class TestRevalidation:
    def test_valid_entry_is_a_hit(self):
        cache = LRUCache(4, stale_label="stale")
        cache.get_or_load("k", lambda: "v1")
        checked = []

        def valid(value):
            checked.append(value)
            return True

        assert cache.get_or_load("k", lambda: "v2", valid=valid) == "v1"
        assert checked == ["v1"]
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "size": 1, "capacity": 4, "stale": 0}

    def test_stale_entry_reloads_as_a_miss(self):
        registry = MetricsRegistry()
        cache = LRUCache(4, registry=registry, prefix="test.cache",
                         stale_label="replans")
        cache.get_or_load("k", lambda: "v1")
        assert cache.get_or_load("k", lambda: "v2",
                                 valid=lambda value: False) == "v2"
        assert cache.copy() == {"k": "v2"}
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["replans"]) == (0, 2, 1)
        counters = registry.snapshot()["counters"]
        assert counters["test.cache.replans"] == 1
        assert counters["test.cache.misses"] == 2

    def test_freshly_loaded_value_is_not_revalidated(self):
        cache = LRUCache(4)
        calls = []
        value = cache.get_or_load("k", lambda: "v",
                                  valid=lambda v: calls.append(v) or True)
        assert value == "v"
        assert calls == []

    def test_without_label_stats_shape_is_unchanged(self):
        cache = LRUCache(4)
        cache.get_or_load("k", lambda: 1)
        cache.get_or_load("k", lambda: 2, valid=lambda value: False)
        assert cache.stats() == {"hits": 0, "misses": 2, "evictions": 0,
                                 "size": 1, "capacity": 4}

    def test_concurrent_stale_hits_reload_once(self):
        cache = LRUCache(4, stale_label="stale")
        cache.get_or_load("k", lambda: "old")
        release = threading.Event()
        barrier = threading.Barrier(8)
        load_count = [0]
        results = []

        def slow_loader():
            load_count[0] += 1
            release.wait(timeout=5)
            return "new"

        def work():
            barrier.wait()
            results.append(cache.get_or_load(
                "k", slow_loader, valid=lambda value: value != "old"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let every thread reach the stale entry or the flight first.
        for _ in range(200):
            if load_count[0]:
                break
            threading.Event().wait(0.005)
        release.set()
        for thread in threads:
            thread.join()
        assert results == ["new"] * 8
        assert load_count[0] == 1
        stats = cache.stats()
        assert stats["stale"] == 1
        assert stats["misses"] == 2  # the first load and the reload
        assert stats["hits"] == 7
