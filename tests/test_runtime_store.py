"""Tests for the content-addressed artifact store."""

import numpy as np
import pytest

from repro.runtime.store import ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(("table", 1), {"rows": np.arange(5)})
        loaded = store.get(("table", 1))
        np.testing.assert_array_equal(loaded["rows"], np.arange(5))
        assert store.hits == 1 and store.puts == 1

    def test_miss_returns_none(self, store):
        assert store.get(("nothing", "here")) is None
        assert store.misses == 1

    def test_contains(self, store):
        assert not store.contains("k")
        store.put("k", 42)
        assert store.contains("k")

    def test_keys_are_structural(self, store):
        store.put({"b": 1, "a": 2}, "artifact")
        assert store.get({"a": 2, "b": 1}) == "artifact"

    def test_persists_across_instances(self, store):
        store.put("shared", [1, 2, 3])
        reopened = ArtifactStore(store.root)
        assert reopened.get("shared") == [1, 2, 3]

    def test_get_or_create_builds_once(self, store):
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert store.get_or_create("key", build) == "value"
        assert store.get_or_create("key", build) == "value"
        assert len(calls) == 1
        assert store.hits == 1 and store.misses == 1


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_removed(self, store):
        store.put("key", "value")
        path = store.path_for("key")
        path.write_bytes(b"not a pickle")
        assert store.get("key") is None
        assert not path.exists()
        # Rebuild works after the corrupt entry was dropped.
        assert store.get_or_create("key", lambda: "fresh") == "fresh"
        assert store.get("key") == "fresh"

    def test_clear(self, store):
        store.put("a", 1)
        store.put("b", 2)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


class TestEviction:
    def test_lru_eviction_bounds_size(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        blob = b"x" * 10_000
        for index in range(5):
            store.put(("blob", index), blob)
        total = store.total_bytes()
        removed = store.evict(total // 2)
        assert removed >= 1
        assert store.total_bytes() <= total // 2
        assert store.evictions == removed

    def test_recently_used_survive(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        # Deterministic recency without sleeping: fake mtimes via touch.
        import os

        for index in range(4):
            path = store.put(("blob", index), b"y" * 1000)
            os.utime(path, (index, index))
        os.utime(store.path_for(("blob", 0)), (100, 100))  # 0 is now hottest
        store.evict(2 * 1000 + 500)
        assert store.contains(("blob", 0))
        assert not store.contains(("blob", 1))

    def test_max_bytes_enforced_on_put(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache", max_bytes=3_000)
        for index in range(10):
            store.put(("blob", index), b"z" * 1000)
        assert store.total_bytes() <= 3_000
        assert store.evictions > 0

    def test_puts_under_the_budget_scan_once(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache", max_bytes=1_000_000)
        scans = []
        entries = ArtifactStore._entries

        def counting(self):
            scans.append(1)
            return entries(self)

        monkeypatch.setattr(ArtifactStore, "_entries", counting)
        for index in range(50):
            store.put(("blob", index), b"w" * 100)
        assert len(scans) == 1
        assert store.evictions == 0 and len(store) == 50

    def test_a_put_that_could_pass_the_budget_rescans(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache", max_bytes=3_000)
        store.put(("blob", 0), b"z" * 1000)
        # Another writer fills the directory behind this instance's back.
        other = ArtifactStore(tmp_path / "cache")
        for index in range(1, 4):
            other.put(("blob", index), b"z" * 1000)
        store.put(("blob", 4), b"z" * 1000)
        assert store.total_bytes() > 3_000  # over by the other's writes only
        store.put(("blob", 5), b"z" * 1000)
        assert store.total_bytes() <= 3_000
