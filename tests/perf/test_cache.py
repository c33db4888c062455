"""ScheduleCache unit behaviour: layers, counters, atomicity, metrics."""

from __future__ import annotations

import os
import pickle
from unittest import mock

from repro.arch.library import mesh_composition
from repro.context.generator import generate_contexts
from repro.kernels import gcd
from repro.obs import observe
from repro.perf.cache import ScheduleCache, shared_cache
from repro.perf.fingerprint import program_digest
from repro.sched.scheduler import schedule_kernel


def _kc():
    return gcd.build_kernel(), mesh_composition(4)


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = ScheduleCache()
        kernel, comp = _kc()
        calls = []
        payload, hit = cache.get_or_compute(
            kernel, comp, lambda: calls.append(1) or "program"
        )
        assert (payload, hit) == ("program", False)
        payload, hit = cache.get_or_compute(
            kernel, comp, lambda: calls.append(1) or "other"
        )
        assert (payload, hit) == ("program", True)
        assert calls == [1]
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "evictions": 0,
            "corrupt": 0,
        }

    def test_clear_drops_entries_not_counters(self):
        cache = ScheduleCache()
        kernel, comp = _kc()
        cache.get_or_compute(kernel, comp, lambda: "p")
        cache.clear()
        assert cache.stats()["entries"] == 0
        _, hit = cache.get_or_compute(kernel, comp, lambda: "p")
        assert not hit


    def test_program_digest_is_kept_per_entry(self):
        cache = ScheduleCache()
        kernel, comp = _kc()
        program = generate_contexts(schedule_kernel(kernel, comp), comp, kernel)
        calls = []

        def digest(p):
            calls.append(p)
            return program_digest(p)

        with mock.patch("repro.perf.cache.program_digest", digest):
            for want_hit in (False, True, True):
                got, hit, fp = cache.get_or_compute_program(
                    kernel, comp, lambda: program
                )
                assert (got, hit) == (program, want_hit)
                assert fp == program_digest(program)
            assert calls == [program]
            cache.clear()
            cache.get_or_compute_program(kernel, comp, lambda: program)
            assert len(calls) == 2


class TestDiskLayer:
    def test_entries_survive_instances(self, tmp_path):
        kernel, comp = _kc()
        ScheduleCache(str(tmp_path)).get_or_compute(
            kernel, comp, lambda: {"big": list(range(10))}
        )
        assert [f for f in os.listdir(tmp_path) if f.endswith(".pkl")]
        fresh = ScheduleCache(str(tmp_path))
        payload, hit = fresh.get_or_compute(
            kernel, comp, lambda: (_ for _ in ()).throw(AssertionError)
        )
        assert hit and payload == {"big": list(range(10))}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        kernel, comp = _kc()
        cache = ScheduleCache(str(tmp_path))
        key = cache.key_for(kernel, comp)
        cache.put(key, "good")
        path = os.path.join(str(tmp_path), f"{key}.pkl")
        with open(path, "wb") as fh:
            fh.write(b"\x80\x04 torn write")
        fresh = ScheduleCache(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.stats()["misses"] == 1

    def test_no_tmp_litter_after_put(self, tmp_path):
        kernel, comp = _kc()
        cache = ScheduleCache(str(tmp_path))
        cache.put(cache.key_for(kernel, comp), "payload")
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]

    def test_disk_payload_is_checksummed_pickle(self, tmp_path):
        import hashlib

        kernel, comp = _kc()
        cache = ScheduleCache(str(tmp_path))
        key = cache.key_for(kernel, comp)
        cache.put(key, ["payload"])
        with open(os.path.join(str(tmp_path), f"{key}.pkl"), "rb") as fh:
            blob = fh.read()
        # RSC1 magic + sha256(body) header, then the plain pickle body
        assert blob[:4] == b"RSC1"
        digest, body = blob[4:36], blob[36:]
        assert digest == hashlib.sha256(body).digest()
        assert pickle.loads(body) == ["payload"]


class TestLRUEviction:
    def _put_sized(self, cache, key, n):
        cache.put(key, list(range(n)))

    def test_oldest_entries_evicted_past_budget(self, tmp_path):
        cache = ScheduleCache(str(tmp_path), max_bytes=1)
        # every put exceeds a 1-byte budget: only the newest (protected)
        # entry may survive each round
        for i in range(3):
            self._put_sized(cache, f"key-{i}", 64)
        entries = [f for f in os.listdir(tmp_path) if f.endswith(".pkl")]
        assert entries == ["key-2.pkl"]
        assert cache.evictions == 2
        assert cache.stats()["evictions"] == 2

    def test_budget_large_enough_evicts_nothing(self, tmp_path):
        cache = ScheduleCache(str(tmp_path), max_bytes=1 << 20)
        for i in range(4):
            self._put_sized(cache, f"key-{i}", 64)
        assert len(os.listdir(tmp_path)) == 4
        assert cache.evictions == 0
        assert cache.stats()["disk_bytes"] == cache.disk_bytes()

    def test_get_refreshes_recency(self, tmp_path):
        import time

        cache = ScheduleCache(str(tmp_path), max_bytes=None)
        for i in range(3):
            self._put_sized(cache, f"key-{i}", 32)
            time.sleep(0.01)
        # touch the oldest through a disk read (dropping the memory
        # layer first so the read really hits disk and utimes the file)
        cache.clear()
        assert cache.get("key-0") is not None
        entry_size = os.path.getsize(
            os.path.join(str(tmp_path), "key-0.pkl")
        )
        # room for two entries: the just-written key-3 is protected,
        # and the freshly-read key-0 must outlive the stale key-1/key-2
        cache.max_bytes = 2 * entry_size
        cache.put("key-3", list(range(32)))
        survivors = sorted(
            f for f in os.listdir(tmp_path) if f.endswith(".pkl")
        )
        assert survivors == ["key-0.pkl", "key-3.pkl"]

    def test_eviction_metric_reaches_obs(self, tmp_path):
        with observe() as session:
            cache = ScheduleCache(str(tmp_path), max_bytes=1)
            for i in range(2):
                self._put_sized(cache, f"key-{i}", 64)
        counters = session.metrics.snapshot()["counters"]
        assert counters["perf.cache.evict"] == 1

    def test_shared_cache_updates_budget(self, tmp_path):
        a = shared_cache(str(tmp_path))
        assert a.max_bytes is None
        b = shared_cache(str(tmp_path), max_bytes=123)
        assert b is a and a.max_bytes == 123


class TestSharedRegistry:
    def test_same_dir_same_instance(self, tmp_path):
        a = shared_cache(str(tmp_path))
        b = shared_cache(str(tmp_path))
        assert a is b
        assert shared_cache(None) is shared_cache(None)
        assert shared_cache(None) is not a


class TestMetricsMirror:
    def test_hit_miss_counters_reach_obs(self):
        kernel, comp = _kc()
        with observe() as session:
            cache = ScheduleCache()
            cache.get_or_compute(kernel, comp, lambda: "p")
            cache.get_or_compute(kernel, comp, lambda: "p")
        snap = session.metrics.snapshot()
        counters = snap["counters"]
        assert counters["perf.cache.misses"] == 1
        assert counters["perf.cache.hits"] == 1
