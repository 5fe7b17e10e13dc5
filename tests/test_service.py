"""Unit tests for the profiling service: specs, cache, scheduler.

The full fault matrix lives in ``tests/test_service_chaos.py``; this
file pins the building blocks -- cache-key semantics, crash-safe cache
entries with quarantine accounting, the submit/poll/result/wait client
API, coalescing, serial (workers=0) mode and the strict failure policy.
"""

import json
import os

import pytest

from repro.errors import ReproError
from repro.export import SCHEMA_VERSION, export_json
from repro.reliability import FaultInjector
from repro.service import (
    CACHE_HIT,
    COALESCED,
    FRESH,
    JobSpec,
    ProfilingService,
    ResultCache,
    ServiceError,
    run_job,
)

SYRK = {"app": "syrk", "app_kwargs": (("m", 16), ("n", 16))}
SYRK_KW = {"n": 16, "m": 16}


# -- cache keys --------------------------------------------------------------


class TestCacheKey:
    def test_stable_for_equal_specs(self):
        a = JobSpec(**SYRK).cache_key("ir", SCHEMA_VERSION)
        b = JobSpec(**SYRK).cache_key("ir", SCHEMA_VERSION)
        assert a == b

    @pytest.mark.parametrize("field,value", [
        ("app_kwargs", (("m", 16), ("n", 32))),
        ("arch", "pascal"),
        ("modes", ("memory",)),
        ("sample_rate", 4),
        ("buffer_capacity", 100),
        ("measure_overhead", True),
        ("heatmap", True),
        ("time_buckets", 32),
        ("columnar", True),
        ("backend", "batched"),
    ])
    def test_every_knob_feeds_the_key(self, field, value):
        base = JobSpec(**SYRK)
        changed = JobSpec(**{**SYRK, field: value})
        assert base.cache_key("ir", SCHEMA_VERSION) != (
            changed.cache_key("ir", SCHEMA_VERSION)
        )

    def test_ir_hash_stable_across_service_instances(self):
        # printed SSA names carry a global counter; the hash must
        # alpha-rename them away or persistent cache keys break
        with ProfilingService(workers=0) as a, \
                ProfilingService(workers=0) as b:
            assert a._module_ir_hash("syrk") == b._module_ir_hash("syrk")
            assert a._module_ir_hash("syrk") != a._module_ir_hash("nn")

    def test_ir_hash_and_schema_version_feed_the_key(self):
        spec = JobSpec(**SYRK)
        assert spec.cache_key("ir1", "1.0") != spec.cache_key("ir2", "1.0")
        assert spec.cache_key("ir1", "1.0") != spec.cache_key("ir1", "2.0")


# -- the crash-safe result cache ---------------------------------------------


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k1", "payload text\n", meta={"app": "syrk"})
        assert cache.get("k1") == "payload text\n"
        assert cache.stats == {
            "hits": 1, "misses": 0, "writes": 1, "quarantined": 0,
            "evictions": 0, "evicted_bytes": 0,
        }

    def test_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("nope") is None
        assert cache.stats["misses"] == 1

    def test_no_temp_residue(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k1", "x" * 10000)
        assert [n for n in os.listdir(tmp_path)
                if n.startswith(".tmp-")] == []

    @pytest.mark.parametrize("mangle", [
        lambda blob: b"junk" + blob[4:],                      # bad magic
        lambda blob: blob[: len(blob) // 2],                  # truncated
        lambda blob: blob[:-3] + b"XYZ",                      # payload flip
        lambda blob: blob.replace(b'"sha256"', b'"sha999"'),  # bad header
    ])
    def test_corruption_quarantined_and_reported_as_miss(
        self, tmp_path, mangle
    ):
        cache = ResultCache(str(tmp_path))
        path = cache.put("k1", "good payload\n")
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(mangle(blob))
        assert cache.get("k1") is None
        # quarantined with accounting; the entry is gone from the cache
        assert cache.stats["quarantined"] == 1
        assert cache.quarantine_log[0]["key"] == "k1"
        assert os.path.exists(
            os.path.join(cache.quarantine_dir(), "k1.entry")
        )
        assert not os.path.exists(path)
        # a re-publish transparently heals the entry
        cache.put("k1", "good payload\n")
        assert cache.get("k1") == "good payload\n"

    def test_wrong_key_in_entry_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        src = cache.put("k1", "payload\n")
        os.replace(src, cache.entry_path("k2"))
        assert cache.get("k2") is None
        assert cache.stats["quarantined"] == 1

    def test_injected_corruption(self, tmp_path):
        injector = FaultInjector().inject("cache_corrupt_entry",
                                          when={"key": "k1"})
        cache = ResultCache(str(tmp_path), injector=injector)
        cache.put("k1", "payload\n")
        assert cache.get("k1") is None
        assert cache.stats["quarantined"] == 1


class TestResultCacheLRU:
    """Size-budgeted eviction: mtime is the recency clock."""

    PAYLOAD = "x" * 256

    def _entry_size(self, tmp_path):
        # All keys are the same length, so every entry is this size.
        probe = ResultCache(str(tmp_path / "probe"))
        return os.path.getsize(probe.put("k0", self.PAYLOAD))

    def test_oldest_evicted_once_over_budget(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), max_bytes=2 * size)
        for age, key in enumerate(["k1", "k2"]):
            cache.put(key, self.PAYLOAD)
            os.utime(cache.entry_path(key), (100.0 + age, 100.0 + age))
        assert cache.stats["evictions"] == 0
        cache.put("k3", self.PAYLOAD)  # over budget: k1 is LRU
        assert not os.path.exists(cache.entry_path("k1"))
        assert cache.get("k2") == self.PAYLOAD
        assert cache.get("k3") == self.PAYLOAD  # the fresh put survives
        assert cache.stats["evictions"] == 1
        assert cache.stats["evicted_bytes"] == size

    def test_hit_bumps_recency(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), max_bytes=2 * size)
        for age, key in enumerate(["k1", "k2"]):
            cache.put(key, self.PAYLOAD)
            os.utime(cache.entry_path(key), (100.0 + age, 100.0 + age))
        assert cache.get("k1") == self.PAYLOAD  # a hit is a "use"
        cache.put("k3", self.PAYLOAD)
        # k2, not k1, is now the least recently used entry
        assert not os.path.exists(cache.entry_path("k2"))
        assert cache.get("k1") == self.PAYLOAD

    def test_budget_accounting_survives_restart(self, tmp_path):
        size = self._entry_size(tmp_path)
        first = ResultCache(str(tmp_path / "c"), max_bytes=2 * size)
        for age, key in enumerate(["k1", "k2"]):
            first.put(key, self.PAYLOAD)
            os.utime(first.entry_path(key), (100.0 + age, 100.0 + age))
        # A fresh process seeds sizes and order from the directory.
        cache = ResultCache(str(tmp_path / "c"), max_bytes=2 * size)
        cache.put("k3", self.PAYLOAD)
        assert not os.path.exists(cache.entry_path("k1"))
        assert cache.get("k2") == self.PAYLOAD
        assert cache.get("k3") == self.PAYLOAD
        assert cache.stats["evictions"] == 1

    def test_quarantine_releases_budget(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), max_bytes=2 * size)
        path = cache.put("k1", self.PAYLOAD)
        with open(path, "r+b") as f:
            f.write(b"junk")
        assert cache.get("k1") is None  # quarantined: off-budget now
        cache.put("k2", self.PAYLOAD)
        cache.put("k3", self.PAYLOAD)
        assert cache.stats["evictions"] == 0  # both fit again


# -- the client API ----------------------------------------------------------


class TestServiceAPI:
    def test_submit_poll_result(self, tmp_path):
        with ProfilingService(workers=1, cache_dir=str(tmp_path)) as svc:
            handle = svc.submit("syrk", app_kwargs=SYRK_KW)
            assert handle.state in ("queued", "running")
            result = handle.result(timeout=120)
            assert handle.poll() == "done"
            assert result.source == FRESH
            doc = json.loads(result.payload)
            assert doc["schema_version"] == SCHEMA_VERSION
            assert doc["program"] == "syrk"

    def test_status_stream_is_ordered(self, tmp_path):
        with ProfilingService(workers=1) as svc:
            handle = svc.submit("syrk", app_kwargs=SYRK_KW)
            states = [e.state for e in svc.stream(handle)]
        assert states[0] == "submitted"
        assert states[-1] == "done"
        assert [e.seq for e in handle.events] == list(range(len(states)))

    def test_result_matches_direct_run_job(self, tmp_path):
        direct = run_job(JobSpec(**SYRK))
        with ProfilingService(workers=1) as svc:
            pooled = svc.submit("syrk", app_kwargs=SYRK_KW).result(
                timeout=120
            )
        assert pooled.payload == direct["payload"]
        assert pooled.launches == direct["launches"]

    def test_serial_mode_workers_zero(self):
        with ProfilingService(workers=0) as svc:
            result = svc.submit("syrk", app_kwargs=SYRK_KW).result(
                timeout=120
            )
            assert result.source == FRESH  # serial by configuration,
            assert result.reasons == []    # not by degradation

    def test_coalescing_identical_inflight_submits(self):
        with ProfilingService(workers=1) as svc:
            first = svc.submit("syrk", app_kwargs=SYRK_KW)
            second = svc.submit("syrk", app_kwargs=SYRK_KW)
            svc.wait(timeout=120)
            assert first.result().source == FRESH
            assert second.result().source == COALESCED
            assert second.result().payload == first.result().payload
            assert svc.counters["jobs_executed"] == 1

    def test_unknown_config_key_rejected(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="unknown submit"):
                svc.submit("syrk", {"colour": "red"})

    @pytest.mark.parametrize("hint", [
        "spill_dir", "spill_rows", "streaming_drain", "fused_drain",
        "drain_workers",
    ])
    def test_removed_drain_hints_rejected(self, hint):
        # jobs always analyze in flight: there is no drain to pick
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match=hint):
                svc.submit("syrk", {hint: 1})

    def test_unknown_backend_rejected(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="warp-drive"):
                svc.submit("syrk", {"backend": "warp-drive"})

    def test_backends_never_share_a_cache_entry(self, tmp_path):
        # A batched export carries a jit_cache section, so the backend
        # is part of the spec: each backend gets its own key, and each
        # cached payload is exactly what a fresh run of that spec
        # produces.
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            handles = {
                backend: svc.submit(
                    "syrk", {"backend": backend}, app_kwargs=SYRK_KW
                )
                for backend in ("interpreter", "batched")
            }
            svc.wait(timeout=120)
        assert handles["interpreter"].key != handles["batched"].key
        assert handles["interpreter"].result().payload != (
            handles["batched"].result().payload
        )
        for backend, handle in handles.items():
            fresh = run_job(JobSpec(**SYRK, backend=backend))
            assert handle.result().payload == fresh["payload"]
        # the device default and an explicit "interpreter" are one spec
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            default = svc.submit("syrk", app_kwargs=SYRK_KW)
            assert default.key == handles["interpreter"].key
            assert default.result().source == CACHE_HIT

    def test_heatmap_needs_memory_mode(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="memory"):
                svc.submit("syrk", {"modes": ("blocks",), "heatmap": True})

    def test_unknown_app_rejected_at_submit(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="no_such_app"):
                svc.submit("no_such_app")

    def test_service_error_is_repro_error(self):
        assert issubclass(ServiceError, ReproError)


# -- cache round-trip: cold -> warm -> corrupt -> re-simulate ----------------


class TestCacheRoundTrip:
    def test_cold_warm_corrupt_resimulate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ProfilingService(workers=1, cache_dir=cache_dir) as svc:
            cold = svc.submit("syrk", app_kwargs=SYRK_KW).result(timeout=120)
            assert cold.source == FRESH
            assert svc.counters["jobs_executed"] == 1

            warm = svc.submit("syrk", app_kwargs=SYRK_KW).result(timeout=120)
            assert warm.source == CACHE_HIT
            assert warm.payload == cold.payload
            assert svc.counters["jobs_executed"] == 1  # no new simulation

            # corrupt the entry on disk; the next submit must quarantine
            # it and transparently re-simulate to identical bytes
            path = svc.cache.entry_path(cold.key)
            with open(path, "r+b") as f:
                f.seek(-8, os.SEEK_END)
                f.write(b"CORRUPT!")
            healed = svc.submit("syrk", app_kwargs=SYRK_KW).result(
                timeout=120
            )
            assert healed.source == FRESH
            assert "cache-entry-corrupt" in healed.reasons
            assert healed.payload == cold.payload
            assert svc.cache.stats["quarantined"] == 1
            assert svc.counters["jobs_executed"] == 2

            # and the healed entry serves hits again
            again = svc.submit("syrk", app_kwargs=SYRK_KW).result(timeout=120)
            assert again.source == CACHE_HIT

    def test_cache_survives_service_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ProfilingService(workers=0, cache_dir=cache_dir) as svc:
            cold = svc.submit("syrk", app_kwargs=SYRK_KW).result(timeout=120)
        with ProfilingService(workers=0, cache_dir=cache_dir) as svc:
            warm = svc.submit("syrk", app_kwargs=SYRK_KW).result(timeout=120)
            assert warm.source == CACHE_HIT
            assert warm.payload == cold.payload
            assert svc.counters["jobs_executed"] == 0

    def test_payload_is_canonical_export_json(self, tmp_path):
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            result = svc.submit("syrk", app_kwargs=SYRK_KW).result(
                timeout=120
            )
        assert result.payload == export_json(json.loads(result.payload))


# -- strict policy -----------------------------------------------------------


class TestStrictPolicy:
    def test_strict_worker_crash_fails_fast(self, tmp_path):
        injector = FaultInjector().inject(
            "service_worker_crash", when={"job": "job-1"}
        )
        with ProfilingService(
            workers=1, failure_policy="strict", injector=injector,
            max_attempts=3,
        ) as svc:
            handle = svc.submit("syrk", app_kwargs=SYRK_KW)
            with pytest.raises(ServiceError, match="job-worker-crash"):
                handle.result(timeout=60)
            assert handle.attempts == 1  # strict never retries
            assert svc.counters["serial_fallbacks"] == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServiceError, match="failure policy"):
            ProfilingService(workers=0, failure_policy="yolo")
