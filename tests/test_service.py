"""Unit tests for the profiling service: specs, cache, scheduler.

The full fault matrix lives in ``tests/test_service_chaos.py``; this
file pins the building blocks -- cache-key semantics, crash-safe cache
entries with quarantine accounting, the submit/poll/result/wait client
API, coalescing, serial (workers=0) mode and the strict failure policy.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.analysis.heatmap import DEFAULT_CELL_ROWS
from repro.errors import LaunchDegradedWarning, ReproError
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
from repro.service.jobs import JOB_DEFAULTS

SYRK = {"app": "syrk", "app_kwargs": (("m", 16), ("n", 16))}
SYRK_KW = {"n": 16, "m": 16}


def _spec(app_kwargs=SYRK["app_kwargs"], **settings):
    """A syrk job spec with ``settings`` over the job defaults."""
    return JobSpec("syrk", app_kwargs, replace(JOB_DEFAULTS, **settings))


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
    ])
    def test_every_knob_feeds_the_key(self, field, value):
        # the heat-map binning feeds the key only with a heat map
        extra = {"heatmap": True} if field == "time_buckets" else {}
        base = _spec(**extra)
        changed = _spec(**extra, **{field: value})
        assert base.cache_key("ir", SCHEMA_VERSION) != (
            changed.cache_key("ir", SCHEMA_VERSION)
        )

    def test_default_cell_rows_spelled_out_is_one_key(self):
        unset = _spec(heatmap=True)
        spelled = _spec(heatmap=True, heatmap_cell_rows=DEFAULT_CELL_ROWS)
        assert spelled == unset
        assert spelled.cache_key("ir", SCHEMA_VERSION) == (
            unset.cache_key("ir", SCHEMA_VERSION)
        )
        other = _spec(heatmap=True, heatmap_cell_rows=64)
        assert other.cache_key("ir", SCHEMA_VERSION) != (
            unset.cache_key("ir", SCHEMA_VERSION)
        )

    @pytest.mark.parametrize("field,value", [
        ("time_buckets", 32),
        ("heatmap_cell_rows", 64),
    ])
    def test_heatmap_binning_without_heatmap_shares_the_key(self, field,
                                                             value):
        assert _spec(**{field: value}).cache_key("ir", SCHEMA_VERSION) == (
            _spec().cache_key("ir", SCHEMA_VERSION)
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

    def test_removed_parallel_workers_hint_rejected(self):
        # launches no longer shard across workers: the pool's workers
        # are the only process parallelism a job gets
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="parallel_workers"):
                svc.submit("syrk", {"parallel_workers": 2})

    def test_unknown_backend_rejected(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="warp-drive"):
                svc.submit("syrk", {"backend": "warp-drive"})

    def test_retired_batched_spelling_is_the_interpreter(self, tmp_path):
        # "batched" names the removed backend: a job that still spells
        # it runs on the interpreter, under the interpreter's key, and
        # gets the interpreter's payload byte for byte.
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            cold = svc.submit("syrk", {"backend": "interpreter"},
                              app_kwargs=SYRK_KW)
            cold_payload = cold.result().payload
        assert run_job(_spec(backend="batched"))["payload"] == cold_payload
        # the device default and both spellings are one spec
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            for config in ({"backend": "batched"}, {}):
                warm = svc.submit("syrk", config, app_kwargs=SYRK_KW)
                assert warm.key == cold.key
                assert warm.result().source == CACHE_HIT
                assert warm.result().payload == cold_payload

    def test_default_cell_rows_spelled_out_hits_the_cache(self, tmp_path):
        config = {"modes": ("memory",), "heatmap": True}
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            cold = svc.submit("syrk", config, app_kwargs=SYRK_KW)
            cold_payload = cold.result().payload
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            warm = svc.submit(
                "syrk", {**config, "heatmap_cell_rows": DEFAULT_CELL_ROWS},
                app_kwargs=SYRK_KW,
            )
            assert warm.key == cold.key
            assert warm.result().source == CACHE_HIT
            assert warm.result().payload == cold_payload

    def test_heatmap_binning_without_heatmap_shares_one_entry(self,
                                                              tmp_path):
        # without a heat map the binning shapes nothing: the variants
        # share the default spec's key, so they coalesce or hit the cache
        with ProfilingService(workers=0, cache_dir=str(tmp_path)) as svc:
            first = svc.submit("syrk", {}, app_kwargs=SYRK_KW)
            for config in ({"time_buckets": 32}, {"heatmap_cell_rows": 64}):
                other = svc.submit("syrk", config, app_kwargs=SYRK_KW)
                assert other.key == first.key
                assert other.result().source in (CACHE_HIT, COALESCED)
                assert other.result().payload == first.result().payload
            assert svc.counters["jobs_executed"] == 1
        # ... and a run of such a variant returns the same bytes
        assert run_job(_spec(time_buckets=32, heatmap_cell_rows=64))[
            "payload"] == first.result().payload

    def test_heatmap_needs_memory_mode(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="memory"):
                svc.submit("syrk", {"modes": ("blocks",), "heatmap": True})

    @pytest.mark.parametrize("field,config", [
        ("arch", {"arch": "volta"}),
        ("sample_rate", {"sample_rate": 0}),
        ("modes", {"modes": ("bogus",)}),
        ("heatmap", {"modes": ("blocks",), "heatmap": True}),
        ("heatmap_cell_rows", {"heatmap_cell_rows": 0}),
        ("time_buckets", {"time_buckets": 0}),
        ("backend", {"backend": "warp-drive"}),
        ("failure_policy", {"failure_policy": "bogus"}),
    ])
    def test_malformed_job_rejected_at_submit(self, field, config):
        # rejected before it gets a job id: nothing is dispatched, so
        # nothing fails in a worker and nothing degrades
        import warnings

        with ProfilingService(workers=1) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LaunchDegradedWarning)
                with pytest.raises(ServiceError) as info:
                    svc.submit("syrk", config, app_kwargs=SYRK_KW)
            assert info.value.__cause__.field == field
            if field == "failure_policy":  # the service's, not a job's
                assert "unknown submit() config keys" in str(info.value)
            assert svc.handles == {}
            assert svc.counters["submitted"] == 0
            assert svc.counters["dispatched"] == 0

    def test_unknown_app_rejected_at_submit(self):
        with ProfilingService(workers=0) as svc:
            with pytest.raises(ServiceError, match="no_such_app"):
                svc.submit("no_such_app")

    def test_service_error_is_repro_error(self):
        assert issubclass(ServiceError, ReproError)


# -- shutdown ----------------------------------------------------------------


class TestShutdown:
    def test_close_kills_a_busy_worker_at_once(self):
        # the idle worker is asked to exit; the busy one is not waited on
        import multiprocessing
        import signal
        import time

        svc = ProfilingService(workers=2)
        try:
            handle = svc.submit("lavaMD")
            assert svc.poll(handle) == "running"
            processes = {w.job is None: w.child.process
                         for w in svc.pool.workers.values()}
        finally:
            start = time.monotonic()
            svc.close()
            elapsed = time.monotonic() - start
        assert elapsed < 1.0
        assert multiprocessing.active_children() == []
        assert processes[True].exitcode == 0  # idle: an orderly exit
        assert processes[False].exitcode == -signal.SIGKILL


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
