"""Chaos suite for the profiling service.

The contract under test (ISSUE: fault-tolerant profiling service): a
service under injected worker crashes, job hangs, cache corruption and
worker loss during a submit storm still completes every job, and every
report it hands back -- fresh, retried, degraded-serial or cache-hit --
is **byte-identical** to a clean serial run of the same spec.  The
headline test drives all four fault classes through one scripted
session; the smaller tests pin each rung of the failure ladder.
"""

import time
from dataclasses import replace

import pytest

from repro.errors import LaunchDegradedWarning
from repro.profiler import ProfilingSession
from repro.reliability import FaultInjector
from repro.service import (
    CACHE_HIT,
    DEGRADED_SERIAL,
    FRESH,
    RETRIED,
    JobSpec,
    ProfilingService,
    run_job,
)
from repro.service import worker
from repro.service.jobs import JOB_DEFAULTS

SYRK = ("syrk", {"n": 16, "m": 16}, {})


def _spec(app, app_kwargs, config):
    return JobSpec(
        app, tuple(sorted(app_kwargs.items())),
        replace(JOB_DEFAULTS, **config),
    )


def _baseline(app, app_kwargs, config):
    """The clean serial reference: run_job directly, no pool, no cache."""
    return run_job(_spec(app, app_kwargs, config))["payload"]


# -- single-fault rungs of the ladder ----------------------------------------


class TestFaultLadder:
    def test_worker_crash_retried_byte_identical(self):
        injector = FaultInjector(seed=7).inject(
            "service_worker_crash", when={"job": "job-1", "attempt": 0}
        )
        with ProfilingService(workers=1, injector=injector,
                              backoff=0.01) as svc:
            result = svc.submit(*SYRK[:1], app_kwargs=SYRK[1]).result(
                timeout=120
            )
        assert result.source == RETRIED
        assert result.attempts == 2
        assert result.reasons == ["job-worker-crash"]
        assert svc.counters["worker_crashes"] == 1
        assert svc.counters["retries"] == 1
        assert result.payload == _baseline(*SYRK)

    def test_job_hang_reaped_and_retried(self):
        injector = FaultInjector(seed=7).inject(
            "service_job_hang", when={"job": "job-1", "attempt": 0}
        )
        with ProfilingService(workers=1, injector=injector,
                              job_timeout=1.0, backoff=0.01) as svc:
            result = svc.submit(*SYRK[:1], app_kwargs=SYRK[1]).result(
                timeout=120
            )
        assert result.source == RETRIED
        assert result.reasons == ["job-timeout"]
        assert svc.counters["job_timeouts"] == 1
        assert result.payload == _baseline(*SYRK)

    def test_job_wedged_inside_run_job_reaped_and_retried(
        self, tmp_path, monkeypatch
    ):
        # The deadline counts from dispatch, so a job that stops making
        # progress inside run_job itself is reaped like an injected hang.
        marker = tmp_path / "wedged"
        run = worker.run_job

        def wedge_first_attempt(spec):
            if not marker.exists():
                marker.touch()
                while True:
                    time.sleep(3600)
            return run(spec)

        monkeypatch.setattr(worker, "run_job", wedge_first_attempt)
        with ProfilingService(workers=1, job_timeout=2.0,
                              backoff=0.01) as svc:
            result = svc.submit(*SYRK[:1], app_kwargs=SYRK[1]).result(
                timeout=30
            )
        assert marker.exists()
        assert result.source == RETRIED
        assert result.reasons == ["job-timeout"]
        assert svc.counters["job_timeouts"] == 1
        assert result.payload == _baseline(*SYRK)

    def test_unrecoverable_crash_degrades_to_serial(self):
        # the worker crashes on *every* attempt: retries exhaust, the
        # pool burns its respawn budget, the job re-runs in-process
        injector = FaultInjector(seed=7).inject(
            "service_worker_crash", when={"job": "job-1"}
        )
        with ProfilingService(workers=1, injector=injector,
                              max_attempts=3, backoff=0.01) as svc:
            handle = svc.submit(*SYRK[:1], app_kwargs=SYRK[1])
            with pytest.warns(LaunchDegradedWarning):
                result = handle.result(timeout=120)
        assert result.source == DEGRADED_SERIAL
        assert result.attempts == 4  # 3 pool attempts + 1 serial
        assert "job-worker-crash" in result.reasons
        assert "job-serial-fallback" in result.reasons
        assert svc.counters["serial_fallbacks"] == 1
        assert result.payload == _baseline(*SYRK)

    def test_pool_loss_at_submit_self_heals(self):
        injector = FaultInjector(seed=7).inject(
            "service_pool_loss", when={"job": "job-1"}
        )
        with ProfilingService(workers=2, injector=injector,
                              backoff=0.01) as svc:
            result = svc.submit(*SYRK[:1], app_kwargs=SYRK[1]).result(
                timeout=120
            )
            assert len(svc.pool.workers) == 2  # respawned back to size
        assert result.payload == _baseline(*SYRK)
        assert svc.counters["respawns"] >= 1


# -- the headline scripted chaos session -------------------------------------

#: >= 8 jobs across >= 3 apps; distinct specs so nothing coalesces.
CHAOS_JOBS = [
    ("syrk", {"n": 16, "m": 16}, {}),
    ("syrk", {"n": 16, "m": 16}, {"modes": ("memory",)}),
    ("syrk", {"n": 24, "m": 16}, {}),
    ("hotspot", {"n": 32, "steps": 2}, {}),
    ("hotspot", {"n": 32, "steps": 2}, {"sample_rate": 2}),
    ("hotspot", {"n": 32, "steps": 2}, {"heatmap": True}),
    ("bicg", {"nx": 32, "ny": 32}, {}),
    ("bicg", {"nx": 32, "ny": 32}, {"heatmap": True, "time_buckets": 32}),
    ("bicg", {"nx": 32, "ny": 32}, {"buffer_capacity": 100}),
]


class TestChaosSession:
    def test_every_fault_class_yields_clean_bytes(self, tmp_path):
        baselines = [_baseline(*job) for job in CHAOS_JOBS]
        injector = (
            FaultInjector(seed=11)
            # a worker dies holding job-2's first attempt
            .inject("service_worker_crash",
                    when={"job": "job-2", "attempt": 0})
            # a worker wedges on job-5's first attempt (never answers)
            .inject("service_job_hang",
                    when={"job": "job-5", "attempt": 0})
            # a live worker is killed as job-7 lands (submit storm
            # during worker loss)
            .inject("service_pool_loss", when={"job": "job-7"})
            # one bicg cache entry is corrupted right after publication
            .inject("cache_corrupt_entry", when={"app": "bicg"}, count=1)
        )
        with ProfilingService(
            workers=2, cache_dir=str(tmp_path / "cache"),
            injector=injector, job_timeout=3.0, backoff=0.01,
        ) as svc:
            handles = [
                svc.submit(app, config, app_kwargs=kwargs)
                for app, kwargs, config in CHAOS_JOBS
            ]
            # nine keys: no job coalesces onto another
            assert len({h.key for h in handles}) == len(CHAOS_JOBS)
            svc.wait(timeout=300)

            # every job completed; none failed
            results = [h.result() for h in handles]
            assert [h.state for h in handles] == ["done"] * len(handles)

            # ... and every payload matches its clean serial baseline
            for result, payload in zip(results, baselines):
                assert result.payload == payload

            # the injected faults actually happened and were absorbed
            crashed = next(r for h, r in zip(handles, results)
                           if h.id == "job-2")
            assert "job-worker-crash" in crashed.reasons
            hung = next(r for h, r in zip(handles, results)
                        if h.id == "job-5")
            assert "job-timeout" in hung.reasons
            assert svc.counters["job_timeouts"] >= 1
            assert svc.counters["worker_crashes"] >= 1
            assert svc.counters["respawns"] >= 1

            # the corrupted cache entry: find which key the injector
            # hit, resubmit that exact spec -- the service quarantines
            # the entry and transparently re-simulates to clean bytes
            fired = [ctx for point, ctx in injector.log
                     if point == "cache_corrupt_entry"]
            assert len(fired) == 1
            bad_key = fired[0]["key"]
            idx = next(i for i, h in enumerate(handles)
                       if h.key == bad_key)
            app, kwargs, config = CHAOS_JOBS[idx]
            healed = svc.submit(app, config, app_kwargs=kwargs).result(
                timeout=120
            )
            assert healed.source == FRESH
            assert "cache-entry-corrupt" in healed.reasons
            assert healed.payload == baselines[idx]
            assert svc.cache.stats["quarantined"] == 1

            # every *other* report is now a byte-identical cache hit
            for (app, kwargs, config), payload in zip(
                CHAOS_JOBS, baselines
            ):
                hit = svc.submit(app, config, app_kwargs=kwargs).result(
                    timeout=120
                )
                assert hit.source == CACHE_HIT
                assert hit.payload == payload


# -- warm-cache speedup + zero-work assertion --------------------------------


class TestWarmCache:
    def test_warm_resubmission_10x_faster_and_zero_work(self, tmp_path,
                                                        monkeypatch):
        with ProfilingService(workers=1,
                              cache_dir=str(tmp_path / "cache")) as svc:
            t0 = time.perf_counter()
            cold = svc.submit(*SYRK[:1], app_kwargs=SYRK[1]).result(
                timeout=120
            )
            cold_elapsed = time.perf_counter() - t0
            assert cold.source == FRESH

            executed = svc.counters["jobs_executed"]
            dispatched = svc.counters["dispatched"]
            sessions = []
            init = ProfilingSession.__init__

            def spy(session, *args, **kwargs):
                sessions.append(session)
                init(session, *args, **kwargs)

            monkeypatch.setattr(ProfilingSession, "__init__", spy)

            t0 = time.perf_counter()
            warm = svc.submit(*SYRK[:1], app_kwargs=SYRK[1]).result(
                timeout=120
            )
            warm_elapsed = time.perf_counter() - t0

            assert warm.source == CACHE_HIT
            assert warm.payload == cold.payload
            assert warm_elapsed * 10 <= cold_elapsed
            # zero simulation work in this process or any worker:
            # nothing dispatched, nothing executed, no profiling
            # session constructed
            assert svc.counters["jobs_executed"] == executed
            assert svc.counters["dispatched"] == dispatched
            assert sessions == []
