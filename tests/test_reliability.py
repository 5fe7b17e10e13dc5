"""Chaos suite for the launch-reliability layer.

A launch has no fallback: a pc-sampled launch runs as requested and
warns nothing (the one failure policy is the service's job-scope
ladder, pinned by ``tests/test_service_chaos.py``). The
fault-injection framework drives buffer overflow through real
instrumented launches: a launch flushing many times mid-launch keeps
records identical to a clean run. Where fork is
missing, the advisor's overhead baseline runs in-process instead of in
a child beside the instrumented run, with the same export.
"""

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.errors import LaunchDegradedWarning
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.export import export_json, profile_export
from repro.forked import ForkedChild
from repro.host import CudaRuntime
from repro.optim import CUDAAdvisor
from repro.optim import advisor as advisor_mod
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import ProfilingSession
from repro.profiler.pc_sampling import PCSampler
from repro.reliability import INJECTION_POINTS, FaultInjector
from repro.service import FAILURE_POLICIES, SERVICE_REASON_CODES
from tests.conftest import KERNELS
from tests.test_fastpath_equivalence import (
    _assert_profiles_match,
    _profile_session,
)


#: a small app with several launches of real CTAs.
APP = ("hotspot", {"n": 32, "steps": 2})


def _chaos_session(configure=None, app=APP, **session_kwargs):
    """An instrumented app run with arbitrary device configuration."""
    from repro.apps import build_app

    app_name, app_kwargs = app
    program = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(program.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession(**session_kwargs)
    device = Device(KEPLER_K40C)
    if configure is not None:
        configure(device)
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = program.prepare(runtime)
    program.run(runtime, image, state)
    return session, device


def _saxpy_launch(pc_sampler=None):
    """A bare saxpy launch (``y = 2 x`` over 64 lanes); returns ``y``."""
    module = compile_kernels([KERNELS["saxpy"]], "m")
    optimization_pipeline().run(module)
    device = Device(KEPLER_K40C)
    runtime = CudaRuntime(device)
    image = device.load_module(module)
    x = runtime.cuda_malloc(4 * 64, "x")
    y = runtime.cuda_malloc(4 * 64, "y")
    runtime.cuda_memcpy_htod(x, np.arange(64, dtype=np.float32))
    device.launch(image, "saxpy", 2, 32, [x, y, np.float32(2.0), 64],
                  pc_sampler=pc_sampler)
    return runtime.cuda_memcpy_dtoh(np.zeros(64, np.float32), y)


# -- fault injector unit behaviour ------------------------------------------------


class TestFaultInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultInjector().inject("coffee_spill")

    def test_when_subset_matching(self):
        inj = FaultInjector().inject(
            "service_worker_crash", when={"job": 1, "attempt": 0}
        )
        assert inj.fires("service_worker_crash", job=1, attempt=0)
        assert not inj.fires("service_worker_crash", job=1, attempt=1)
        assert not inj.fires("service_worker_crash", job=0, attempt=0)

    def test_count_bounds_fires(self):
        inj = FaultInjector().inject("service_job_hang", count=2)
        assert inj.fires("service_job_hang", job=0, attempt=0)
        assert inj.fires("service_job_hang", job=1, attempt=0)
        assert not inj.fires("service_job_hang", job=2, attempt=0)
        assert len(inj.log) == 2

    def test_params_returned(self):
        inj = FaultInjector().inject("buffer_overflow", segment_rows=64)
        assert inj.fire("buffer_overflow", kernel="k") == {"segment_rows": 64}

    def test_probability_is_seed_deterministic(self):
        def verdicts(seed):
            inj = FaultInjector(seed=seed).inject(
                "service_worker_crash", probability=0.5
            )
            return [
                inj.fires("service_worker_crash", job=j, attempt=0)
                for j in range(32)
            ]

        assert verdicts(7) == verdicts(7)  # same seed -> same plan
        assert verdicts(7) != verdicts(8)  # seeds actually matter
        assert any(verdicts(7)) and not all(verdicts(7))

    def test_registry_constants(self):
        assert set(INJECTION_POINTS) == {
            "buffer_overflow", "service_worker_crash", "service_job_hang",
            "cache_corrupt_entry", "service_pool_loss",
        }
        assert set(SERVICE_REASON_CODES) == {
            "job-worker-crash", "job-timeout", "job-worker-error",
            "job-serial-fallback", "pool-shrunk",
            "service-fork-unavailable", "cache-entry-corrupt",
        }
        assert set(FAILURE_POLICIES) == {"strict", "degrade", "best_effort"}


# -- real launches: nothing falls back -------------------------------------------


class TestDegradationLadder:
    def test_pc_sampled_launch_does_not_degrade(self):
        """A pc-sampled launch writes what an unsampled launch writes."""
        sampler = PCSampler(period=5)
        sampled = _saxpy_launch(pc_sampler=sampler)
        assert sampler.profile.total_samples  # the sampler really ran
        assert np.array_equal(sampled, _saxpy_launch())
        assert np.array_equal(sampled, 2.0 * np.arange(64, dtype=np.float32))

    def test_pc_sampling_best_effort_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", LaunchDegradedWarning)
            _saxpy_launch(pc_sampler=PCSampler(period=5))

    def test_fork_unavailable_degrades_not_crashes(self, monkeypatch):
        """Spawn-only platforms run the overhead baseline in-process --
        never an AttributeError from a missing ``os.fork`` -- and export
        exactly what a run with the baseline in a child exports."""
        from repro.apps import build_app

        def export():
            report = CUDAAdvisor().profile(build_app("bfs", num_nodes=128))
            assert report.baseline_results and report.overhead is not None
            return export_json(profile_export(report))

        started = []
        start = ForkedChild.__init__

        def spy(child, *args):
            start(child, *args)
            started.append(child.process.pid)

        monkeypatch.setattr(ForkedChild, "__init__", spy)
        with monkeypatch.context() as forking:
            forking.setattr(advisor_mod, "fork_available", lambda: True)
            overlapped = export()
        assert len(started) == 1
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        monkeypatch.delattr(os, "fork")
        assert export() == overlapped
        assert len(started) == 1  # no child without fork


# -- buffer overflow: a tiny flush size -----------------------------------------


class TestBufferFaults:
    def test_overflow_injection_spills_losslessly(self):
        # The buffer_overflow injection forces a 128-row flush size, so
        # each launch's buffers flush many times mid-launch; the kept
        # records must equal a clean serial run's, row for row.
        serial = _profile_session(*APP).profiles

        def configure(device):
            device.fault_injector = FaultInjector().inject(
                "buffer_overflow", segment_rows=128
            )

        session, device = _chaos_session(configure)
        assert device.fault_injector.log  # the injection fired
        assert any(len(p.memory_records) > 128 for p in session.profiles)
        _assert_profiles_match(serial, session.profiles)
