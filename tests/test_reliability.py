"""Chaos suite for the launch-reliability layer.

The rung of the degradation ladder (batched -> serial interpreter) is
pinned here under the ``strict``, ``degrade`` and ``best_effort``
failure policies, and the fault-injection framework drives buffer
overflow through real instrumented launches: a launch flushing many
times mid-launch keeps records identical to a clean run. Where fork is
missing, the advisor's overhead baseline runs in-process instead of in
a child beside the instrumented run, with the same export.
"""

import multiprocessing
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import (
    LaunchDegradedError,
    LaunchDegradedWarning,
    LaunchError,
)
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.export import export_json, profile_export
from repro.host import CudaRuntime
from repro.optim import CUDAAdvisor
from repro.optim import advisor as advisor_mod
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import ProfilingSession
from repro.profiler.pc_sampling import PCSampler
from repro.reliability import (
    FAILURE_POLICIES,
    INJECTION_POINTS,
    REASON_CODES,
    FaultInjector,
    LaunchSupervisor,
)
from repro.reliability import supervisor as sup
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


def _saxpy_launch(configure=None, pc_sampler=None):
    """A bare saxpy launch for ladder-rung tests; returns the device."""
    module = compile_kernels([KERNELS["saxpy"]], "m")
    optimization_pipeline().run(module)
    device = Device(KEPLER_K40C)
    if configure is not None:
        configure(device)
    runtime = CudaRuntime(device)
    image = device.load_module(module)
    d = runtime.cuda_malloc(4 * 64, "d")
    device.launch(image, "saxpy", 2, 32, [d, d, np.float32(1.0), 64],
                  pc_sampler=pc_sampler)
    return device


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
        assert set(REASON_CODES) == {"pc-sampling-batched"}
        assert len(REASON_CODES) == len(set(REASON_CODES))
        assert set(FAILURE_POLICIES) == {"strict", "degrade", "best_effort"}


# -- the supervisor itself -------------------------------------------------------


class TestSupervisorPolicies:
    def _supervisor(self, policy):
        return LaunchSupervisor(SimpleNamespace(failure_policy=policy))

    def test_strict_raises_with_reason_and_context(self):
        supervisor = self._supervisor("strict")
        with pytest.raises(LaunchDegradedError) as exc:
            supervisor.degrade("pc-sampling-batched", "k", "the message",
                               backend="batched")
        assert exc.value.reason == "pc-sampling-batched"
        assert exc.value.context == {"backend": "batched", "kernel": "k"}
        assert str(exc.value) == "the message"

    def test_degrade_warns_once_per_reason_and_kernel(self):
        supervisor = self._supervisor("degrade")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(5):
                supervisor.degrade("reason-a", "k", "msg")
            supervisor.degrade("reason-a", "other", "msg")
            supervisor.degrade("reason-b", "k", "msg")
        assert len(caught) == 3  # (reason, kernel) pairs, not instances
        assert len(supervisor.events) == 7  # every event still recorded
        w = caught[0].message
        assert isinstance(w, LaunchDegradedWarning)
        assert w.reason == "reason-a"
        assert w.context["kernel"] == "k"
        assert str(w) == "msg"

    def test_best_effort_is_silent_but_records(self):
        supervisor = self._supervisor("best_effort")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            supervisor.degrade("pc-sampling-batched", "k", "msg", backend="b")
        assert len(supervisor.events_for("pc-sampling-batched")) == 1
        assert supervisor.events[0].context["backend"] == "b"

    def test_unknown_policy_rejected(self):
        supervisor = self._supervisor("yolo")
        with pytest.raises(LaunchError, match="unknown failure policy"):
            supervisor.degrade("pc-sampling-batched", "k", "msg")


# -- ladder rungs through real launches ----------------------------------------


class TestDegradationLadder:
    def test_pc_sampling_batched_strict_raises(self):
        def configure(device):
            device.backend = "batched"
            device.failure_policy = "strict"

        with pytest.raises(LaunchDegradedError) as exc:
            _saxpy_launch(configure, pc_sampler=PCSampler(period=5))
        assert exc.value.reason == sup.PC_SAMPLING_BATCHED

    def test_pc_sampling_best_effort_is_silent(self):
        def configure(device):
            device.backend = "batched"
            device.failure_policy = "best_effort"

        with warnings.catch_warnings():
            warnings.simplefilter("error", LaunchDegradedWarning)
            device = _saxpy_launch(configure, pc_sampler=PCSampler(period=5))
        assert device.supervisor.events_for(sup.PC_SAMPLING_BATCHED)

    def test_degrade_warning_carries_reason_code(self):
        def configure(device):
            device.backend = "batched"

        with pytest.warns(LaunchDegradedWarning, match="pc sampling") as rec:
            _saxpy_launch(configure, pc_sampler=PCSampler(period=5))
        degraded = [w.message for w in rec
                    if isinstance(w.message, LaunchDegradedWarning)]
        assert degraded[0].reason == sup.PC_SAMPLING_BATCHED
        assert degraded[0].context["kernel"] == "saxpy"

    def test_degrade_warns_once_across_repeated_launches(self):
        module = compile_kernels([KERNELS["saxpy"]], "m")
        optimization_pipeline().run(module)
        device = Device(KEPLER_K40C)
        device.backend = "batched"
        runtime = CudaRuntime(device)
        image = device.load_module(module)
        d = runtime.cuda_malloc(4 * 64, "d")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                device.launch(image, "saxpy", 2, 32,
                              [d, d, np.float32(1.0), 64],
                              pc_sampler=PCSampler(period=5))
        degraded = [w for w in caught
                    if isinstance(w.message, LaunchDegradedWarning)]
        assert len(degraded) == 1
        assert len(device.supervisor.events) == 3

    def test_unknown_failure_policy_rejected_at_launch(self):
        def configure(device):
            device.failure_policy = "casual"

        with pytest.raises(LaunchError, match="unknown failure policy"):
            _saxpy_launch(configure)

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
        start = advisor_mod._BaselineChild.__init__

        def spy(child, *args):
            start(child, *args)
            started.append(child._proc.pid)

        monkeypatch.setattr(advisor_mod._BaselineChild, "__init__", spy)
        with monkeypatch.context() as forking:
            forking.setattr(advisor_mod, "_overlap_available", lambda: True)
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
        assert not device.supervisor.events
