"""Chaos suite for the launch-reliability layer.

Every rung of the degradation ladder (batched -> fork-parallel ->
serial interpreter) is pinned here under both the ``strict`` and
``degrade`` failure policies, and the fault-injection framework drives
worker crashes, shard hangs and buffer overflow through real
instrumented launches.  The headline property: a
fork-parallel launch completing *through* injected faults produces
traces and statistics byte-identical to a fault-free serial run.
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
from repro.frontend import compile_kernels, kernel, ptr_i32
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime
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


@kernel
def chaos_bump(counter: ptr_i32):
    atomic_add(counter, 0, 1)  # noqa: F821 -- DSL intrinsic


#: 4 CTAs on SMs 0..3: with workers=4 the SM shards are [0-2], [3-6],
#: [7-10], [11-14], so shards 0 and 1 both execute real CTAs.
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
            "worker_crash", when={"shard": 1, "attempt": 0}
        )
        assert inj.fires("worker_crash", shard=1, attempt=0)
        assert not inj.fires("worker_crash", shard=1, attempt=1)
        assert not inj.fires("worker_crash", shard=0, attempt=0)

    def test_count_bounds_fires(self):
        inj = FaultInjector().inject("shard_hang", count=2)
        assert inj.fires("shard_hang", shard=0, attempt=0)
        assert inj.fires("shard_hang", shard=1, attempt=0)
        assert not inj.fires("shard_hang", shard=2, attempt=0)
        assert len(inj.log) == 2

    def test_params_returned(self):
        inj = FaultInjector().inject("buffer_overflow", segment_rows=64)
        assert inj.fire("buffer_overflow", kernel="k") == {"segment_rows": 64}

    def test_probability_is_seed_deterministic(self):
        def verdicts(seed):
            inj = FaultInjector(seed=seed).inject(
                "worker_crash", probability=0.5
            )
            return [
                inj.fires("worker_crash", shard=s, attempt=0)
                for s in range(32)
            ]

        assert verdicts(7) == verdicts(7)  # same seed -> same plan
        assert verdicts(7) != verdicts(8)  # seeds actually matter
        assert any(verdicts(7)) and not all(verdicts(7))

    def test_registry_constants(self):
        assert set(INJECTION_POINTS) == {
            "worker_crash", "shard_hang", "buffer_overflow",
            "service_worker_crash", "service_job_hang", "cache_corrupt_entry",
            "service_pool_loss",
        }
        assert set(REASON_CODES) == {
            "pc-sampling-batched", "pc-sampling-parallel",
            "fork-unavailable", "shard-write-conflict", "shard-worker-crash",
            "shard-timeout", "shard-worker-error",
        }
        assert len(REASON_CODES) == len(set(REASON_CODES))
        assert set(FAILURE_POLICIES) == {"strict", "degrade", "best_effort"}


# -- the supervisor itself -------------------------------------------------------


class TestSupervisorPolicies:
    def _supervisor(self, policy):
        return LaunchSupervisor(SimpleNamespace(failure_policy=policy))

    def test_strict_raises_with_reason_and_context(self):
        supervisor = self._supervisor("strict")
        with pytest.raises(LaunchDegradedError) as exc:
            supervisor.degrade("shard-timeout", "k", "the message", shard=3)
        assert exc.value.reason == "shard-timeout"
        assert exc.value.context == {"shard": 3, "kernel": "k"}
        assert str(exc.value) == "the message"

    def test_degrade_warns_once_per_reason_and_kernel(self):
        supervisor = self._supervisor("degrade")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(5):
                supervisor.degrade("fork-unavailable", "k", "msg")
            supervisor.degrade("fork-unavailable", "other", "msg")
            supervisor.degrade("shard-timeout", "k", "msg")
        assert len(caught) == 3  # (reason, kernel) pairs, not instances
        assert len(supervisor.events) == 7  # every event still recorded
        w = caught[0].message
        assert isinstance(w, LaunchDegradedWarning)
        assert w.reason == "fork-unavailable"
        assert w.context["kernel"] == "k"
        assert str(w) == "msg"

    def test_best_effort_is_silent_but_records(self):
        supervisor = self._supervisor("best_effort")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            supervisor.degrade("shard-worker-crash", "k", "msg", shard=1)
        assert len(supervisor.events_for("shard-worker-crash")) == 1
        assert supervisor.events[0].context["shard"] == 1

    def test_unknown_policy_rejected(self):
        supervisor = self._supervisor("yolo")
        with pytest.raises(LaunchError, match="unknown failure policy"):
            supervisor.degrade("shard-timeout", "k", "msg")


# -- ladder rungs through real launches ----------------------------------------


class TestDegradationLadder:
    def test_pc_sampling_batched_strict_raises(self):
        def configure(device):
            device.backend = "batched"
            device.failure_policy = "strict"

        with pytest.raises(LaunchDegradedError) as exc:
            _saxpy_launch(configure, pc_sampler=PCSampler(period=5))
        assert exc.value.reason == sup.PC_SAMPLING_BATCHED

    def test_pc_sampling_parallel_strict_raises(self):
        def configure(device):
            device.parallel_workers = 4
            device.failure_policy = "strict"

        with pytest.raises(LaunchDegradedError) as exc:
            _saxpy_launch(configure, pc_sampler=PCSampler(period=5))
        assert exc.value.reason == sup.PC_SAMPLING_PARALLEL

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

    def test_fork_unavailable_degrades_not_crashes(self, monkeypatch):
        """Spawn-only platforms run serially with a warning -- never an
        AttributeError from a missing ``os.fork``."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        monkeypatch.delattr(os, "fork")

        def configure(device):
            device.parallel_workers = 4

        with pytest.warns(LaunchDegradedWarning, match="cannot fork"):
            device = _saxpy_launch(configure)
        assert device.supervisor.events_for(sup.FORK_UNAVAILABLE)

    def test_fork_unavailable_strict_raises(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )

        def configure(device):
            device.parallel_workers = 4
            device.failure_policy = "strict"

        with pytest.raises(LaunchDegradedError) as exc:
            _saxpy_launch(configure)
        assert exc.value.reason == sup.FORK_UNAVAILABLE

    def test_write_conflict_strict_raises(self):
        module = compile_kernels([chaos_bump], "conflict")
        optimization_pipeline().run(module)
        device = Device(KEPLER_K40C)
        device.parallel_workers = 4
        device.failure_policy = "strict"
        runtime = CudaRuntime(device)
        image = device.load_module(module)
        d = runtime.cuda_malloc(4, "d")
        runtime.cuda_memcpy_htod(d, np.zeros(1, dtype=np.int32))
        with pytest.raises(LaunchDegradedError) as exc:
            device.launch(image, "chaos_bump", 8, 32, [d])
        assert exc.value.reason == sup.SHARD_WRITE_CONFLICT

    def test_unknown_failure_policy_rejected_at_launch(self):
        def configure(device):
            device.failure_policy = "casual"
            device.parallel_workers = 4

        with pytest.raises(LaunchError, match="unknown failure policy"):
            _saxpy_launch(configure)


# -- shard supervision: crash, hang, retry, serial recovery ---------------------


class TestShardSupervision:
    def test_crashed_worker_retried_byte_identical(self):
        """Shard 0 crashes on its first attempt only; the retry succeeds
        and the trace matches a fault-free serial run exactly."""
        serial = _profile_session(*APP).profiles

        def configure(device):
            device.parallel_workers = 4
            device.fault_injector = FaultInjector().inject(
                "worker_crash", when={"shard": 0, "attempt": 0}
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error", LaunchDegradedWarning)
            session, device = _chaos_session(configure)
        _assert_profiles_match(serial, session.profiles)
        assert not device.supervisor.events  # recovered, never degraded

    def test_permanently_crashed_shard_reexecuted_serially(self):
        serial = _profile_session(*APP).profiles

        def configure(device):
            device.parallel_workers = 4
            device.shard_max_retries = 1
            device.fault_injector = FaultInjector().inject(
                "worker_crash", when={"shard": 1}
            )

        with pytest.warns(LaunchDegradedWarning, match="re-executing"):
            session, device = _chaos_session(configure)
        _assert_profiles_match(serial, session.profiles)
        events = device.supervisor.events_for(sup.SHARD_WORKER_CRASH)
        assert events and all(e.context["shard"] == 1 for e in events)

    def test_hung_shard_reaped_and_recovered(self):
        serial = _profile_session(*APP).profiles

        def configure(device):
            device.parallel_workers = 4
            device.shard_timeout = 0.4
            device.shard_retry_backoff = 0.01
            device.fault_injector = FaultInjector().inject(
                "shard_hang", when={"shard": 1, "attempt": 0}
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error", LaunchDegradedWarning)
            session, _ = _chaos_session(configure)
        _assert_profiles_match(serial, session.profiles)

    def test_permanently_hung_shard_reexecuted_serially(self):
        serial = _profile_session(*APP).profiles

        def configure(device):
            device.parallel_workers = 4
            device.shard_timeout = 0.4
            device.shard_max_retries = 0
            device.fault_injector = FaultInjector().inject(
                "shard_hang", when={"shard": 1}
            )

        with pytest.warns(LaunchDegradedWarning, match="timeout"):
            session, device = _chaos_session(configure)
        _assert_profiles_match(serial, session.profiles)
        assert device.supervisor.events_for(sup.SHARD_TIMEOUT)

    def test_strict_crash_raises_without_retry(self):
        def configure(device):
            device.parallel_workers = 4
            device.failure_policy = "strict"
            device.fault_injector = FaultInjector().inject(
                "worker_crash", when={"shard": 0}
            )

        with pytest.raises(LaunchDegradedError) as exc:
            _chaos_session(configure)
        assert exc.value.reason == sup.SHARD_WORKER_CRASH
        assert exc.value.context["attempts"] == 1  # strict never retries


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


# -- the headline acceptance property -------------------------------------------


def test_chaos_parallel_launch_byte_identical_to_clean_serial():
    """Crash + hang + forced overflow together: the supervised parallel
    launch must still complete with traces, call paths, statistics and
    memory byte-identical to a fault-free serial interpreter run."""
    serial = _profile_session(*APP).profiles

    def configure(device):
        device.parallel_workers = 4
        device.shard_timeout = 0.4
        device.shard_retry_backoff = 0.01
        device.fault_injector = (
            FaultInjector(seed=42)
            .inject("worker_crash", when={"shard": 0, "attempt": 0})
            .inject("shard_hang", when={"shard": 1, "attempt": 0})
            .inject("buffer_overflow", segment_rows=256)
        )

    session, device = _chaos_session(configure)
    _assert_profiles_match(serial, session.profiles)
    assert not device.supervisor.events  # every fault recovered by retry
