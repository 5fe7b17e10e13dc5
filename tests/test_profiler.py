"""Tests for the profiler: hook runtime, shadow stacks, code-centric and
data-centric attribution, cross-instance statistics."""

import numpy as np
import pytest

from repro.analysis.statistics import (
    aggregate_instances,
    metric_cycles,
    metric_memory_events,
)
from repro.errors import ProfilerError
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime, host_function
from repro.host.shadow_stack import GLOBAL_HOST_STACK, HostShadowStack, HostFrame
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import (
    ProfilingSession,
    format_code_centric_view,
)
from tests.conftest import KERNELS


@pytest.fixture
def profiled_run():
    """Run the saxpy_clamped kernel fully instrumented under a session."""
    module = compile_kernels(
        [KERNELS["saxpy_clamped"]], "profmod"
    )
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)

    session = ProfilingSession()
    rt = CudaRuntime(Device(KEPLER_K40C), profiler=session)
    image = rt.device.load_module(module)

    @host_function
    def run_app():
        n = 64
        hx = rt.host_malloc(n, np.float32, "h_x")
        hx.array[:] = np.arange(n)
        dx = rt.cuda_malloc(4 * n, "d_x")
        dy = rt.cuda_malloc(4 * n, "d_y")
        rt.cuda_memcpy_htod(dx, hx)
        rt.cuda_memcpy_htod(dy, hx)
        rt.launch_kernel(image, "saxpy_clamped", 2, 32, [dx, dy, 2.0, n])
        return dx

    dx = run_app()
    return session, rt, dx


class TestHostShadowStack:
    def test_push_pop_balance(self):
        stack = HostShadowStack()
        assert stack.depth() == 1  # main
        stack.push(HostFrame("f", "x.py", 10))
        assert stack.depth() == 2
        stack.pop()
        assert stack.depth() == 1

    def test_underflow_rejected(self):
        stack = HostShadowStack()
        with pytest.raises(RuntimeError, match="underflow"):
            stack.pop()

    def test_decorator_pushes_during_call(self):
        seen = {}

        @host_function
        def inner():
            seen["path"] = GLOBAL_HOST_STACK.snapshot()

        @host_function
        def outer():
            inner()

        depth_before = GLOBAL_HOST_STACK.depth()
        outer()
        assert GLOBAL_HOST_STACK.depth() == depth_before
        names = [f.function for f in seen["path"]]
        assert names[-2:] == ["outer", "inner"]

    def test_decorator_pops_on_exception(self):
        @host_function
        def boom():
            raise ValueError("x")

        depth_before = GLOBAL_HOST_STACK.depth()
        with pytest.raises(ValueError):
            boom()
        assert GLOBAL_HOST_STACK.depth() == depth_before


def _debugging_paths(session):
    """Each launch's code-centric host path and the data-centric view
    of its first traced address (Figures 8 and 9)."""
    views = []
    for profile in session.profiles:
        record = profile.memory_records[0]
        views.append((
            [str(frame) for frame in profile.host_call_path],
            session.data_centric_map().resolve(
                int(record.active_addresses()[0])
            ).render(),
        ))
    return views


def _drive_bfs_here():
    """bfs driven by hand, so its host methods are called from here."""
    from repro.apps import build_app

    app = build_app("bfs", num_nodes=128)
    module = compile_kernels(list(app.kernels), app.name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks"]).run(module)
    session = ProfilingSession()
    rt = CudaRuntime(Device(KEPLER_K40C), profiler=session)
    image = rt.device.load_module(module)
    state = app.prepare(rt)
    app.run(rt, image, state)
    return session


class TestProgramEntryFrames:
    def test_call_paths_name_only_application_frames(self):
        """The same app profiled from two call sites -- the advisor and
        a hand-written driver -- gives identical code-centric and
        data-centric paths, each entering at ``<program>: 0``."""
        from repro.apps import build_app
        from repro.optim import CUDAAdvisor

        report = CUDAAdvisor(
            measure_overhead=False, fused_drain=False
        ).profile(build_app("bfs", num_nodes=128))
        advised = _debugging_paths(report.session)
        assert advised == _debugging_paths(_drive_bfs_here())
        host_path, data_view = advised[0]
        assert host_path == ["main():: <program>: 0",
                             "run():: <program>: 0"]
        assert "1: prepare():: <program>: 0" in data_view

    def test_nested_host_calls_keep_their_call_site(self):
        seen = {}

        @host_function
        def inner():
            seen["path"] = GLOBAL_HOST_STACK.snapshot()

        @host_function
        def outer():
            inner()

        outer()
        entry, nested = seen["path"][-2:]
        assert (entry.filename, entry.line) == ("<program>", 0)
        assert nested.filename == "test_profiler.py" and nested.line > 0


class TestKernelProfile:
    def test_records_collected(self, profiled_run):
        session, _, _ = profiled_run
        profile = session.last_profile
        assert profile.kernel == "saxpy_clamped"
        assert profile.memory_records
        assert profile.block_records
        assert profile.arith_records
        assert profile.launch_result is not None
        assert profile.num_ctas == 2

    def test_memory_record_contents(self, profiled_run):
        session, rt, dx = profiled_run
        profile = session.last_profile
        loads = [r for r in profile.memory_records if r.op.value == 1]
        stores = [r for r in profile.memory_records if r.op.value == 2]
        # 2 warps x (2 loads + 1 store).
        assert len(loads) == 4
        assert len(stores) == 2
        assert all(r.bits == 32 for r in profile.memory_records)
        # Addresses fall inside the two device allocations.
        x_records = [
            r for r in loads
            if dx.addr <= r.active_addresses()[0] < dx.addr + dx.nbytes
        ]
        assert x_records

    def test_gpu_call_paths_include_device_function(self, profiled_run):
        session, _, _ = profiled_run
        profile = session.last_profile
        names_by_path = set()
        for record in profile.block_records:
            path = profile.call_paths.path(record.call_path_id)
            names = tuple(
                profile.functions_by_id[e.function_id].name for e in path
            )
            names_by_path.add((record.block_name.split(":")[0], names))
        # Blocks execute both at kernel level and inside clampf, and the
        # clampf blocks carry the concatenated kernel->device path.
        assert ("saxpy_clamped", ("saxpy_clamped",)) in names_by_path
        assert ("clampf", ("saxpy_clamped", "clampf")) in names_by_path

    def test_code_centric_view_renders(self, profiled_run):
        session, _, _ = profiled_run
        profile = session.last_profile
        record = profile.memory_records[0]
        view = format_code_centric_view(
            profile.host_call_path,
            profile.call_paths.path(record.call_path_id),
            profile.functions_by_id,
            f"conftest.py: {record.line}",
        )
        assert "CPU 0: main()" in view
        assert "run_app()" in view
        assert "GPU" in view
        assert "saxpy_clamped()" in view

    def test_regrouping_by_cta(self, profiled_run):
        session, _, _ = profiled_run
        grouped = session.last_profile.memory_records_by_cta()
        assert set(grouped) == {0, 1}
        total = sum(len(v) for v in grouped.values())
        assert total == len(session.last_profile.memory_records)


class TestDataCentric:
    def test_resolve_device_to_host(self, profiled_run):
        session, rt, dx = profiled_run
        dc = session.data_centric_map()
        view = dc.resolve(dx.addr + 8)
        assert view.device is not None
        assert view.device.name == "d_x"
        assert view.transfer is not None
        assert view.host is not None
        assert view.host.name == "h_x"
        rendered = view.render()
        assert "d_x" in rendered and "h_x" in rendered
        assert "cudaMemcpy" in rendered

    def test_unknown_address(self, profiled_run):
        session, _, _ = profiled_run
        view = session.data_centric_map().resolve(0x7)
        assert view.device is None
        assert "no device allocation" in view.render()

    def test_allocation_call_paths_recorded(self, profiled_run):
        session, _, dx = profiled_run
        record = session.data_centric_map().find_device(dx.addr)
        names = [f.function for f in record.call_path]
        assert names[0] == "main"
        assert "run_app" in names


class TestShadowStackErrors:
    def test_gpu_pop_underflow_rejected(self, fresh_module):
        from repro.profiler import HookRuntime

        dev = Device(KEPLER_K40C)
        img = dev.load_module(fresh_module)
        hooks = HookRuntime(img, "saxpy", (), "x")

        class W:
            global_warp_id = 0
            warp_size = 32
            cta_linear = 0
            warp_in_cta = 0

        with pytest.raises(ProfilerError, match="underflow"):
            hooks.pop(None, W(), 32)


class TestOfflineStatistics:
    def test_aggregation_across_instances(self):
        module = compile_kernels([KERNELS["saxpy"]], "m")
        optimization_pipeline().run(module)
        instrumentation_pipeline(["memory"]).run(module)
        session = ProfilingSession()
        rt = CudaRuntime(Device(KEPLER_K40C), profiler=session)
        image = rt.device.load_module(module)

        @host_function
        def launch_many():
            dx = rt.cuda_malloc(4 * 64, "x")
            dy = rt.cuda_malloc(4 * 64, "y")
            for _ in range(5):
                rt.launch_kernel(image, "saxpy", 2, 32, [dx, dy, 1.0, 64])

        launch_many()
        stats = aggregate_instances(session.profiles, metric_memory_events)
        assert len(stats) == 1
        s = stats[0]
        assert s.instances == 5
        assert s.kernel == "saxpy"
        assert s.minimum == s.maximum == s.mean  # deterministic kernel
        assert s.stddev == 0.0
        assert "saxpy" in s.render()

    def test_different_call_paths_not_merged(self):
        module = compile_kernels([KERNELS["saxpy"]], "m")
        instrumentation_pipeline(["memory"]).run(module)
        session = ProfilingSession()
        rt = CudaRuntime(Device(KEPLER_K40C), profiler=session)
        image = rt.device.load_module(module)
        dx = rt.cuda_malloc(4 * 64, "x")

        @host_function
        def site_a():
            rt.launch_kernel(image, "saxpy", 1, 32, [dx, dx, 1.0, 32])

        @host_function
        def site_b():
            rt.launch_kernel(image, "saxpy", 1, 32, [dx, dx, 1.0, 32])

        site_a()
        site_b()
        stats = aggregate_instances(session.profiles, metric_cycles)
        assert len(stats) == 2


class TestStatisticsMetrics:
    def test_divergent_block_fraction_metric(self):
        from repro.analysis.statistics import (
            metric_divergent_block_fraction,
        )
        from repro.profiler.records import BlockRecord

        class P:
            block_records = [
                BlockRecord(seq=0, cta=0, warp_in_cta=0, block_name="k:a",
                            line=1, col=1, active_lanes=32,
                            resident_lanes=32, call_path_id=0),
                BlockRecord(seq=1, cta=0, warp_in_cta=0, block_name="k:b",
                            line=2, col=1, active_lanes=4,
                            resident_lanes=32, call_path_id=0),
            ]

        assert metric_divergent_block_fraction(P()) == 0.5

        class Empty:
            block_records = []

        assert metric_divergent_block_fraction(Empty()) == 0.0

    def test_metric_cycles_requires_launch_result(self):
        from repro.analysis.statistics import metric_cycles
        from repro.errors import AnalysisError

        class P:
            launch_result = None

        with pytest.raises(AnalysisError):
            metric_cycles(P())

    def test_varying_metric_statistics(self):
        from repro.analysis.statistics import aggregate_instances

        class P:
            def __init__(self, v):
                self.kernel = "k"
                self.host_call_path = ()
                self.v = v

        stats = aggregate_instances(
            [P(1.0), P(2.0), P(3.0)], metric=lambda p: p.v
        )[0]
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.stddev == pytest.approx((2 / 3) ** 0.5)
