"""The profiling session: ties runtime, device and analyzers together.

A :class:`ProfilingSession` is attached to a :class:`CudaRuntime`; it
receives every allocation/transfer event (for the data-centric map) and
manufactures one :class:`HookRuntime` per kernel launch. Completed
:class:`KernelProfile` objects accumulate in ``profiles``, which is what
the offline analyzer (statistics across kernel instances, Section 3.3)
and every case-study analysis read.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.host.allocator import HostBuffer
from repro.host.runtime import DeviceAllocationRecord, MemcpyRecord
from repro.host.shadow_stack import HostFrame
from repro.profiler.datacentric import DataCentricMap
from repro.profiler.profiler import HookRuntime, KernelProfile
from repro.profiler.streamdrain import DEFAULT_FLUSH_ROWS


class ProfilingSession:
    """Collects profiles and interposition records for one program run.

    Each launch's trace buffers flush every ``flush_rows`` rows per
    buffer. Without ``fused`` the kept rows are concatenated into each
    profile's records at kernel exit.

    ``fused`` takes an
    :class:`~repro.analysis.aggregates.AnalyzerPlan` and analyzes rows
    *during* execution: every flush feeds the plan's analyzer bank, so
    resident trace memory stays O(flush) however long the launch runs,
    and the resulting profiles carry ``aggregates`` instead of
    materialized records -- byte-identical results to feeding the kept
    records through the same plan afterwards.
    """

    def __init__(self, buffer_capacity: Optional[int] = None,
                 sample_rate: int = 1,
                 flush_rows: int = DEFAULT_FLUSH_ROWS,
                 fused=None):
        self.buffer_capacity = buffer_capacity
        self.sample_rate = sample_rate
        self.flush_rows = flush_rows
        self.fused = fused
        self.profiles: List[KernelProfile] = []
        self.host_buffers: List[HostBuffer] = []
        self.device_allocations: List[DeviceAllocationRecord] = []
        self.memcpys: List[MemcpyRecord] = []
        self.runtime = None

    # -- runtime event sinks ----------------------------------------------------
    def attach_runtime(self, runtime) -> None:
        self.runtime = runtime

    def on_host_malloc(self, buf: HostBuffer) -> None:
        self.host_buffers.append(buf)

    def on_cuda_malloc(self, record: DeviceAllocationRecord) -> None:
        self.device_allocations.append(record)

    def on_memcpy(self, record: MemcpyRecord) -> None:
        self.memcpys.append(record)

    def hook_runtime_for_launch(
        self,
        image,
        kernel: str,
        host_call_path: Tuple[HostFrame, ...],
        launch_site: str,
    ) -> HookRuntime:
        hooks = HookRuntime(
            image,
            kernel,
            host_call_path,
            launch_site,
            buffer_capacity=self.buffer_capacity,
            sample_rate=self.sample_rate,
            flush_rows=self.flush_rows,
            fused=self.fused,
        )
        hooks.on_complete = self.profiles.append
        return hooks

    # -- analyzer-facing views -----------------------------------------------------
    def data_centric_map(self) -> DataCentricMap:
        return DataCentricMap(
            self.device_allocations, self.host_buffers, self.memcpys
        )

    def profiles_for_kernel(self, kernel: str) -> List[KernelProfile]:
        return [p for p in self.profiles if p.kernel == kernel]

    @property
    def last_profile(self) -> KernelProfile:
        if not self.profiles:
            raise IndexError("no kernel profiles collected yet")
        return self.profiles[-1]
