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
from repro.reliability.spill import SpillConfig

#: Process-local instrumentation counters.  ``sessions_created`` bumps
#: per :class:`ProfilingSession`, ``launches_profiled`` per hooked
#: kernel launch.  The service tier's "a warm cache hit performs zero
#: simulation work in this process" assertion reads these (see
#: docs/service.md); they are monotonic and never reset.
SESSION_COUNTERS = {"sessions_created": 0, "launches_profiled": 0}


class ProfilingSession:
    """Collects profiles and interposition records for one program run.

    ``spill_dir``/``spill_rows`` arm disk spill on the per-launch trace
    buffers: whenever a columnar buffer holds ``spill_rows`` rows they
    are written to a checksummed segment under ``spill_dir`` and read
    back transparently at kernel exit, so arbitrarily long launches
    never exhaust memory (see ``docs/reliability.md``). A prebuilt
    :class:`~repro.reliability.spill.SpillConfig` can be passed as
    ``spill`` instead.

    ``fused`` takes an
    :class:`~repro.analysis.aggregates.AnalyzerPlan` and analyzes rows
    *during* execution: buffered rows flush into the plan's analyzer
    bank at segment granularity, the trace is never spilled or drained,
    and the resulting profiles carry ``aggregates`` instead of
    materialized records -- byte-identical results to the batch
    analyzers.
    """

    def __init__(self, buffer_capacity: Optional[int] = None,
                 sample_rate: int = 1,
                 spill_dir: Optional[str] = None,
                 spill_rows: int = 65536,
                 spill: Optional[SpillConfig] = None,
                 fused=None):
        SESSION_COUNTERS["sessions_created"] += 1
        self.buffer_capacity = buffer_capacity
        self.sample_rate = sample_rate
        if spill is None and spill_dir is not None:
            spill = SpillConfig(directory=spill_dir, segment_rows=spill_rows)
        self.spill = spill
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
        SESSION_COUNTERS["launches_profiled"] += 1
        hooks = HookRuntime(
            image,
            kernel,
            host_call_path,
            launch_site,
            buffer_capacity=self.buffer_capacity,
            sample_rate=self.sample_rate,
            spill=self.spill,
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
