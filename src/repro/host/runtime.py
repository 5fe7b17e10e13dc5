"""The CUDA-runtime stand-in: allocation, transfer, launch.

Every API call records what the engine's mandatory instrumentation
records in the paper: the host shadow-stack snapshot and call site of
each ``cudaMalloc``, each ``cudaMemcpy`` (both memory ranges + byte
count) and each kernel launch. An attached profiler
(:class:`repro.profiler.session.ProfilingSession`) receives these events
and builds the data-centric maps of Figure 3.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device, DeviceModuleImage, DevicePointer, LaunchResult
from repro.host.allocator import HostAllocator, HostBuffer
from repro.host.shadow_stack import GLOBAL_HOST_STACK, HostFrame


class MemcpyKind(enum.Enum):
    HOST_TO_DEVICE = "HtoD"
    DEVICE_TO_HOST = "DtoH"
    DEVICE_TO_DEVICE = "DtoD"


@dataclass
class DeviceAllocationRecord:
    """cudaMalloc interposition record."""

    pointer: DevicePointer
    name: str
    call_path: Tuple[HostFrame, ...]
    site: str

    @property
    def base(self) -> int:
        return self.pointer.addr

    @property
    def end(self) -> int:
        return self.pointer.addr + self.pointer.nbytes


@dataclass
class MemcpyRecord:
    """cudaMemcpy interposition record (both ranges + size)."""

    kind: MemcpyKind
    host_addr: int
    device_addr: int
    nbytes: int
    call_path: Tuple[HostFrame, ...]
    site: str


def _call_site(depth: int = 2) -> str:
    frame = sys._getframe(depth)
    return f"{frame.f_code.co_filename.rsplit('/', 1)[-1]}: {frame.f_lineno}"


class CudaRuntime:
    """Host-side runtime bound to one simulated device."""

    def __init__(self, device: Device, profiler=None):
        self.device = device
        self.profiler = profiler
        self.allocator = HostAllocator()
        self.device_allocations: List[DeviceAllocationRecord] = []
        self.memcpys: List[MemcpyRecord] = []
        if profiler is not None:
            profiler.attach_runtime(self)

    # -- host allocations -------------------------------------------------------
    def host_malloc(self, shape, dtype, name: str = "") -> HostBuffer:
        buf = self.allocator.malloc(shape, dtype, name, site=_call_site())
        if self.profiler is not None:
            self.profiler.on_host_malloc(buf)
        return buf

    def host_wrap(self, array: np.ndarray, name: str = "") -> HostBuffer:
        buf = self.allocator.wrap(array, name, site=_call_site())
        if self.profiler is not None:
            self.profiler.on_host_malloc(buf)
        return buf

    # -- device allocations ---------------------------------------------------------
    def cuda_malloc(self, nbytes: int, name: str = "") -> DevicePointer:
        pointer = self.device.malloc(nbytes, tag=name)
        record = DeviceAllocationRecord(
            pointer=pointer,
            name=name or f"dev_{len(self.device_allocations)}",
            call_path=GLOBAL_HOST_STACK.snapshot(),
            site=_call_site(),
        )
        self.device_allocations.append(record)
        if self.profiler is not None:
            self.profiler.on_cuda_malloc(record)
        return pointer

    def cuda_free(self, pointer: DevicePointer) -> None:
        self.device.free(pointer)

    # -- transfers -------------------------------------------------------------------
    def cuda_memcpy_htod(
        self, dst: DevicePointer, src: Union[HostBuffer, np.ndarray]
    ) -> None:
        if isinstance(src, HostBuffer):
            data, host_addr = src.array, src.addr
        else:
            data, host_addr = src, 0
        self.device.memcpy_htod(dst, data)
        self._record_memcpy(
            MemcpyKind.HOST_TO_DEVICE, host_addr, dst.addr, data.nbytes
        )

    def cuda_memcpy_dtoh(
        self, dst: Union[HostBuffer, np.ndarray], src: DevicePointer
    ) -> np.ndarray:
        if isinstance(dst, HostBuffer):
            array, host_addr = dst.array, dst.addr
        else:
            array, host_addr = dst, 0
        flat = array.reshape(-1)
        data = self.device.memcpy_dtoh(src, flat.dtype, flat.size)
        flat[:] = data
        self._record_memcpy(
            MemcpyKind.DEVICE_TO_HOST, host_addr, src.addr, array.nbytes
        )
        return array

    def _record_memcpy(
        self, kind: MemcpyKind, host_addr: int, device_addr: int, nbytes: int
    ) -> None:
        record = MemcpyRecord(
            kind=kind,
            host_addr=host_addr,
            device_addr=device_addr,
            nbytes=nbytes,
            call_path=GLOBAL_HOST_STACK.snapshot(),
            site=_call_site(3),
        )
        self.memcpys.append(record)
        if self.profiler is not None:
            self.profiler.on_memcpy(record)

    # -- launches ---------------------------------------------------------------------
    def launch_kernel(
        self,
        image: DeviceModuleImage,
        kernel: str,
        grid,
        block,
        args: Sequence[object],
        l1_warps_per_cta: Union[None, int, Sequence[int]] = None,
    ) -> LaunchResult:
        hooks = None
        if self.profiler is not None:
            hooks = self.profiler.hook_runtime_for_launch(
                image, kernel, GLOBAL_HOST_STACK.snapshot(), _call_site()
            )
        return self.device.launch(
            image,
            kernel,
            grid,
            block,
            args,
            hooks=hooks,
            l1_warps_per_cta=l1_warps_per_cta,
        )

    # -- lookups used by the data-centric analyzer -----------------------------------
    def find_device_allocation(
        self, device_addr: int
    ) -> Optional[DeviceAllocationRecord]:
        for record in self.device_allocations:
            if record.base <= device_addr < record.end:
                return record
        return None

    def find_host_buffer(self, host_addr: int) -> Optional[HostBuffer]:
        return self.allocator.find(host_addr)
