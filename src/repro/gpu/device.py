"""The simulated GPU device: module loading, CTA/SM scheduling, launch.

``Device.load_module`` turns a device IR module into a
:class:`DeviceModuleImage` (the analogue of loading a fat binary):
shared-memory globals get CTA-arena offsets, constant strings get
addresses in a constant arena, per-function ipostdom tables are
precomputed for the reconvergence stacks.

``Device.launch`` enumerates CTAs over the grid, assigns them
round-robin to SMs (each SM runs up to ``max_ctas_per_sm`` co-resident
CTAs with per-instruction round-robin warp scheduling), executes to
completion, and returns a :class:`LaunchResult` with hardware-level
statistics (cycles, cache stats, divergence counts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExecutionError, LaunchError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40C
from repro.gpu.backend_batched import form_launch_gangs, run_sm_batched
from repro.gpu.cache import CacheStats, MSHRFile, SetAssociativeCache
from repro.gpu.decode import decode_module
from repro.gpu.interpreter import BarrierReached, WarpInterpreter
from repro.gpu.jit_cache import JitTraceCache
from repro.gpu.memory import Allocation, GlobalMemory, LocalMemory, SharedMemory
from repro.gpu.simt import Warp, WarpStatus
from repro.gpu.timing import SMTimingModel, TimingParams, TimingTape
from repro.ir.cfg import immediate_post_dominators
from repro.reliability.supervisor import PC_SAMPLING_BATCHED, LaunchSupervisor
from repro.ir.instructions import Phi
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import AddressSpace, FloatType, IntType, PointerType
from repro.ir.values import GlobalString, GlobalVariable

#: Constant-arena (strings) addresses start here; disjoint by addrspace.
CONSTANT_BASE = 0x100


class DevicePointer:
    """A host-side handle to device global memory (what cudaMalloc returns)."""

    def __init__(self, allocation: Allocation):
        self.allocation = allocation

    @property
    def addr(self) -> int:
        return self.allocation.base

    @property
    def nbytes(self) -> int:
        return self.allocation.nbytes

    def offset(self, nbytes: int) -> "DevicePointer":
        """Pointer arithmetic: a sub-range view of this allocation."""
        if nbytes < 0 or nbytes >= self.nbytes:
            raise LaunchError("pointer offset outside allocation")
        sub = Allocation(self.addr + nbytes, self.nbytes - nbytes,
                         self.allocation.tag + f"+{nbytes}")
        return DevicePointer(sub)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DevicePointer {self.addr:#x} ({self.nbytes} bytes)>"


class DeviceModuleImage:
    """A loaded device module plus precomputed execution metadata."""

    def __init__(self, module: Module, device: "Device"):
        self.module = module
        self.device = device

        # Shared-memory layout (per-CTA arena offsets).
        self.shared_offsets: Dict[str, int] = {}
        offset = 0
        for var in module.globals.values():
            if var.addrspace == AddressSpace.SHARED:
                size = var.element_type.size_bytes()
                offset = (offset + size - 1) // size * size
                self.shared_offsets[var.name] = offset
                offset += size * var.count
        self.shared_bytes_per_cta = offset

        # Constant arena: strings.
        self._const_buf = np.zeros(1, dtype=np.uint8)
        self.string_addrs: Dict[str, int] = {}
        self._strings_by_addr: List[Tuple[int, str]] = []
        chunks: List[bytes] = []
        addr = CONSTANT_BASE
        for s in module.strings.values():
            data = s.text.encode() + b"\x00"
            self.string_addrs[s.name] = addr
            self._strings_by_addr.append((addr, s.text))
            chunks.append(data)
            addr += len(data)
        if chunks:
            blob = b"\x00" * CONSTANT_BASE + b"".join(chunks)
            self._const_buf = np.frombuffer(blob, dtype=np.uint8).copy()

        # Device globals in GLOBAL space get real allocations.
        self.global_addrs: Dict[str, int] = {}
        for var in module.globals.values():
            if var.addrspace == AddressSpace.GLOBAL:
                nbytes = var.element_type.size_bytes() * var.count
                alloc = device.memory.allocate(nbytes, tag=f"@{var.name}")
                self.global_addrs[var.name] = alloc.base
                if var.initializer is not None:
                    data = np.asarray(
                        var.initializer, dtype=var.element_type.numpy_dtype()
                    )
                    device.memory.write_bytes(alloc.base, data)

        # Per-function CFG metadata.
        self._ipostdom: Dict[str, Dict[BasicBlock, Optional[BasicBlock]]] = {}
        self._first_non_phi: Dict[int, int] = {}
        for fn in module.functions.values():
            if fn.is_declaration:
                continue
            self._ipostdom[fn.name] = immediate_post_dominators(fn)
            for block in fn.blocks:
                index = 0
                for inst in block.instructions:
                    if not isinstance(inst, Phi):
                        break
                    index += 1
                self._first_non_phi[id(block)] = index

        # Function table for code-centric profiling: id <-> function.
        self.function_ids: Dict[str, int] = {}
        self.functions_by_id: List[Function] = []
        for fn in module.functions.values():
            if fn.kind in ("kernel", "device"):
                self.function_ids[fn.name] = len(self.functions_by_id)
                self.functions_by_id.append(fn)

        # Pre-decode every function body into micro-op arrays (the fast
        # path the interpreter executes; see repro.gpu.decode). The
        # device's JIT trace cache shares streams between images whose
        # module text is identical.
        self.decoded = device.jit_cache.decode(self)

    # -- queries used by the interpreter ------------------------------------
    def ipostdom(self, fn: Function, block: BasicBlock) -> Optional[BasicBlock]:
        return self._ipostdom[fn.name].get(block)

    def first_non_phi(self, block: BasicBlock) -> int:
        return self._first_non_phi.get(id(block), 0)

    def address_of(self, value) -> int:
        if isinstance(value, GlobalString):
            return self.string_addrs[value.name]
        if isinstance(value, GlobalVariable):
            if value.addrspace == AddressSpace.SHARED:
                return self.shared_offsets[value.name]
            return self.global_addrs[value.name]
        raise ExecutionError(f"no address for {value!r}")

    def constant_gather(self, addrs, mask, dtype) -> np.ndarray:
        result = np.zeros(len(addrs), dtype=dtype)
        if mask.any():
            active = addrs[mask]
            if int(active.max()) + dtype.itemsize > len(self._const_buf):
                raise ExecutionError("constant memory fault")
            if dtype.itemsize == 1:
                result[mask] = self._const_buf[active].view(dtype)
            else:
                result[mask] = self._const_buf.view(dtype)[active // dtype.itemsize]
        return result

    def string_at(self, addr: int) -> str:
        """Reverse-map a constant-arena address to its string."""
        for base, text in self._strings_by_addr:
            if base <= addr < base + len(text) + 1:
                return text[addr - base:]
        raise ExecutionError(f"no constant string at {addr:#x}")

    def kernel(self, name: str) -> Function:
        fn = self.module.get_function(name)
        if fn.kind != "kernel":
            raise LaunchError(f"@{name} is not a kernel")
        return fn


@dataclass
class LaunchResult:
    """Hardware-level statistics for one kernel launch."""

    kernel: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    cycles: float
    instructions: int
    transactions: int
    cache: CacheStats
    branches: int
    divergent_branches: int
    wall_seconds: float
    num_ctas: int
    warps_per_cta: int
    #: a threshold-sweep launch's cycles at every requested
    #: ``l1_warps_per_cta`` threshold (None for a single-threshold launch)
    cycles_by_threshold: Optional[Dict[Optional[int], float]] = None

    @property
    def l1_hit_rate(self) -> float:
        return self.cache.read_hit_rate


class _CTAContext:
    """Everything a warp needs to execute: per-CTA and per-SM resources."""

    def __init__(self, image, arch, global_mem, shared_mem, sm, hooks,
                 l1_warps_per_cta, cta_linear, pc_sampler=None):
        self.image = image
        self.arch = arch
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.l1 = sm.l1
        self.mshr = sm.mshr
        self.timing = sm.timing
        self.tape = sm.tape
        self.hooks = hooks
        self.l1_warps_per_cta = l1_warps_per_cta
        self.cta_linear = cta_linear
        self.pc_sampler = pc_sampler
        self.transactions = 0
        self.warps: List[Warp] = []

    def record_transactions(self, count: int) -> None:
        self.transactions += count


class _SM:
    """One streaming multiprocessor: an L1, MSHRs, a timing model.

    Given ``thresholds`` (a threshold-sweep launch), execution records
    the SM's cost events on ``tape`` instead, and :meth:`replay_tape`
    charges them once per threshold.
    """

    def __init__(self, arch: GPUArchitecture, params: TimingParams,
                 thresholds: Optional[Tuple[Optional[int], ...]] = None):
        self.arch = arch
        self.params = params
        self.thresholds = thresholds
        self._fresh_timing()
        self.tape = None if thresholds is None else TimingTape()
        if self.tape is not None:
            self.timing = self.tape
        self.cycles_by_threshold: Optional[Dict[Optional[int], float]] = None
        self.pending: List[_CTAContext] = []
        self.resident: List[_CTAContext] = []

    def _fresh_timing(self) -> None:
        arch = self.arch
        self.l1 = SetAssociativeCache(arch.l1_size, arch.l1_line_size, arch.l1_assoc)
        self.mshr = MSHRFile(arch.mshr_entries)
        self.timing = SMTimingModel(arch, self.params)

    def replay_tape(self) -> None:
        """Charge the recorded events once per threshold, in order.

        The SM keeps the last threshold's L1, MSHRs and timing, so its
        cycles and cache statistics are those of a launch at that
        threshold alone.
        """
        tape, self.tape = self.tape, None
        self.cycles_by_threshold = {}
        for threshold in self.thresholds:
            self._fresh_timing()
            tape.replay(self.timing, self.l1, self.mshr, threshold)
            self.cycles_by_threshold[threshold] = self.timing.cycles


class _NullHookRuntime:
    """Hook sink for uninstrumented launches."""

    def dispatch(self, name, args, mask, warp, ctx, nactive=None) -> None:  # pragma: no cover
        raise ExecutionError(
            f"instrumented code called hook @{name} but no hook runtime was "
            f"attached to the launch (pass hooks=... to Device.launch)"
        )

    def kernel_begin(self, launch_info) -> None:
        pass

    def kernel_end(self, result) -> None:
        pass


Dim = Union[int, Tuple[int, ...]]
#: one bypass threshold, or the tuple of a threshold-sweep launch
L1Thresholds = Union[None, int, Tuple[Optional[int], ...]]


def _max_by_threshold(
    parts: Iterable[Optional[Dict[Optional[int], float]]],
) -> Optional[Dict[Optional[int], float]]:
    """Per-threshold max over SMs (a launch ends with its slowest SM);
    None for a single-threshold launch."""
    parts = list(parts)
    if parts[0] is None:
        return None
    return {k: max(part[k] for part in parts) for k in parts[0]}


def _as_dim3(value: Dim) -> Tuple[int, int, int]:
    if isinstance(value, int):
        value = (value,)
    dims = tuple(value) + (1,) * (3 - len(value))
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise LaunchError(f"bad grid/block dimension {value!r}")
    return dims  # type: ignore[return-value]


class Device:
    """A simulated GPU."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40C,
        memory_capacity: int = 64 * 1024 * 1024,
        timing_params: Optional[TimingParams] = None,
    ):
        self.arch = arch
        self.memory = GlobalMemory(memory_capacity)
        self.timing_params = timing_params or TimingParams()
        #: "gto" runs each warp until its next global-memory access (or
        #: ``scheduler_quantum`` instructions) before rotating -- the
        #: greedy-then-oldest policy of real SMs, which lets warps drift
        #: apart. "rr" rotates after every instruction (lock-step).
        #: Neither reads cycles: threshold-sweep launches replay one
        #: execution's timing per threshold (docs/architecture.md).
        self.scheduler = "gto"
        self.scheduler_quantum = 48  # max instructions per warp per visit
        self.max_steps = 200_000_000
        #: "interpreter" steps each warp on its own; "batched" executes
        #: a CTA's lock-step warps as one numpy op per instruction and
        #: falls back to the interpreter per CTA on divergence or
        #: unsupported micro-ops (see docs/architecture.md). Both
        #: backends produce byte-identical traces and statistics.
        self.backend = "interpreter"
        self._launch_backend = "interpreter"  # resolved per launch
        self._launch_spec = None  # JIT spec resolved per batched launch
        #: per-kernel count of CTAs that fell back from the batched
        #: machine; once it reaches ``batch_fallback_limit`` later CTAs
        #: skip the batched attempt (a speed heuristic, never a
        #: semantic one -- fallbacks are always exact).
        self._batch_fallbacks: Dict[str, int] = {}
        self.batch_fallback_limit = 2
        #: max rows in a CTA *gang*: single-warp CTAs (where per-CTA
        #: batching has nothing to batch) fused into one lock-step
        #: machine, one CTA per row.
        self.batch_gang_width = 16
        self._jit_cache = None
        #: how launches react when they cannot run as requested:
        #: "strict" raises LaunchDegradedError, "degrade" (default)
        #: falls back with one warning per (reason, kernel), and
        #: "best_effort" falls back silently. See docs/reliability.md.
        self.failure_policy = "degrade"
        #: optional repro.reliability.FaultInjector for chaos testing.
        self.fault_injector = None
        self._supervisor: Optional[LaunchSupervisor] = None

    @property
    def supervisor(self) -> LaunchSupervisor:
        """The launch supervisor enforcing ``failure_policy`` (lazy)."""
        if self._supervisor is None:
            self._supervisor = LaunchSupervisor(self)
        return self._supervisor

    @property
    def jit_cache(self) -> JitTraceCache:
        """The per-kernel JIT trace cache (lazy; batched backend)."""
        if self._jit_cache is None:
            self._jit_cache = JitTraceCache(self.arch.name)
        return self._jit_cache

    # -- memory API (used by the host runtime) ---------------------------------
    def malloc(self, nbytes: int, tag: str = "") -> DevicePointer:
        return DevicePointer(self.memory.allocate(nbytes, tag))

    def free(self, pointer: DevicePointer) -> None:
        self.memory.free(pointer.allocation)

    def memcpy_htod(self, dst: DevicePointer, data: np.ndarray) -> None:
        if data.nbytes > dst.nbytes:
            raise LaunchError(
                f"memcpy of {data.nbytes} bytes into {dst.nbytes}-byte allocation"
            )
        self.memory.write_bytes(dst.addr, data)

    def memcpy_dtoh(self, src: DevicePointer, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = self.memory.read_bytes(src.addr, dtype.itemsize * count)
        return raw.view(dtype).copy()

    def load_module(self, module: Module) -> DeviceModuleImage:
        if module.target != "nvptx":
            raise LaunchError(f"module {module.name} is not a device module")
        return DeviceModuleImage(module, self)

    # -- launching ----------------------------------------------------------------
    def launch(
        self,
        image: DeviceModuleImage,
        kernel_name: str,
        grid: Dim,
        block: Dim,
        args: Sequence[object],
        hooks=None,
        l1_warps_per_cta: Union[None, int, Sequence[Optional[int]]] = None,
        pc_sampler=None,
    ) -> LaunchResult:
        """Run one kernel to completion.

        ``l1_warps_per_cta`` activates the horizontal-bypass threshold for
        loads/stores carrying the ``dyn`` cache operator (Listing 5 of the
        paper): warps with index >= threshold bypass L1.

        A *sequence* of thresholds makes a threshold-sweep launch: the
        kernel executes once, each SM records its cost events, and the
        events are replayed through a fresh L1, MSHR file and timing
        model per threshold (the threshold only changes timing, never
        execution). ``result.cycles_by_threshold`` maps every threshold
        to the cycles a launch at that threshold alone would take; the
        result's ``cycles``, ``cache`` and ``transactions`` are those of
        a launch at the last threshold. Trace, memory and instruction
        counts are those of any single launch.

        ``pc_sampler`` attaches a :class:`~repro.profiler.pc_sampling.
        PCSampler` (the sparse hardware-sampling baseline).
        """
        start = time.perf_counter()
        if not (l1_warps_per_cta is None
                or isinstance(l1_warps_per_cta, (int, np.integer))):
            l1_warps_per_cta = tuple(l1_warps_per_cta)
            if not l1_warps_per_cta:
                raise LaunchError("a threshold sweep needs a threshold")
        if self.backend not in ("interpreter", "batched"):
            raise LaunchError(
                f"unknown execution backend {self.backend!r}: expected "
                f"'interpreter' or 'batched'"
            )
        self.supervisor.policy  # an unknown failure policy fails here
        backend = self.backend
        if backend == "batched" and pc_sampler is not None:
            self.supervisor.degrade(
                PC_SAMPLING_BATCHED,
                kernel_name,
                "pc sampling needs per-instruction stepping: this launch "
                "falls back from the batched backend to the interpreter",
                backend=backend,
            )
            backend = "interpreter"
        if pc_sampler is not None and hooks is not None:
            # Sample attribution reads the raw trace records.
            hooks.keep_records()
        self._launch_backend = backend
        self._launch_spec = (
            self.jit_cache.specialize(image, kernel_name)
            if backend == "batched"
            else None
        )
        kernel = image.kernel(kernel_name)
        grid3 = _as_dim3(grid)
        block3 = _as_dim3(block)
        threads_per_cta = block3[0] * block3[1] * block3[2]
        if threads_per_cta > self.arch.max_threads_per_cta:
            raise LaunchError(f"block of {threads_per_cta} threads is too large")
        bound_args = self._bind_args(kernel, args)
        hooks = hooks if hooks is not None else _NullHookRuntime()

        warp_size = self.arch.warp_size
        warps_per_cta = (threads_per_cta + warp_size - 1) // warp_size
        num_ctas = grid3[0] * grid3[1] * grid3[2]

        hooks.kernel_begin(
            {
                "kernel": kernel_name,
                "grid": grid3,
                "block": block3,
                "image": image,
                "num_ctas": num_ctas,
                "warps_per_cta": warps_per_cta,
            }
        )

        sms = self._build_sms(
            image, kernel_name, grid3, block3, bound_args, hooks,
            l1_warps_per_cta, pc_sampler, warps_per_cta,
        )
        if self._launch_backend == "batched":
            form_launch_gangs(self, sms, image, self.max_steps)
        total_steps = 0
        for index in sorted(sms):
            total_steps += self._run_sm_any(
                sms[index], image, total_budget=self.max_steps
            )
        result = self._collect_result(
            kernel_name, grid3, block3, sms, total_steps, num_ctas,
            warps_per_cta, start,
        )
        hooks.kernel_end(result)
        return result

    def _build_sms(
        self,
        image: DeviceModuleImage,
        kernel_name: str,
        grid3: Tuple[int, int, int],
        block3: Tuple[int, int, int],
        bound_args: List[object],
        hooks,
        l1_warps_per_cta: L1Thresholds,
        pc_sampler,
        warps_per_cta: int,
    ) -> Dict[int, _SM]:
        """Build SMs and their CTAs, round-robin over the grid.

        A tuple ``l1_warps_per_cta`` builds threshold-sweep SMs.
        """
        decoded = image.decoded[kernel_name]
        warp_size = self.arch.warp_size
        num_sms = self.arch.num_sms
        thresholds = None
        if isinstance(l1_warps_per_cta, tuple):
            thresholds, l1_warps_per_cta = l1_warps_per_cta, None
        sms = {i: _SM(self.arch, self.timing_params, thresholds)
               for i in range(num_sms)}
        global_warp_id = 0
        cta_linear = 0
        for cz in range(grid3[2]):
            for cy in range(grid3[1]):
                for cx in range(grid3[0]):
                    sm = sms[cta_linear % num_sms]
                    ctx = _CTAContext(
                        image,
                        self.arch,
                        self.memory,
                        SharedMemory(image.shared_bytes_per_cta),
                        sm,
                        hooks,
                        l1_warps_per_cta,
                        cta_linear,
                        pc_sampler=pc_sampler,
                    )
                    for w in range(warps_per_cta):
                        warp = Warp(
                            warp_size,
                            global_warp_id,
                            w,
                            (cx, cy, cz),
                            cta_linear,
                            block3,
                            grid3,
                            w * warp_size,
                        )
                        warp.local_mem = LocalMemory(warp_size)
                        frame = warp.push_frame(decoded, warp.resident_mask)
                        for arg_value, slot in zip(bound_args, decoded.arg_slots):
                            frame.regs[slot] = arg_value
                        ctx.warps.append(warp)
                        global_warp_id += 1
                    sm.pending.append(ctx)
                    cta_linear += 1
        return sms

    def _collect_result(
        self,
        kernel_name: str,
        grid3: Tuple[int, int, int],
        block3: Tuple[int, int, int],
        sms: Dict[int, _SM],
        total_steps: int,
        num_ctas: int,
        warps_per_cta: int,
        start: float,
    ) -> LaunchResult:
        result = LaunchResult(
            kernel=kernel_name,
            grid=grid3,
            block=block3,
            cycles=max(sm.timing.cycles for sm in sms.values()),
            cycles_by_threshold=_max_by_threshold(
                sm.cycles_by_threshold for sm in sms.values()
            ),
            instructions=total_steps,
            transactions=sum(
                c.transactions for sm in sms.values() for c in sm.resident
            ),
            cache=self._merge_cache_stats(list(sms.values())),
            branches=0,
            divergent_branches=0,
            wall_seconds=time.perf_counter() - start,
            num_ctas=num_ctas,
            warps_per_cta=warps_per_cta,
        )
        for sm in sms.values():
            for ctx in sm.resident:
                for warp in ctx.warps:
                    result.branches += warp.branch_count
                    result.divergent_branches += warp.divergent_branch_count
        return result

    def _merge_cache_stats(self, sms: List[_SM]) -> CacheStats:
        merged = CacheStats()
        for sm in sms:
            merged.merge(sm.l1.stats)
        return merged

    def _bind_args(self, kernel: Function, args: Sequence[object]) -> List[object]:
        if len(args) != len(kernel.args):
            raise LaunchError(
                f"kernel @{kernel.name} takes {len(kernel.args)} arguments, "
                f"got {len(args)}"
            )
        bound: List[object] = []
        for formal, actual in zip(kernel.args, args):
            t = formal.type
            if isinstance(t, PointerType):
                if isinstance(actual, DevicePointer):
                    bound.append(np.int64(actual.addr))
                elif isinstance(actual, (int, np.integer)):
                    bound.append(np.int64(actual))
                else:
                    raise LaunchError(
                        f"argument {formal.name!r} expects a device pointer"
                    )
            elif isinstance(t, IntType):
                bound.append(t.numpy_dtype().type(actual))
            elif isinstance(t, FloatType):
                bound.append(t.numpy_dtype().type(actual))
            else:
                raise LaunchError(f"unsupported parameter type {t}")
        return bound

    def _run_sm_any(
        self, sm: _SM, image: DeviceModuleImage, total_budget: int
    ) -> int:
        """Run one SM on the backend resolved for the current launch.

        A threshold-sweep SM replays its tape as soon as it finishes:
        every cost event of an SM is charged while that SM runs.
        """
        if self._launch_backend == "batched":
            steps = run_sm_batched(self, sm, image, total_budget)
        else:
            steps = self._run_sm(sm, image, total_budget)
        if sm.tape is not None:
            sm.replay_tape()
        return steps

    def _visit_warp(
        self,
        interp: WarpInterpreter,
        warp: Warp,
        quantum: int,
        rotate_on_mem: bool,
        steps: int,
        total_budget: int,
    ) -> int:
        """One scheduler visit: step ``warp`` up to ``quantum`` times.

        Returns the updated SM step count; callers detect progress by
        comparing it with the value they passed in. Shared by the serial
        driver below and the batched backend's de-batch fallback.
        """
        for _ in range(quantum):
            try:
                outcome = interp.step(warp)
            except BarrierReached:
                warp.status = WarpStatus.AT_BARRIER
                break
            steps += 1
            if warp.done:
                break
            if steps > total_budget:
                raise ExecutionError(
                    "kernel exceeded the step budget (infinite loop?)"
                )
            if rotate_on_mem and outcome == "mem":
                break
        return steps

    def _run_sm(self, sm: _SM, image: DeviceModuleImage, total_budget: int) -> int:
        """Run one SM's CTAs to completion; returns instructions executed."""
        steps = 0
        quantum = self.scheduler_quantum if self.scheduler == "gto" else 1
        rotate_on_mem = self.scheduler == "gto"
        finished: List[_CTAContext] = []

        # Occupancy: CTA residency is limited by the hardware cap and by
        # shared-memory capacity (each CTA reserves its static arena).
        max_resident = self.arch.max_ctas_per_sm
        if image.shared_bytes_per_cta > 0:
            by_shared = self.arch.shared_mem_per_sm // image.shared_bytes_per_cta
            max_resident = max(1, min(max_resident, by_shared))

        def refill() -> None:
            while sm.pending and len(
                [c for c in sm.resident if c not in finished]
            ) < max_resident:
                ctx = sm.pending.pop(0)
                ctx.interp = WarpInterpreter(ctx)
                sm.resident.append(ctx)
            live_warps = sum(
                1
                for c in sm.resident
                if c not in finished
                for w in c.warps
                if not w.done
            )
            sm.timing.set_resident_warps(live_warps)

        refill()
        while True:
            active_ctxs = [c for c in sm.resident if c not in finished]
            if not active_ctxs:
                break
            progressed = False
            for ctx in active_ctxs:
                cta_progress = False
                for warp in ctx.warps:
                    if warp.status != WarpStatus.READY:
                        continue
                    before = steps
                    steps = self._visit_warp(
                        ctx.interp, warp, quantum, rotate_on_mem, steps,
                        total_budget,
                    )
                    cta_progress = cta_progress or steps != before
                    progressed = progressed or cta_progress
                # Barrier release: all live warps waiting.
                live = [w for w in ctx.warps if not w.done]
                if live and all(w.status == WarpStatus.AT_BARRIER for w in live):
                    for w in live:
                        w.status = WarpStatus.READY
                    progressed = True
                if all(w.done for w in ctx.warps):
                    finished.append(ctx)
                    refill()
            if not progressed:
                raise ExecutionError(
                    "SM deadlock: warps waiting at a barrier that can never "
                    "complete (diverged exits before __syncthreads()?)"
                )
        return steps
