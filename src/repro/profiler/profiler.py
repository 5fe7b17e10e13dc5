"""The per-launch hook runtime and the resulting kernel profile.

One :class:`HookRuntime` exists per kernel launch (the paper's "online
component ... invoked at the end of each kernel instance"). During the
launch it receives every hook call from the interpreter and appends
trace rows to the device trace buffers; one
:class:`~repro.profiler.streamdrain.FusedSink` moves them out as they
fill, into the session's analyzer bank and/or the kept records. At
kernel exit (`kernel_end`) the sink's outputs become an immutable
:class:`KernelProfile` that the analyzers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProfilerError
from repro.host.shadow_stack import HostFrame
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
)
from repro.profiler.codecentric import CallPathRegistry, GPUPathEntry
from repro.profiler.streamdrain import DEFAULT_FLUSH_ROWS, FusedSink
from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
)


@dataclass
class KernelProfile:
    """Everything collected for one kernel instance."""

    kernel: str
    host_call_path: Tuple[HostFrame, ...]
    launch_site: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    num_ctas: int
    warps_per_cta: int
    #: Kept records are MemoryColumns / BlockColumns / ArithColumns
    #: (lazy record views over numpy columns), the form the analyzers
    #: consume; a profile analyzed in flight without kept records holds
    #: StreamedRecords placeholders.
    memory_records: Sequence[MemoryAccessRecord]
    block_records: Sequence[BlockRecord]
    arith_records: Sequence[ArithRecord]
    call_paths: CallPathRegistry
    functions_by_id: list
    dropped_records: int
    launch_result: object = None  # LaunchResult, attached at kernel_end
    #: fused analysis only: the finalized-on-demand
    #: :class:`~repro.analysis.aggregates.AnalyzerBank` holding every
    #: analyzer's partial aggregate, plus the sink's counters for
    #: reporting.
    aggregates: object = None
    stream_stats: Optional[dict] = None

    # -- convenience -----------------------------------------------------------
    def memory_records_by_cta(self) -> Dict[int, List[MemoryAccessRecord]]:
        """Regroup the trace per CTA (the paper's reuse-distance prep)."""
        grouped: Dict[int, List[MemoryAccessRecord]] = {}
        for record in self.memory_records:
            grouped.setdefault(record.cta, []).append(record)
        return grouped


class HookRuntime:
    """Receives instrumented-call events for one launch."""

    def __init__(
        self,
        image,
        kernel: str,
        host_call_path: Tuple[HostFrame, ...],
        launch_site: str,
        buffer_capacity: Optional[int] = None,
        sample_rate: int = 1,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        fused=None,
    ):
        if sample_rate < 1:
            raise ProfilerError("sample_rate must be >= 1")
        self.image = image
        self.kernel = kernel
        self.host_call_path = host_call_path
        self.launch_site = launch_site
        #: record every Nth memory/arith event (the paper's Section 5
        #: overhead-reduction direction); call-path and block events are
        #: never sampled (the shadow stacks must stay exact). Sampling
        #: and the keep-first capacity are applied by the sink to each
        #: flushed window of the merged trace, so sampled launches still
        #: use the batched fast path.
        self.sample_rate = sample_rate

        # The fault injector's buffer_overflow point forces a tiny
        # flush size, so mid-launch flushing is exercised without a
        # huge trace (docs/reliability.md).
        injector = getattr(getattr(image, "device", None),
                           "fault_injector", None)
        if injector is not None:
            params = injector.fire("buffer_overflow", kernel=kernel)
            if params is not None:
                flush_rows = int(params.get("segment_rows", 256))

        self.call_paths = CallPathRegistry()
        # ``fused`` is an AnalyzerPlan (or None): with a plan, kept rows
        # feed the plan's bank *during* execution and the profile
        # carries ``aggregates``; without one, the kept rows become the
        # profile's records.
        self.memory_buffer = ColumnarMemoryBuffer()
        self.block_buffer = ColumnarBlockBuffer()
        self.arith_buffer = ColumnarArithBuffer()
        self._sink = FusedSink(
            None if fused is None else fused.create_bank(),
            self.memory_buffer, self.block_buffer, self.arith_buffer,
            flush_rows, sample_rate, buffer_capacity, keep=fused is None,
        )

        self._seq = 0
        self._launch_info: Optional[dict] = None
        #: per-warp shadow stacks: global warp id -> list[GPUPathEntry]
        self._warp_stacks: Dict[int, List[GPUPathEntry]] = {}
        #: per-warp interned path id, invalidated by cupr.push/pop
        self._warp_path_ids: Dict[int, int] = {}
        #: constant-arena address -> string (string_at scans linearly)
        self._strings: Dict[int, str] = {}
        self._root_entry: Optional[GPUPathEntry] = None
        self.profile: Optional[KernelProfile] = None
        self.on_complete = None  # callable(profile), set by the session

    def keep_records(self) -> None:
        """Keep this launch's raw trace records (call before launch).

        ``Device.launch`` calls this for launches whose consumers need
        the records, e.g. pc sampling; a bank, if any, is still fed.
        """
        self._sink.keep_records()

    # -- interpreter-facing API -----------------------------------------------------
    def kernel_begin(self, launch_info: dict) -> None:
        self._launch_info = launch_info
        kernel_id = self.image.function_ids[self.kernel]
        self._root_entry = GPUPathEntry(kernel_id, 0, 0)

    def dispatch(self, name: str, args, mask, warp, ctx, nactive=None) -> None:
        if name == "Record":
            self._on_record(args, mask, warp)
        elif name == "passBasicBlock":
            self._on_block(args, mask, warp, nactive)
        elif name == "RecordArith":
            self._on_arith(args, mask, warp, nactive)
        elif name == "cupr.push":
            self._on_push(args, warp)
        elif name == "cupr.pop":
            self._on_pop(warp)
        else:
            raise ProfilerError(f"unknown hook @{name}")

    def kernel_end(self, launch_result) -> None:
        """Seal the launch's trace into its :class:`KernelProfile`.

        Rows already left the buffers through the sink during execution
        (only a sub-flush tail remains).
        """
        info = self._launch_info or {}
        self.profile = KernelProfile(
            kernel=self.kernel,
            host_call_path=self.host_call_path,
            launch_site=self.launch_site,
            grid=info.get("grid", (0, 0, 0)),
            block=info.get("block", (0, 0, 0)),
            num_ctas=info.get("num_ctas", 0),
            warps_per_cta=info.get("warps_per_cta", 0),
            call_paths=self.call_paths,
            functions_by_id=self.image.functions_by_id,
            launch_result=launch_result,
            **self._sink.finish(),
        )
        if self.on_complete is not None:
            self.on_complete(self.profile)

    # -- hook implementations ----------------------------------------------------------
    def _current_path_id(self, warp) -> int:
        wid = warp.global_warp_id
        path_id = self._warp_path_ids.get(wid)
        if path_id is None:
            stack = self._warp_stacks.get(wid)
            if stack is None:
                stack = [self._root_entry]
                self._warp_stacks[wid] = stack
            path_id = self.call_paths.intern(tuple(stack))
            self._warp_path_ids[wid] = path_id
        return path_id

    def _string_at(self, addr: int) -> str:
        text = self._strings.get(addr)
        if text is None:
            text = self.image.string_at(addr)
            self._strings[addr] = text
        return text

    def _on_record(self, args, mask, warp) -> None:
        addrs = np.asarray(args[0])
        if addrs.ndim == 0:
            addrs = np.full(warp.warp_size, int(addrs), dtype=np.int64)
        seq = self._seq
        self._seq += 1
        self.memory_buffer.append(
            seq,
            warp.cta_linear,
            warp.warp_in_cta,
            addrs,
            mask,
            int(args[1]),
            int(args[2]),
            int(args[3]),
            int(args[4]),
            self._current_path_id(warp),
        )

    def _on_block(self, args, mask, warp, nactive=None) -> None:
        a0 = args[0]
        name = self._string_at(a0 if type(a0) is int else int(a0) if a0.ndim == 0 else int(a0.flat[0]))
        seq = self._seq
        self._seq += 1
        self.block_buffer.append(
            seq,
            warp.cta_linear,
            warp.warp_in_cta,
            name,
            int(args[1]),
            int(args[2]),
            nactive if nactive is not None else int(mask.sum()),
            int(warp.resident_mask.sum()),
            self._current_path_id(warp),
        )

    def _on_arith(self, args, mask, warp, nactive=None) -> None:
        a0 = args[0]
        opcode = self._string_at(a0 if type(a0) is int else int(a0) if a0.ndim == 0 else int(a0.flat[0]))
        seq = self._seq
        self._seq += 1
        self.arith_buffer.append(
            seq,
            warp.cta_linear,
            warp.warp_in_cta,
            opcode,
            int(args[1]),
            bool(int(args[2])),
            int(args[3]),
            int(args[4]),
            nactive if nactive is not None else int(mask.sum()),
            self._current_path_id(warp),
        )

    def _on_push(self, args, warp) -> None:
        stack = self._warp_stacks.setdefault(
            warp.global_warp_id, [self._root_entry]
        )
        stack.append(GPUPathEntry(int(args[0]), int(args[1]), int(args[2])))
        self._warp_path_ids.pop(warp.global_warp_id, None)

    def _on_pop(self, warp) -> None:
        stack = self._warp_stacks.get(warp.global_warp_id)
        if not stack or len(stack) <= 1:
            raise ProfilerError("GPU shadow-stack underflow (unbalanced pops)")
        stack.pop()
        self._warp_path_ids.pop(warp.global_warp_id, None)
