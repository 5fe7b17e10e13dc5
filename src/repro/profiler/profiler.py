"""The per-launch hook runtime and the resulting kernel profile.

One :class:`HookRuntime` exists per kernel launch (the paper's "online
component ... invoked at the end of each kernel instance"). During the
launch it receives every hook call from the interpreter; at kernel exit
(`kernel_end`) it drains the device trace buffers into an immutable
:class:`KernelProfile` that the analyzers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProfilerError
from repro.host.shadow_stack import HostFrame
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
    clip_to_capacity,
    stride_sample,
)
from repro.reliability.spill import SpillConfig
from repro.reliability.supervisor import TRACE_SEGMENT_CORRUPT
from repro.profiler.codecentric import CallPathRegistry, GPUPathEntry
from repro.profiler.streamdrain import FusedSink, StreamedRecords
from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
    MemoryOp,
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
    #: Sequence of records; the fast path stores MemoryColumns /
    #: BlockColumns / ArithColumns (lazy record views over numpy
    #: columns), hand-built profiles may use plain lists.
    memory_records: Sequence[MemoryAccessRecord]
    block_records: Sequence[BlockRecord]
    arith_records: Sequence[ArithRecord]
    call_paths: CallPathRegistry
    functions_by_id: list
    dropped_records: int
    launch_result: object = None  # LaunchResult, attached at kernel_end
    #: rows that overflowed to disk spill segments during the launch
    #: (lossless; see docs/reliability.md) and rows lost to corrupted
    #: segments (already included in ``dropped_records``).
    spilled_records: int = 0
    corrupt_records: int = 0
    #: fused analysis only: the finalized-on-demand
    #: :class:`~repro.analysis.aggregates.AnalyzerBank` holding every
    #: analyzer's partial aggregate (the records above are
    #: :class:`~repro.profiler.streamdrain.StreamedRecords`
    #: placeholders), plus the sink's counters for reporting.
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
        spill: Optional[SpillConfig] = None,
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
        #: is a drain-time stride filter over the merged trace (see
        #: :func:`repro.profiler.buffers.stride_sample`), so sampled
        #: launches still use the parallel/batched fast paths; the
        #: memory/arith buffers run uncapped during the launch and the
        #: capacity is applied to the filtered rows at kernel_end.
        self.sample_rate = sample_rate
        self._capacity = buffer_capacity
        #: an :class:`~repro.analysis.aggregates.AnalyzerPlan` (or None):
        #: fused in-flight analysis -- the buffers flush into the plan's
        #: bank at segment granularity *during* execution (no spill I/O,
        #: no drain pass; see streamdrain.FusedSink) and the profile
        #: carries ``aggregates`` + StreamedRecords placeholders.
        #: Disabled per launch when raw records are needed
        #: (``disable_fused``). The plan itself is never pickled --
        #: shard workers inherit it through fork.
        self._fused = fused
        self._shard_states: List[dict] = []

        # -- reliability wiring (docs/reliability.md) ---------------------
        # The device's failure policy picks the drain-time behaviour for
        # corrupted spill segments, and its fault injector can force a
        # tiny spill-segment size (the buffer_overflow injection point)
        # so overflow handling is exercised without a huge trace.
        device = getattr(image, "device", None)
        policy = getattr(device, "failure_policy", "degrade")
        injector = getattr(device, "fault_injector", None)
        if injector is not None:
            params = injector.fire("buffer_overflow", kernel=kernel)
            if params is not None:
                spill = SpillConfig(
                    directory=spill.directory if spill else None,
                    segment_rows=int(params.get("segment_rows", 256)),
                )
        if spill is not None:
            spill.on_corrupt = "raise" if policy == "strict" else "drop"
            spill.injector = injector
        self._spill = spill

        event_capacity = buffer_capacity if sample_rate == 1 else None
        # Fused launches never spill: rows leave the buffers through the
        # sink before a segment could hit disk. The buffer_overflow
        # injection's tiny segment size still applies -- as the flush
        # granularity -- so overflow handling stays exercised.
        buffer_spill = None if fused is not None else spill
        self.memory_buffer = ColumnarMemoryBuffer(event_capacity, buffer_spill)
        self.block_buffer = ColumnarBlockBuffer(buffer_capacity, buffer_spill)
        self.arith_buffer = ColumnarArithBuffer(event_capacity, buffer_spill)
        self.call_paths = CallPathRegistry()

        self._fused_sink = None
        self._fused_flush_rows = (
            spill.segment_rows if spill is not None else 65536
        )
        if fused is not None:
            self._attach_fused_sink()

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

    def _attach_fused_sink(self) -> None:
        """Wire the current buffers into a fresh fused bank."""
        self._fused_sink = FusedSink(
            self._fused.create_bank(), self.memory_buffer,
            self.block_buffer, self.arith_buffer, self._fused_flush_rows,
            self.sample_rate, self._capacity,
        )

    @property
    def fused(self) -> bool:
        """Whether this launch analyzes rows in flight (no raw trace)."""
        return self._fused is not None

    def disable_fused(self) -> None:
        """Back out of fused mode before any hook fires.

        Called by ``Device.launch`` (after degrading with
        ``FUSED_RECORDS_UNAVAILABLE``) when the launch needs raw trace
        records -- e.g. pc sampling. The buffers are still empty, so
        they are rebuilt with the classic capacity/spill wiring and the
        launch materializes its trace exactly as a non-fused run.
        """
        if self._fused is None:
            return
        self._fused_sink.detach()
        self._fused = None
        self._fused_sink = None
        event_capacity = (
            self._capacity if self.sample_rate == 1 else None
        )
        self.memory_buffer = ColumnarMemoryBuffer(event_capacity, self._spill)
        self.block_buffer = ColumnarBlockBuffer(self._capacity, self._spill)
        self.arith_buffer = ColumnarArithBuffer(event_capacity, self._spill)

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
        if self._fused is not None:
            self._kernel_end_fused(launch_result)
            return
        info = self._launch_info or {}
        memory = self.memory_buffer.drain()
        arith = self.arith_buffer.drain()
        block = self.block_buffer.drain()
        clipped = 0
        if self.sample_rate > 1:
            memory, arith = stride_sample(memory, arith, self.sample_rate)
            memory, n = clip_to_capacity(memory, self._capacity)
            clipped += n
            arith, n = clip_to_capacity(arith, self._capacity)
            clipped += n
        buffers = (self.memory_buffer, self.block_buffer, self.arith_buffer)
        corrupt = sum(b.corrupt_dropped for b in buffers)
        if corrupt:
            self._report_corruption(corrupt)
        self.profile = KernelProfile(
            kernel=self.kernel,
            host_call_path=self.host_call_path,
            launch_site=self.launch_site,
            grid=info.get("grid", (0, 0, 0)),
            block=info.get("block", (0, 0, 0)),
            num_ctas=info.get("num_ctas", 0),
            warps_per_cta=info.get("warps_per_cta", 0),
            memory_records=memory,
            block_records=block,
            arith_records=arith,
            call_paths=self.call_paths,
            functions_by_id=self.image.functions_by_id,
            dropped_records=(
                self.memory_buffer.dropped
                + self.block_buffer.dropped
                + self.arith_buffer.dropped
                + clipped
            ),
            launch_result=launch_result,
            spilled_records=sum(b.spilled for b in buffers),
            corrupt_records=corrupt,
        )
        if self.on_complete is not None:
            self.on_complete(self.profile)

    def _kernel_end_fused(self, launch_result) -> None:
        """Seal the in-flight bank: the trace was analyzed as it ran.

        Own rows already streamed through the fused sink during
        execution (only a sub-segment tail remains to flush). Shard
        states merge first, in SM order, which is safe because a
        fork-parallel launch never dispatches hooks in the parent, so
        the sink's cursors are untouched until this point. Fused
        buffers never spill, so there is no spill or corruption
        accounting to collect.
        """
        info = self._launch_info or {}
        sink = self._fused_sink
        states, self._shard_states = self._shard_states, []
        for state in states:
            if "bank" in state:
                sink.bank.merge(state["bank"])
                sink.stats.absorb(state["stats"])
            else:
                sink.relay(state)
        sink.flush()
        sink.bank.seal()
        stats = sink.stats
        buffers = (self.memory_buffer, self.block_buffer, self.arith_buffer)
        self.profile = KernelProfile(
            kernel=self.kernel,
            host_call_path=self.host_call_path,
            launch_site=self.launch_site,
            grid=info.get("grid", (0, 0, 0)),
            block=info.get("block", (0, 0, 0)),
            num_ctas=info.get("num_ctas", 0),
            warps_per_cta=info.get("warps_per_cta", 0),
            memory_records=StreamedRecords("memory", stats.memory_rows),
            block_records=StreamedRecords("block", stats.block_rows),
            arith_records=StreamedRecords("arith", stats.arith_rows),
            call_paths=self.call_paths,
            functions_by_id=self.image.functions_by_id,
            dropped_records=sum(b.dropped for b in buffers) + sink.clipped,
            launch_result=launch_result,
            aggregates=sink.bank,
            stream_stats=stats.as_dict(),
        )
        if self.on_complete is not None:
            self.on_complete(self.profile)

    def _report_corruption(self, rows: int) -> None:
        """Surface dropped-corrupt-segment rows through the supervisor."""
        device = getattr(self.image, "device", None)
        supervisor = getattr(device, "supervisor", None)
        if supervisor is not None:
            supervisor.degrade(
                TRACE_SEGMENT_CORRUPT,
                self.kernel,
                f"{rows} trace rows lost to corrupted spill segments "
                f"for kernel {self.kernel!r}; analyses run on the "
                f"surviving rows",
                rows=rows,
            )

    # -- parallel-launch sharding -------------------------------------------------------
    def reset_for_shard(self) -> None:
        """Reinitialize trace state inside a forked shard worker.

        Shard buffers are uncapped: the parent enforces the global
        capacity when it absorbs the shards in SM order, so the drop set
        matches a serial run exactly. In-RAM shards keep spill active (a
        shard's segments are written and drained inside the worker);
        fused shards never spill.
        """
        shard_spill = None if self._fused is not None else self._spill
        self.memory_buffer = ColumnarMemoryBuffer(None, shard_spill)
        self.block_buffer = ColumnarBlockBuffer(None, shard_spill)
        self.arith_buffer = ColumnarArithBuffer(None, shard_spill)
        self.call_paths = CallPathRegistry()
        self._seq = 0
        self._warp_stacks = {}
        self._warp_path_ids = {}
        self._shard_states = []
        if self._fused is not None:
            if self.sample_rate == 1 and self._capacity is None:
                # The shard's kept rows are exactly its trace, so it
                # can fuse locally and ship its bank.
                self._attach_fused_sink()
            else:
                # Stride phase / keep-first cutoff depend on earlier
                # shards' row counts: materialize in RAM and relay the
                # rows for the parent's running cursors.
                self._fused_sink = None

    def export_shard(self) -> dict:
        """Pickleable trace state a shard worker sends back."""
        if self._fused is not None:
            return self._export_shard_fused()
        return {
            "memory": self.memory_buffer.drain(),
            "block": self.block_buffer.drain(),
            "arith": self.arith_buffer.drain(),
            "paths": list(self.call_paths._paths),
            "seq_total": self._seq,
        }

    def _export_shard_fused(self) -> dict:
        """State a fused shard worker ships back to the parent.

        With no sampling and no capacity the worker's rows already live
        in its fused bank (flush the tail, ship the bank); otherwise the
        worker materialized its rows in RAM (it never spills) and
        relays them as column views for the parent's
        :meth:`FusedSink.relay`.
        """
        state = {
            "paths": list(self.call_paths._paths),
            "seq_total": self._seq,
        }
        if self._fused_sink is not None:
            self._fused_sink.flush()
            state["bank"] = self._fused_sink.bank
            state["stats"] = self._fused_sink.stats.as_dict()
        else:
            state["memory"] = self.memory_buffer.detach_rows()
            state["block"] = self.block_buffer.detach_rows()
            state["arith"] = self.arith_buffer.detach_rows()
        return state

    def absorb_shards(self, shard_states) -> None:
        """Merge shard traces back, in SM order, as if run serially.

        Sequence numbers are renumbered with a running offset (all three
        buffers share one counter, so a shard's local seqs are already
        dense and ordered), and call-path ids are re-interned into the
        parent registry in shard order -- first-encounter order across
        the concatenated stream, identical to a serial run.
        """
        if self._fused is not None:
            # Fused mode defers consumption to kernel_end: stash the
            # states in SM order, keep the call-path registry's
            # first-encounter order identical to the in-RAM remap, and
            # advance the seq counter. Relayed columns keep their
            # worker-local seqs / path ids -- the sink's running rank
            # only needs within-shard seq order, and no aggregate
            # reads call_path_id.
            for state in shard_states:
                for p in state["paths"]:
                    self.call_paths.intern(p)
                self._seq += state["seq_total"]
                self._shard_states.append(state)
            return
        for state in shard_states:
            remap = np.array(
                [self.call_paths.intern(p) for p in state["paths"]],
                dtype=np.int64,
            )
            offset = self._seq
            for cols, buffer in (
                (state["memory"], self.memory_buffer),
                (state["block"], self.block_buffer),
                (state["arith"], self.arith_buffer),
            ):
                if len(cols):
                    cols.seq = cols.seq + offset
                    cols.call_path_id = remap[cols.call_path_id]
                buffer.extend(cols)
            self._seq += state["seq_total"]

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
