"""The device-resident trace buffers.

"CUDAAdvisor stores this trace in a buffer located in GPU's global
memory" (Section 4.2-A); at kernel exit the buffer is copied to the
host. Two implementations model that:

* :class:`DeviceTraceBuffer` -- the original row-oriented buffer of
  record objects (kept for tooling and tests that build traces by
  hand).
* The **columnar** buffers (:class:`ColumnarMemoryBuffer`,
  :class:`ColumnarBlockBuffer`, :class:`ColumnarArithBuffer`) -- the
  fast path the hook runtime uses. Events append into preallocated
  structure-of-arrays numpy columns (chunked doubling growth, same
  capacity/drop semantics), so an instrumented event costs a handful of
  scalar stores instead of a dataclass plus two array allocations.
  ``drain()`` hands back a :class:`MemoryColumns` /
  :class:`BlockColumns` / :class:`ArithColumns` view that the analyzers
  consume vectorized; each view still behaves as a sequence of the
  classic record dataclasses (materialized lazily per index) for
  compatibility.

Columnar buffers are **spill-safe**: with a
:class:`~repro.reliability.spill.SpillConfig` attached, a buffer that
reaches ``segment_rows`` in-memory rows writes the segment to disk
(checksummed; see :mod:`repro.reliability.spill`) and keeps appending;
``drain()`` reads the segments back in order and concatenates them with
the in-memory tail, so the drained stream is byte-identical to an
all-in-memory run. ``capacity`` counts *total* retained rows (memory +
disk); ``spilled`` / ``corrupt_dropped`` expose the accounting that
``analysis/report.py`` surfaces.
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

import numpy as np

from repro.errors import TraceCorruptionError
from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
    MemoryOp,
)
from repro.reliability.spill import (
    SpillConfig,
    discard_segment,
    read_segment,
    write_segment,
)

T = TypeVar("T")


class DeviceTraceBuffer(Generic[T]):
    """Bounded append-only event buffer."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._entries: List[T] = []
        self.dropped = 0
        self.total_appended = 0

    def append(self, entry: T) -> bool:
        """Append; returns False (and counts a drop) when full."""
        self.total_appended += 1
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self.dropped += 1
            return False
        self._entries.append(entry)
        return True

    def drain(self) -> List[T]:
        """The device-to-host copy at kernel exit; empties the buffer."""
        entries = self._entries
        self._entries = []
        return entries

    def __len__(self) -> int:
        return len(self._entries)


#: Initial allocation (rows) of a columnar buffer; doubles as it fills.
_INITIAL_ROWS = 1024


class _ColumnarBase:
    """Shared capacity/drop bookkeeping, chunked growth, disk spill."""

    #: spill-segment file prefix; overridden per concrete buffer.
    _KIND = "columnar"

    def __init__(self, capacity: Optional[int] = None,
                 spill: Optional[SpillConfig] = None):
        self.capacity = capacity
        self.spill = spill
        self.dropped = 0
        self.total_appended = 0
        #: rows written to disk segments over this buffer's lifetime.
        self.spilled = 0
        #: rows lost to corrupted spill segments (on_corrupt="drop").
        self.corrupt_dropped = 0
        #: fused in-flight analysis: ``sink(buffer)`` fires whenever the
        #: in-memory rows reach ``sink_rows`` (instead of spilling);
        #: see :class:`repro.profiler.streamdrain.FusedSink`.
        self.sink = None
        self.sink_rows = 0
        self._n = 0
        self._alloc = 0
        self._spilled_rows = 0  # rows currently on disk (pre-drain)
        self._segments: List[str] = []
        self._segment_index = 0

    def __len__(self) -> int:
        return self._n + self._spilled_rows

    def _next_alloc(self) -> int:
        new = self._alloc * 2 if self._alloc else _INITIAL_ROWS
        if self.capacity is not None:
            new = min(new, self.capacity)
        return max(new, self._n + 1)

    def _admit(self) -> bool:
        """Count the append; False (and a drop) when the buffer is full."""
        self.total_appended += 1
        if self.capacity is not None and len(self) >= self.capacity:
            self.dropped += 1
            return False
        return True

    def _admit_bulk(self, n: int) -> int:
        """Bulk version of :meth:`_admit`; returns rows admitted."""
        self.total_appended += n
        admit = n
        if self.capacity is not None:
            admit = max(0, min(n, self.capacity - len(self)))
        self.dropped += n - admit
        return admit

    # -- disk spill ---------------------------------------------------------
    def _spill_payload(self):
        """The in-memory rows as a pickleable payload (per buffer kind)."""
        raise NotImplementedError

    def _reset_memory(self) -> None:
        """Clear the in-memory segment after a spill (per buffer kind)."""
        raise NotImplementedError

    def _maybe_spill(self) -> None:
        if (
            self.spill is not None
            and self._n >= self.spill.segment_rows
        ):
            self._spill_segment()
        elif self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)

    def detach_rows(self):
        """Hand the buffered rows over as a zero-copy column view.

        The fused sink's segment hand-off: returns ``None`` when empty,
        otherwise a view over the live column prefixes. The buffer
        forgets the arrays (the next append allocates fresh ones), so
        the view is never mutated after detach.
        """
        if self._cols is None or not self._n:
            return None
        view = self._view(self._spill_payload())
        self._reset_memory()
        self._n = 0
        self._alloc = 0
        return view

    def _spill_segment(self) -> None:
        rows = self._n
        if not rows:
            return
        path = write_segment(
            self.spill, self._KIND, self._segment_index,
            self._spill_payload(), rows,
        )
        self._segment_index += 1
        self._segments.append(path)
        self._spilled_rows += rows
        self.spilled += rows
        self._reset_memory()
        self._n = 0
        self._alloc = 0

    def _read_segments(self) -> List[object]:
        """All spilled payloads in write order (the in-RAM drain).

        Each segment file is deleted as soon as it is read (or found
        corrupt). ``on_corrupt="raise"`` propagates
        :class:`~repro.errors.TraceCorruptionError` and discards the
        remaining files; ``"drop"`` counts the segment's rows (known
        from the clear-text header) as dropped and skips it.
        """
        segments, self._segments = self._segments, []
        self._spilled_rows = 0
        payloads = []
        try:
            while segments:
                path = segments.pop(0)
                try:
                    payloads.append(read_segment(path))
                except TraceCorruptionError as exc:
                    if self.spill is None or self.spill.on_corrupt == "raise":
                        raise
                    self.corrupt_dropped += exc.rows
                    self.dropped += exc.rows
                finally:
                    discard_segment(path)
        finally:
            for path in segments:
                discard_segment(path)
        return payloads

    def _view(self, payload):
        """Wrap one segment payload as a column view (per buffer kind)."""
        raise NotImplementedError


class MemoryColumns:
    """Drained memory-trace columns; a lazy sequence of
    :class:`MemoryAccessRecord` for row-oriented consumers."""

    __slots__ = ("seq", "cta", "warp_in_cta", "bits", "line", "col", "op",
                 "call_path_id", "addresses", "mask")

    def __init__(self, seq, cta, warp_in_cta, bits, line, col, op,
                 call_path_id, addresses, mask):
        self.seq = seq
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.bits = bits
        self.line = line
        self.col = col
        self.op = op
        self.call_path_id = call_path_id
        self.addresses = addresses  # (n, warp_size) int64
        self.mask = mask  # (n, warp_size) bool

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int) -> MemoryAccessRecord:
        return MemoryAccessRecord(
            seq=int(self.seq[i]),
            cta=int(self.cta[i]),
            warp_in_cta=int(self.warp_in_cta[i]),
            addresses=self.addresses[i],
            mask=self.mask[i],
            bits=int(self.bits[i]),
            line=int(self.line[i]),
            col=int(self.col[i]),
            op=MemoryOp(int(self.op[i])),
            call_path_id=int(self.call_path_id[i]),
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.record(i)

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

    def take(self, rows) -> "MemoryColumns":
        """Row-subset view (numpy index/mask); seqs keep their values."""
        return MemoryColumns(
            self.seq[rows], self.cta[rows], self.warp_in_cta[rows],
            self.bits[rows], self.line[rows], self.col[rows], self.op[rows],
            self.call_path_id[rows], self.addresses[rows], self.mask[rows],
        )


class ColumnarMemoryBuffer(_ColumnarBase):
    """SoA append buffer for instrumented memory accesses."""

    _KIND = "memory"

    def __init__(self, capacity: Optional[int] = None,
                 spill: Optional[SpillConfig] = None):
        super().__init__(capacity, spill)
        self._cols: Optional[tuple] = None
        self._warp_size = 0

    def _spill_payload(self):
        return tuple(col[: self._n] for col in self._cols)

    def _reset_memory(self) -> None:
        self._cols = None

    def _view(self, payload) -> MemoryColumns:
        return MemoryColumns(*payload)

    def _grow(self, warp_size: int) -> None:
        new = self._next_alloc()
        if self._cols is None:
            self._warp_size = warp_size
            self._cols = (
                np.zeros(new, np.int64),  # seq
                np.zeros(new, np.int32),  # cta
                np.zeros(new, np.int32),  # warp_in_cta
                np.zeros(new, np.int32),  # bits
                np.zeros(new, np.int32),  # line
                np.zeros(new, np.int32),  # col
                np.zeros(new, np.int8),  # op
                np.zeros(new, np.int64),  # call_path_id
                np.zeros((new, warp_size), np.int64),  # addresses
                np.zeros((new, warp_size), bool),  # mask
            )
        else:
            grown = []
            for col in self._cols:
                shape = (new,) + col.shape[1:]
                g = np.zeros(shape, col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def append(self, seq, cta, warp_in_cta, addrs, mask, bits, line, col,
               op, call_path_id) -> bool:
        if not self._admit():
            return False
        n = self._n
        if n >= self._alloc:
            self._grow(len(addrs))
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = bits
        c[4][n] = line
        c[5][n] = col
        c[6][n] = op
        c[7][n] = call_path_id
        c[8][n] = addrs
        c[9][n] = mask
        self._n = n + 1
        self._maybe_spill()
        return True

    def extend(self, cols: MemoryColumns) -> int:
        """Bulk-append drained columns (parallel-shard merge)."""
        admit = self._admit_bulk(len(cols))
        if not admit:
            return 0
        if self._cols is None:
            self._warp_size = cols.addresses.shape[1]
        while self._alloc < self._n + admit:
            self._grow(self._warp_size)
        lo, hi = self._n, self._n + admit
        data = (cols.seq, cols.cta, cols.warp_in_cta, cols.bits, cols.line,
                cols.col, cols.op, cols.call_path_id, cols.addresses,
                cols.mask)
        for dst, src in zip(self._cols, data):
            dst[lo:hi] = src[:admit]
        self._n = hi
        self._maybe_spill()
        return admit

    def drain(self) -> MemoryColumns:
        parts = [tuple(p) for p in self._read_segments()]
        n = self._n
        if self._cols is not None and n:
            parts.append(tuple(col[:n] for col in self._cols))
        if not parts:
            empty = MemoryColumns(
                *(np.zeros(0, d) for d in (np.int64, np.int32, np.int32,
                                           np.int32, np.int32, np.int32,
                                           np.int8, np.int64)),
                np.zeros((0, self._warp_size or 1), np.int64),
                np.zeros((0, self._warp_size or 1), bool),
            )
            self._cols = None
            self._n = 0
            self._alloc = 0
            return empty
        if len(parts) == 1:
            fields = parts[0]
        else:
            fields = tuple(
                np.concatenate([part[i] for part in parts])
                for i in range(10)
            )
        view = MemoryColumns(*fields)
        self._cols = None
        self._n = 0
        self._alloc = 0
        return view


class BlockColumns:
    """Drained basic-block columns; a lazy sequence of
    :class:`BlockRecord`."""

    __slots__ = ("seq", "cta", "warp_in_cta", "line", "col", "active_lanes",
                 "resident_lanes", "call_path_id", "block_names")

    def __init__(self, seq, cta, warp_in_cta, line, col, active_lanes,
                 resident_lanes, call_path_id, block_names):
        self.seq = seq
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.line = line
        self.col = col
        self.active_lanes = active_lanes
        self.resident_lanes = resident_lanes
        self.call_path_id = call_path_id
        self.block_names = block_names  # list[str], interned

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int) -> BlockRecord:
        return BlockRecord(
            seq=int(self.seq[i]),
            cta=int(self.cta[i]),
            warp_in_cta=int(self.warp_in_cta[i]),
            block_name=self.block_names[i],
            line=int(self.line[i]),
            col=int(self.col[i]),
            active_lanes=int(self.active_lanes[i]),
            resident_lanes=int(self.resident_lanes[i]),
            call_path_id=int(self.call_path_id[i]),
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.record(i)

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

    def take(self, rows) -> "BlockColumns":
        """Row-subset view (numpy index/mask); seqs keep their values."""
        idx = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        return BlockColumns(
            self.seq[idx], self.cta[idx], self.warp_in_cta[idx],
            self.line[idx], self.col[idx], self.active_lanes[idx],
            self.resident_lanes[idx], self.call_path_id[idx],
            [self.block_names[i] for i in idx],
        )


class ColumnarBlockBuffer(_ColumnarBase):
    """SoA append buffer for instrumented basic-block events."""

    _KIND = "block"

    def __init__(self, capacity: Optional[int] = None,
                 spill: Optional[SpillConfig] = None):
        super().__init__(capacity, spill)
        self._cols: Optional[tuple] = None
        self._names: List[str] = []

    def _spill_payload(self):
        return (
            tuple(col[: self._n] for col in self._cols),
            list(self._names),
        )

    def _reset_memory(self) -> None:
        self._cols = None
        self._names = []

    def _view(self, payload) -> BlockColumns:
        return BlockColumns(*payload[0], payload[1])

    def _grow(self) -> None:
        new = self._next_alloc()
        if self._cols is None:
            self._cols = tuple(
                np.zeros(new, np.int64 if i in (0, 7) else np.int32)
                for i in range(8)
            )
        else:
            grown = []
            for col in self._cols:
                g = np.zeros(new, col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def append(self, seq, cta, warp_in_cta, name, line, col, active_lanes,
               resident_lanes, call_path_id) -> bool:
        if not self._admit():
            return False
        n = self._n
        if n >= self._alloc:
            self._grow()
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = line
        c[4][n] = col
        c[5][n] = active_lanes
        c[6][n] = resident_lanes
        c[7][n] = call_path_id
        self._names.append(name)
        self._n = n + 1
        self._maybe_spill()
        return True

    def extend(self, cols: BlockColumns) -> int:
        """Bulk-append drained columns (parallel-shard merge)."""
        admit = self._admit_bulk(len(cols))
        if not admit:
            return 0
        while self._alloc < self._n + admit:
            self._grow()
        lo, hi = self._n, self._n + admit
        data = (cols.seq, cols.cta, cols.warp_in_cta, cols.line, cols.col,
                cols.active_lanes, cols.resident_lanes, cols.call_path_id)
        for dst, src in zip(self._cols, data):
            dst[lo:hi] = src[:admit]
        self._names.extend(cols.block_names[:admit])
        self._n = hi
        self._maybe_spill()
        return admit

    def drain(self) -> BlockColumns:
        parts = list(self._read_segments())
        n = self._n
        if self._cols is not None and n:
            parts.append(
                (tuple(col[:n] for col in self._cols), self._names)
            )
        if not parts:
            cols = [np.zeros(0, np.int64 if i in (0, 7) else np.int32)
                    for i in range(8)]
            names: List[str] = []
        elif len(parts) == 1:
            cols = list(parts[0][0])
            names = list(parts[0][1])
        else:
            cols = [
                np.concatenate([part[0][i] for part in parts])
                for i in range(8)
            ]
            names = [name for part in parts for name in part[1]]
        view = BlockColumns(cols[0], cols[1], cols[2], cols[3], cols[4],
                            cols[5], cols[6], cols[7], names)
        self._cols = None
        self._names = []
        self._n = 0
        self._alloc = 0
        return view


class ArithColumns:
    """Drained arithmetic-op columns; a lazy sequence of
    :class:`ArithRecord`."""

    __slots__ = ("seq", "cta", "warp_in_cta", "bits", "is_float", "line",
                 "col", "active_lanes", "call_path_id", "opcodes")

    def __init__(self, seq, cta, warp_in_cta, bits, is_float, line, col,
                 active_lanes, call_path_id, opcodes):
        self.seq = seq
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.bits = bits
        self.is_float = is_float
        self.line = line
        self.col = col
        self.active_lanes = active_lanes
        self.call_path_id = call_path_id
        self.opcodes = opcodes  # list[str], interned

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int) -> ArithRecord:
        return ArithRecord(
            seq=int(self.seq[i]),
            cta=int(self.cta[i]),
            warp_in_cta=int(self.warp_in_cta[i]),
            opcode=self.opcodes[i],
            bits=int(self.bits[i]),
            is_float=bool(self.is_float[i]),
            line=int(self.line[i]),
            col=int(self.col[i]),
            active_lanes=int(self.active_lanes[i]),
            call_path_id=int(self.call_path_id[i]),
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.record(i)

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

    def take(self, rows) -> "ArithColumns":
        """Row-subset view (numpy index/mask); seqs keep their values."""
        idx = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        return ArithColumns(
            self.seq[idx], self.cta[idx], self.warp_in_cta[idx],
            self.bits[idx], self.is_float[idx], self.line[idx],
            self.col[idx], self.active_lanes[idx], self.call_path_id[idx],
            [self.opcodes[i] for i in idx],
        )


class ColumnarArithBuffer(_ColumnarBase):
    """SoA append buffer for instrumented arithmetic events."""

    _KIND = "arith"

    def __init__(self, capacity: Optional[int] = None,
                 spill: Optional[SpillConfig] = None):
        super().__init__(capacity, spill)
        self._cols: Optional[tuple] = None
        self._opcodes: List[str] = []

    def _spill_payload(self):
        return (
            tuple(col[: self._n] for col in self._cols),
            list(self._opcodes),
        )

    def _reset_memory(self) -> None:
        self._cols = None
        self._opcodes = []

    def _view(self, payload) -> ArithColumns:
        return ArithColumns(*payload[0], payload[1])

    def _grow(self) -> None:
        new = self._next_alloc()
        if self._cols is None:
            self._cols = (
                np.zeros(new, np.int64),  # seq
                np.zeros(new, np.int32),  # cta
                np.zeros(new, np.int32),  # warp_in_cta
                np.zeros(new, np.int32),  # bits
                np.zeros(new, bool),  # is_float
                np.zeros(new, np.int32),  # line
                np.zeros(new, np.int32),  # col
                np.zeros(new, np.int32),  # active_lanes
                np.zeros(new, np.int64),  # call_path_id
            )
        else:
            grown = []
            for col in self._cols:
                g = np.zeros(new, col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def append(self, seq, cta, warp_in_cta, opcode, bits, is_float, line,
               col, active_lanes, call_path_id) -> bool:
        if not self._admit():
            return False
        n = self._n
        if n >= self._alloc:
            self._grow()
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = bits
        c[4][n] = is_float
        c[5][n] = line
        c[6][n] = col
        c[7][n] = active_lanes
        c[8][n] = call_path_id
        self._opcodes.append(opcode)
        self._n = n + 1
        self._maybe_spill()
        return True

    def extend(self, cols: ArithColumns) -> int:
        """Bulk-append drained columns (parallel-shard merge)."""
        admit = self._admit_bulk(len(cols))
        if not admit:
            return 0
        while self._alloc < self._n + admit:
            self._grow()
        lo, hi = self._n, self._n + admit
        data = (cols.seq, cols.cta, cols.warp_in_cta, cols.bits,
                cols.is_float, cols.line, cols.col, cols.active_lanes,
                cols.call_path_id)
        for dst, src in zip(self._cols, data):
            dst[lo:hi] = src[:admit]
        self._opcodes.extend(cols.opcodes[:admit])
        self._n = hi
        self._maybe_spill()
        return admit

    def drain(self) -> ArithColumns:
        parts = list(self._read_segments())
        n = self._n
        if self._cols is not None and n:
            parts.append(
                (tuple(col[:n] for col in self._cols), self._opcodes)
            )
        if not parts:
            cols = [np.zeros(0, d) for d in (
                np.int64, np.int32, np.int32, np.int32, bool,
                np.int32, np.int32, np.int32, np.int64)]
            opcodes: List[str] = []
        elif len(parts) == 1:
            cols = list(parts[0][0])
            opcodes = list(parts[0][1])
        else:
            cols = [
                np.concatenate([part[0][i] for part in parts])
                for i in range(9)
            ]
            opcodes = [op for part in parts for op in part[1]]
        view = ArithColumns(cols[0], cols[1], cols[2], cols[3], cols[4],
                            cols[5], cols[6], cols[7], cols[8],
                            opcodes)
        self._cols = None
        self._opcodes = []
        self._n = 0
        self._alloc = 0
        return view


def stride_sample(memory: MemoryColumns, arith: ArithColumns,
                  rate: int):
    """Every ``rate``-th event of the merged memory+arith stream.

    The sampled trace is a strict row-subset of the full trace: events
    are ranked by sequence number across both column sets together (the
    order the hooks fired in) and ranks ``0, rate, 2*rate, ...`` are
    kept, seqs untouched. Because the filter runs at drain time over
    already-merged columns -- not via a shared counter at append time --
    sampled launches stay eligible for the parallel and batched fast
    paths: sharding or batching changes *when* events are appended, never
    their seq order, so the kept set is identical to a serial run's.
    """
    if rate == 1:
        return memory, arith
    n_mem = len(memory)
    seqs = np.concatenate([memory.seq, arith.seq])
    order = np.argsort(seqs)  # seqs are unique across both streams
    ranks = np.empty(len(seqs), dtype=np.int64)
    ranks[order] = np.arange(len(seqs))
    keep = ranks % rate == 0
    return memory.take(keep[:n_mem]), arith.take(keep[n_mem:])


def clip_to_capacity(cols, capacity: Optional[int]):
    """Keep the first ``capacity`` rows; returns ``(cols, dropped)``.

    Applied after :func:`stride_sample` so a sampled, capped launch
    retains exactly the rows a capped append-time filter would have.
    """
    if capacity is None or len(cols) <= capacity:
        return cols, 0
    return cols.take(np.arange(capacity)), len(cols) - capacity
