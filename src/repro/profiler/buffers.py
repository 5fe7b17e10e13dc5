"""The device-resident trace buffers.

"CUDAAdvisor stores this trace in a buffer located in GPU's global
memory" (Section 4.2-A); at kernel exit the buffer is copied to the
host. The **columnar** buffers (:class:`ColumnarMemoryBuffer`,
:class:`ColumnarBlockBuffer`, :class:`ColumnarArithBuffer`) model that
buffer: events append into preallocated structure-of-arrays numpy
columns (chunked doubling growth), so an instrumented event costs a
handful of scalar stores instead of a dataclass plus two array
allocations.

A buffer never holds more than its flush size: when it reaches
``sink_rows`` rows it calls its ``sink`` (the launch's
:class:`~repro.profiler.streamdrain.FusedSink`), which takes the rows
with :meth:`~_ColumnarBase.detach_rows` as a zero-copy
:class:`MemoryColumns` / :class:`BlockColumns` / :class:`ArithColumns`
view. The analyzers consume those views vectorized; each view still
behaves as a sequence of the classic record dataclasses (materialized
lazily per index) for compatibility.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
    MemoryOp,
)

#: Initial allocation (rows) of a columnar buffer; doubles as it fills.
_INITIAL_ROWS = 1024


class _Columns:
    """Sequence behaviour shared by the column views.

    Every slot is a numpy column indexed by row, except a trailing
    interned-string list (block names, opcodes).
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int):
        raise NotImplementedError

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

    def take(self, rows):
        """Row-subset view (numpy index/mask); seqs keep their values."""
        idx = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        return type(self)(*(
            col[idx] if isinstance(col, np.ndarray) else [col[i] for i in idx]
            for col in (getattr(self, name) for name in self.__slots__)
        ))


class MemoryColumns(_Columns):
    """Memory-trace columns; a lazy sequence of
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


class BlockColumns(_Columns):
    """Basic-block columns; a lazy sequence of :class:`BlockRecord`."""

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


class ArithColumns(_Columns):
    """Arithmetic-op columns; a lazy sequence of :class:`ArithRecord`."""

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


class _ColumnarBase:
    """Chunked growth and the flush hand-off, shared by the buffers.

    Subclasses name their view class, the dtype of each numpy column
    (in view order), which columns are ``(rows, warp_size)`` wide, and
    whether the view ends with an interned-string list.
    """

    _VIEW: type = _Columns
    _DTYPES: tuple = ()
    _WIDE: tuple = ()
    _NAMED = False

    def __init__(self):
        #: ``sink(buffer)`` fires whenever the buffer holds ``sink_rows``
        #: rows; see :class:`repro.profiler.streamdrain.FusedSink`.
        self.sink = None
        self.sink_rows = 0
        self._cols: Optional[tuple] = None
        self._names: List[str] = []
        self._width = 0  # warp size of the wide columns, once known
        self._n = 0
        self._alloc = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self, width: int = 0, need: int = 0) -> None:
        new = max(self._alloc * 2 or _INITIAL_ROWS, need)
        if self.sink_rows:
            # the buffer flushes at sink_rows, so never allocate past it
            new = min(new, self.sink_rows)
        if self._cols is None:
            self._width = width or self._width
            self._cols = tuple(
                np.zeros((new, self._width) if i in self._WIDE else new, dtype)
                for i, dtype in enumerate(self._DTYPES)
            )
        else:
            grown = []
            for col in self._cols:
                g = np.zeros((new,) + col.shape[1:], col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def extend(self, view) -> None:
        """Append every row of a column view of this buffer's kind.

        A buffer without a sink grows by doubling, so appending each
        flushed window keeps a launch's rows in one column set: nothing
        is held twice except while a column doubles.
        """
        rows = len(view)
        if not rows:
            return
        cols = [getattr(view, name) for name in view.__slots__]
        if self._NAMED:
            self._names.extend(cols.pop())
        n, need = self._n, self._n + rows
        if need > self._alloc:
            wide = cols[self._WIDE[0]].shape[1] if self._WIDE else 0
            self._grow(wide, need)
        for dst, src in zip(self._cols, cols):
            dst[n:need] = src
        self._n = need

    def _make_view(self, cols: tuple, names: List[str]):
        return self._VIEW(*cols, names) if self._NAMED else self._VIEW(*cols)

    def detach_rows(self):
        """Hand the buffered rows over as a zero-copy column view.

        The flush hand-off: returns ``None`` when empty, otherwise a
        view over the live column prefixes. The buffer forgets the
        arrays (the next append allocates fresh ones), so the view is
        never mutated after detach.
        """
        n = self._n
        if not n:
            return None
        view = self._make_view(
            tuple(col[:n] for col in self._cols), self._names
        )
        self._cols = None
        self._names = []
        self._n = 0
        self._alloc = 0
        return view

    def empty_view(self):
        """A zero-row view of this buffer's kind."""
        return self._make_view(
            tuple(
                np.zeros((0, self._width or 1) if i in self._WIDE else 0, d)
                for i, d in enumerate(self._DTYPES)
            ),
            [],
        )


class ColumnarMemoryBuffer(_ColumnarBase):
    """SoA append buffer for instrumented memory accesses."""

    _VIEW = MemoryColumns
    _DTYPES = (
        np.int64,  # seq
        np.int32,  # cta
        np.int32,  # warp_in_cta
        np.int32,  # bits
        np.int32,  # line
        np.int32,  # col
        np.int8,  # op
        np.int64,  # call_path_id
        np.int64,  # addresses (rows, warp_size)
        bool,  # mask (rows, warp_size)
    )
    _WIDE = (8, 9)

    def append(self, seq, cta, warp_in_cta, addrs, mask, bits, line, col,
               op, call_path_id) -> None:
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
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)


class ColumnarBlockBuffer(_ColumnarBase):
    """SoA append buffer for instrumented basic-block events."""

    _VIEW = BlockColumns
    _DTYPES = (
        np.int64,  # seq
        np.int32,  # cta
        np.int32,  # warp_in_cta
        np.int32,  # line
        np.int32,  # col
        np.int32,  # active_lanes
        np.int32,  # resident_lanes
        np.int64,  # call_path_id
    )
    _NAMED = True

    def append(self, seq, cta, warp_in_cta, name, line, col, active_lanes,
               resident_lanes, call_path_id) -> None:
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
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)


class ColumnarArithBuffer(_ColumnarBase):
    """SoA append buffer for instrumented arithmetic events."""

    _VIEW = ArithColumns
    _DTYPES = (
        np.int64,  # seq
        np.int32,  # cta
        np.int32,  # warp_in_cta
        np.int32,  # bits
        bool,  # is_float
        np.int32,  # line
        np.int32,  # col
        np.int32,  # active_lanes
        np.int64,  # call_path_id
    )
    _NAMED = True

    def append(self, seq, cta, warp_in_cta, opcode, bits, is_float, line,
               col, active_lanes, call_path_id) -> None:
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
        self._names.append(opcode)
        self._n = n + 1
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)
