"""The device-resident trace buffers.

"CUDAAdvisor stores this trace in a buffer located in GPU's global
memory" (Section 4.2-A); at kernel exit the buffer is copied to the
host. The **columnar** buffers (:class:`ColumnarMemoryBuffer`,
:class:`ColumnarBlockBuffer`, :class:`ColumnarArithBuffer`) model that
buffer: events append into preallocated structure-of-arrays numpy
columns (chunked doubling growth). An event stores only its per-event
values -- sequence number, CTA, warp, call path, active or resident
lanes, the address and mask rows of a memory access -- plus the id of
its call site. The site's constants (width, source line and column,
access kind, opcode or block name) live once in a per-kind site table
(:class:`repro.gpu.decode.HookSites`) and are expanded into columns
once per flush.

A buffer never holds more than its flush size: when it reaches
``sink_rows`` rows it calls its ``sink`` (the launch's
:class:`~repro.profiler.streamdrain.FusedSink`), which takes the rows
with :meth:`~_ColumnarBase.detach_rows` as a
:class:`MemoryColumns` / :class:`BlockColumns` / :class:`ArithColumns`
view. The analyzers consume those views vectorized; each view still
behaves as a sequence of the classic record dataclasses (materialized
lazily per index) for compatibility. Kept rows accumulate in a
:class:`ColumnStore`.
"""

from __future__ import annotations

from typing import Optional

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

    Subclasses name their view class, the dtype of each stored column
    (per-event values, ending with the site id), which columns are
    ``(rows, warp_size)`` wide, and how a flush expands the site
    constants into the view's columns (:meth:`_view`).
    """

    _VIEW: type = _Columns
    _DTYPES: tuple = ()
    _WIDE: tuple = ()

    def __init__(self, sites: Optional[list] = None):
        #: ``sink(buffer)`` fires whenever the buffer holds ``sink_rows``
        #: rows; see :class:`repro.profiler.streamdrain.FusedSink`.
        self.sink = None
        self.sink_rows = 0
        #: constant tuple of each site id (the module's decoded table
        #: of this kind)
        self.sites = [] if sites is None else sites
        self._cols: Optional[tuple] = None
        self._width = 0  # warp size of the wide columns, once known
        self._n = 0
        self._alloc = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self, width: int = 0) -> None:
        new = self._alloc * 2 or _INITIAL_ROWS
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

    def _constants(self, site: np.ndarray) -> list:
        """The site constants of each row, one column per field."""
        return [
            np.array(field, dtype=object if isinstance(field[0], str)
                     else None)[site]
            for field in zip(*self.sites)
        ]

    def _view(self, cols: tuple):
        raise NotImplementedError

    def detach_rows(self):
        """Hand the buffered rows over as a column view.

        The flush hand-off: returns ``None`` when empty, otherwise a
        view whose per-event columns are the live column prefixes and
        whose constant columns are expanded from the site table. The
        buffer forgets the arrays (the next append allocates fresh
        ones), so the view is never mutated after detach.
        """
        n = self._n
        if not n:
            return None
        view = self._view(tuple(col[:n] for col in self._cols))
        self._cols = None
        self._n = 0
        self._alloc = 0
        return view

    def empty_view(self):
        """A zero-row view of this buffer's kind."""
        return self._view(tuple(
            np.zeros((0, self._width or 1) if i in self._WIDE else 0, d)
            for i, d in enumerate(self._DTYPES)
        ))


class ColumnarMemoryBuffer(_ColumnarBase):
    """SoA append buffer for instrumented memory accesses."""

    _VIEW = MemoryColumns
    _DTYPES = (
        np.int64,  # seq
        np.int32,  # cta
        np.int32,  # warp_in_cta
        np.int64,  # call_path_id
        np.int32,  # site: (bits, line, col, op)
        np.int64,  # addresses (rows, warp_size)
        bool,  # mask (rows, warp_size)
    )
    _WIDE = (5, 6)

    def append(self, seq, cta, warp_in_cta, call_path_id, site, addrs,
               mask) -> None:
        """One access of call site ``site``; ``addrs`` broadcasts to a
        full row (a scalar or a one-lane column is a uniform address)."""
        n = self._n
        if n >= self._alloc:
            self._grow(len(mask))
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = call_path_id
        c[4][n] = site
        c[5][n] = addrs
        c[6][n] = mask
        self._n = n + 1
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)

    def _view(self, cols):
        seq, cta, warp, path, site, addrs, mask = cols
        bits, line, col, op = (
            self._constants(site) if len(site) else [()] * 4
        )
        return MemoryColumns(
            seq, cta, warp, np.asarray(bits, np.int32),
            np.asarray(line, np.int32), np.asarray(col, np.int32),
            np.asarray(op, np.int8), path, addrs, mask,
        )


class ColumnarBlockBuffer(_ColumnarBase):
    """SoA append buffer for instrumented basic-block events."""

    _VIEW = BlockColumns
    _DTYPES = (
        np.int64,  # seq
        np.int32,  # cta
        np.int32,  # warp_in_cta
        np.int64,  # call_path_id
        np.int32,  # site: (block_name, line, col)
        np.int32,  # active_lanes
        np.int32,  # resident_lanes
    )

    def append(self, seq, cta, warp_in_cta, call_path_id, site,
               active_lanes, resident_lanes) -> None:
        n = self._n
        if n >= self._alloc:
            self._grow()
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = call_path_id
        c[4][n] = site
        c[5][n] = active_lanes
        c[6][n] = resident_lanes
        self._n = n + 1
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)

    def _view(self, cols):
        seq, cta, warp, path, site, active, resident = cols
        names, line, col = (
            self._constants(site) if len(site) else [()] * 3
        )
        return BlockColumns(
            seq, cta, warp, np.asarray(line, np.int32),
            np.asarray(col, np.int32), active, resident, path, list(names),
        )


class ColumnarArithBuffer(_ColumnarBase):
    """SoA append buffer for instrumented arithmetic events."""

    _VIEW = ArithColumns
    _DTYPES = (
        np.int64,  # seq
        np.int32,  # cta
        np.int32,  # warp_in_cta
        np.int64,  # call_path_id
        np.int32,  # site: (opcode, bits, is_float, line, col)
        np.int32,  # active_lanes
    )

    def append(self, seq, cta, warp_in_cta, call_path_id, site,
               active_lanes) -> None:
        n = self._n
        if n >= self._alloc:
            self._grow()
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = call_path_id
        c[4][n] = site
        c[5][n] = active_lanes
        self._n = n + 1
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)

    def _view(self, cols):
        seq, cta, warp, path, site, active = cols
        opcodes, bits, is_float, line, col = (
            self._constants(site) if len(site) else [()] * 5
        )
        return ArithColumns(
            seq, cta, warp, np.asarray(bits, np.int32),
            np.asarray(is_float, bool), np.asarray(line, np.int32),
            np.asarray(col, np.int32), active, path, list(opcodes),
        )


class ColumnStore:
    """Kept rows of one stream: one column set that grows by doubling.

    Appending each flushed window keeps a launch's rows in one set of
    columns, so nothing is held twice except while a column doubles.
    """

    def __init__(self):
        self._type = None
        self._cols: list = []
        self._n = 0
        self._alloc = 0

    def extend(self, view) -> None:
        """Append every row of a column view (all of one kind)."""
        rows = len(view)
        if not rows:
            return
        cols = [getattr(view, name) for name in view.__slots__]
        n, need = self._n, self._n + rows
        if self._type is None:
            self._type = type(view)
            self._cols = [
                [] if isinstance(c, list)
                else np.zeros((0,) + c.shape[1:], c.dtype)
                for c in cols
            ]
        if need > self._alloc:
            self._alloc = max(self._alloc * 2 or _INITIAL_ROWS, need)
            for k, col in enumerate(self._cols):
                if not isinstance(col, list):
                    g = np.zeros((self._alloc,) + col.shape[1:], col.dtype)
                    g[:n] = col[:n]
                    self._cols[k] = g
        for dst, src in zip(self._cols, cols):
            if isinstance(dst, list):
                dst.extend(src)
            else:
                dst[n:need] = src
        self._n = need

    def detach_rows(self):
        """The kept rows as one column view (``None`` when empty)."""
        if not self._n:
            return None
        n = self._n
        view = self._type(*(
            col if isinstance(col, list) else col[:n] for col in self._cols
        ))
        self._type, self._cols, self._n, self._alloc = None, [], 0, 0
        return view
