"""CUTHERMO-style memory heat maps: per-allocation x time intensity.

Aggregate metrics (reuse histograms, divergence degrees) answer *how
much* inefficiency a kernel has; a heat map answers *where* and *when*.
This module bins every instrumented memory access into
``(address granule, time cell)`` intensity cells -- lane-level read and
write counts plus the exact set of distinct bytes touched -- and
resolves the granules against the data-centric allocation map
(:mod:`repro.profiler.datacentric`) into one intensity matrix per data
object, the per-allocation x time view of CUTHERMO (PAPERS.md).

Two coordinate choices make the result identical across every drain
and execution configuration the profiler supports:

* **Space** is the fixed-size *address granule* (``granule_bytes``,
  default 256 -- the device allocator's alignment, so a granule never
  straddles two allocations). Granules are resolved to allocations
  only at :meth:`HeatmapTable.resolve` time; the aggregate itself
  never needs the allocation table, so the analyzer plan can be built
  before the program has allocated anything.
* **Time** is the *per-CTA event phase*: a CTA's k-th kept memory
  instruction lands in time cell ``k // cell_rows``. Each CTA's stream
  appears in trace order in every drain path, so the phase of every
  event -- unlike a raw global sequence number -- is invariant under
  segment boundaries and backend choice. Aligning CTAs by phase also
  reads naturally: for SIMT kernels the phase axis is "how far
  through its work each CTA is", which is the execution-time axis
  CUTHERMO plots.

:class:`HeatmapAggregate` follows the ``update`` / ``finalize``
contract of :mod:`repro.analysis.aggregates`, so heat maps stream
through fused in-flight analysis and respect stride sampling and
capacity exactly like every other analysis -- byte-identity is pinned
by ``tests/test_heatmap.py``. :meth:`HeatmapTable.merge` concatenates
finalized launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.profiler.buffers import MemoryColumns
from repro.profiler.records import MemoryOp

#: Default bytes per address granule. Matches the device allocator's
#: 256-byte alignment so one granule maps to at most one allocation.
DEFAULT_GRANULE = 256

#: Default kept memory instructions per CTA per time cell.
DEFAULT_CELL_ROWS = 256

#: Trace rows per vectorized update pass: bounds the transient working
#: set (lane and byte expansions, the keys x granule_bytes scatter
#: matrix) however long the segment being fed is.
_UPDATE_CHUNK = 256


class _Cell:
    """One (granule, time-cell) intensity cell."""

    __slots__ = ("reads", "writes", "bits")

    def __init__(self, nbits: int):
        self.reads = 0
        self.writes = 0
        #: bitmap over the granule's bytes (distinct-byte tracking).
        self.bits = np.zeros(nbits, dtype=np.uint8)

    def merge(self, other: "_Cell") -> None:
        self.reads += other.reads
        self.writes += other.writes
        np.bitwise_or(self.bits, other.bits, out=self.bits)

    @property
    def unique_bytes(self) -> int:
        return int(np.unpackbits(self.bits).sum())


class HeatmapAggregate:
    """Streaming heat-map builder (``update``/``merge``/``finalize``).

    Duck-typed to :class:`repro.analysis.aggregates.SegmentAggregate`
    (kept import-light so the aggregates module stays the single place
    that wires plans together); consumes the ``memory`` stream.
    """

    stream = "memory"

    def __init__(self, cell_rows: int = DEFAULT_CELL_ROWS,
                 granule_bytes: int = DEFAULT_GRANULE):
        if cell_rows < 1:
            raise AnalysisError("heat-map cell_rows must be >= 1")
        if granule_bytes < 8 or granule_bytes & (granule_bytes - 1):
            raise AnalysisError(
                "heat-map granule_bytes must be a power of two >= 8"
            )
        self.cell_rows = cell_rows
        self.granule_bytes = granule_bytes
        #: per-CTA kept-row phase cursor, carried across segments.
        self._phase: Dict[int, int] = {}
        self._cells: Dict[Tuple[int, int], _Cell] = {}

    # -- the SegmentAggregate contract --------------------------------------
    def update(self, cols: MemoryColumns) -> None:
        for start in range(0, len(cols), _UPDATE_CHUNK):
            rows = slice(start, start + _UPDATE_CHUNK)
            self._update_chunk(
                cols.cta[rows], cols.addresses[rows], cols.mask[rows],
                cols.bits[rows], cols.op[rows],
            )

    def _update_chunk(self, cta, addrs, mask, bits, op) -> None:
        """Bin one chunk of rows (trace order) in one vectorized pass.

        Every active lane is expanded to the bytes it touches (an access
        whose last byte crosses a granule boundary marks bytes in both
        granules); byte keys ``(granule, cell)`` are deduplicated by one
        1-D ``np.unique``, their offsets scattered into a
        ``keys x granule_bytes`` matrix and packed into bitmaps. A lane's
        read/write count goes to the key of its first byte.
        """
        cells = self._phases(cta) // self.cell_rows
        row = np.nonzero(mask)[0]
        if not row.size:
            return
        width = np.maximum(bits.astype(np.int64) >> 3, 1)[row]
        first = np.cumsum(width) - width
        byte_lane = np.repeat(np.arange(row.size), width)
        pos = addrs[mask][byte_lane] + (
            np.arange(byte_lane.size) - first[byte_lane]
        )
        granule = self.granule_bytes
        byte_granule = pos >> (granule.bit_length() - 1)
        byte_cell = cells[row][byte_lane]

        shift = int(cells.max()).bit_length()
        granules = None
        if (int(byte_granule.min()) < 0
                or int(byte_granule.max()) >> (63 - shift)):
            # the packed key would wrap: pack granule ranks instead (below
            # the chunk's byte count, so exact for any reachable phase)
            granules, byte_granule = np.unique(
                byte_granule, return_inverse=True)
        keys, inverse = np.unique(
            (byte_granule << shift) | byte_cell, return_inverse=True)
        touched = np.zeros((keys.size, granule), dtype=bool)
        touched[inverse, pos & (granule - 1)] = True
        bitmaps = np.packbits(touched, axis=1, bitorder="little")
        lane_key = inverse[first]
        totals = np.bincount(lane_key, minlength=keys.size)
        writes = np.bincount(
            lane_key[(op != int(MemoryOp.LOAD))[row]], minlength=keys.size)

        key_granule = keys >> shift
        if granules is not None:
            key_granule = granules[key_granule]
        nbits = granule // 8
        for key, total, write, bitmap in zip(
            zip(key_granule.tolist(), (keys & ((1 << shift) - 1)).tolist()),
            totals.tolist(), writes.tolist(), bitmaps,
        ):
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = _Cell(nbits)
            cell.reads += total - write
            cell.writes += write
            np.bitwise_or(cell.bits, bitmap, out=cell.bits)

    def _phases(self, cta) -> np.ndarray:
        """Each row's kept-row phase within its CTA; advances the cursors."""
        order = np.argsort(cta, kind="stable")
        ordered = cta[order]
        starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
        counts = np.diff(starts, append=ordered.size)
        bases = []
        for c, n in zip(ordered[starts].tolist(), counts.tolist()):
            base = self._phase.get(c, 0)
            self._phase[c] = base + n
            bases.append(base)
        phase = np.empty(ordered.size, dtype=np.int64)
        phase[order] = (np.repeat(bases, counts)
                        + np.arange(ordered.size) - np.repeat(starts, counts))
        return phase

    def finalize(self) -> "HeatmapTable":
        return HeatmapTable(
            granule_bytes=self.granule_bytes,
            cell_rows=self.cell_rows,
            cells=self._cells,
        )


@dataclass
class HeatmapTable:
    """Finalized granule-resolution heat map of one or more launches.

    ``cells`` maps ``(granule, time_cell)`` to intensity; ``merge``
    *concatenates timelines* (a session's launches run one after
    another), shifting the peer's time cells past this table's span --
    so a multi-kernel app reads as one continuous execution, exactly
    the CUTHERMO presentation. Allocation names enter only at
    :meth:`resolve`.
    """

    granule_bytes: int = DEFAULT_GRANULE
    cell_rows: int = DEFAULT_CELL_ROWS
    cells: Dict[Tuple[int, int], _Cell] = field(default_factory=dict)

    @property
    def time_cells(self) -> int:
        """Cells along the time axis (max occupied cell + 1)."""
        if not self.cells:
            return 0
        return max(cell for _, cell in self.cells) + 1

    def merge(self, other: "HeatmapTable") -> None:
        """Append ``other``'s timeline after this one (launch order)."""
        if (other.cell_rows != self.cell_rows
                or other.granule_bytes != self.granule_bytes):
            raise AnalysisError(
                "cannot merge heat-map tables with different binning"
            )
        shift = self.time_cells
        for (granule, cell), data in other.cells.items():
            key = (granule, cell + shift)
            mine = self.cells.get(key)
            if mine is None:
                self.cells[key] = data
            else:  # pragma: no cover - shift guarantees fresh keys
                mine.merge(data)

    def resolve(self, allocations: Sequence, time_buckets: int = 64
                ) -> "MemoryHeatmap":
        """Join granules against the allocation map; re-bin time.

        ``allocations`` is a sequence of objects with ``name``, ``base``,
        ``end`` and ``site`` attributes
        (:class:`~repro.host.runtime.DeviceAllocationRecord`); accesses
        outside every allocation fall into one trailing ``(unmapped)``
        row. The time axis is re-binned from ``time_cells`` physical
        cells to at most ``time_buckets`` display buckets; distinct-byte
        bitmaps are unioned *before* counting, so ``unique_bytes`` stays
        exact under re-binning.
        """
        if time_buckets < 1:
            raise AnalysisError("time_buckets must be >= 1")
        granule = self.granule_bytes
        by_granule: Dict[int, int] = {}
        rows: List[AllocationHeatmap] = []
        for record in allocations:
            rows.append(AllocationHeatmap(
                name=record.name,
                base=int(record.base),
                nbytes=int(record.end - record.base),
                site=getattr(record, "site", ""),
            ))
            for g in range(int(record.base) // granule,
                           (int(record.end) - 1) // granule + 1):
                by_granule[g] = len(rows) - 1
        unmapped = AllocationHeatmap(
            name="(unmapped)", base=0, nbytes=0, site="")
        span = self.time_cells
        buckets = min(time_buckets, span) if span else 0
        for row in rows + [unmapped]:
            row.reads = [0] * buckets
            row.writes = [0] * buckets
            row._bits = {}
        for (g, cell), data in sorted(self.cells.items()):
            row = rows[by_granule[g]] if g in by_granule else unmapped
            b = cell * buckets // span
            row.reads[b] += data.reads
            row.writes[b] += data.writes
            union = row._bits.get((g, b))
            if union is None:
                row._bits[(g, b)] = data.bits.copy()
            else:
                np.bitwise_or(union, data.bits, out=union)
        for row in rows + [unmapped]:
            counts = [0] * buckets
            for (_, b), bits in row._bits.items():
                counts[b] += int(np.unpackbits(bits).sum())
            row.unique_bytes = counts
            del row._bits
        if unmapped.accesses:
            rows.append(unmapped)
        return MemoryHeatmap(
            granule_bytes=granule,
            cell_rows=self.cell_rows,
            time_cells=span,
            time_buckets=buckets,
            rows=rows,
        )


@dataclass
class AllocationHeatmap:
    """One allocation's intensity series (a row of the heat map)."""

    name: str
    base: int
    nbytes: int
    site: str
    reads: List[int] = field(default_factory=list)
    writes: List[int] = field(default_factory=list)
    unique_bytes: List[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return sum(self.reads) + sum(self.writes)


@dataclass
class MemoryHeatmap:
    """The resolved per-allocation x time heat map."""

    granule_bytes: int
    cell_rows: int
    time_cells: int
    time_buckets: int
    rows: List[AllocationHeatmap]

    @property
    def total_accesses(self) -> int:
        return sum(row.accesses for row in self.rows)


def heatmap_analysis(profile, cell_rows: int = DEFAULT_CELL_ROWS,
                     granule_bytes: int = DEFAULT_GRANULE) -> HeatmapTable:
    """Heat map of one :class:`KernelProfile`'s kept records.

    Feeds the trace through one :class:`HeatmapAggregate` as a single
    segment, so the result is definitionally identical to fused
    in-flight analysis'.
    """
    from repro.analysis.aggregates import analyze_records

    return analyze_records(profile, HeatmapAggregate(cell_rows, granule_bytes))
