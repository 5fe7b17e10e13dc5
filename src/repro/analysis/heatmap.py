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
  appears in trace order in every drain path, and CTA partitions are
  disjoint across fork shards, so the phase of every event -- unlike a
  raw global sequence number, which shard-local fused banks do not
  preserve -- is invariant under segment boundaries, shard merges, and
  backend choice. Aligning CTAs by phase also reads naturally: for
  SIMT kernels the phase axis is "how far through its work each CTA
  is", which is the execution-time axis CUTHERMO plots.

:class:`HeatmapAggregate` follows the ``update`` / ``merge`` /
``finalize`` contract of :mod:`repro.analysis.aggregates`, so heat maps
stream through fused in-flight analysis, merge across fork shards, and
respect stride sampling and capacity exactly like every other analysis
-- byte-identity is pinned by ``tests/test_heatmap.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reuse_distance import _cta_row_segments
from repro.errors import AnalysisError
from repro.profiler.buffers import MemoryColumns
from repro.profiler.records import MemoryOp

#: Default bytes per address granule. Matches the device allocator's
#: 256-byte alignment so one granule maps to at most one allocation.
DEFAULT_GRANULE = 256

#: Default kept memory instructions per CTA per time cell.
DEFAULT_CELL_ROWS = 256


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
        granule = self.granule_bytes
        nbits = granule // 8
        for rows in _cta_row_segments(cols.cta):
            cta = int(cols.cta[rows[0]])
            base = self._phase.get(cta, 0)
            n = len(rows)
            self._phase[cta] = base + n
            cells = (base + np.arange(n, dtype=np.int64)) // self.cell_rows
            mask = cols.mask[rows]
            addrs = cols.addresses[rows]
            widths = np.maximum(cols.bits[rows].astype(np.int64) >> 3, 1)
            is_write = cols.op[rows] != int(MemoryOp.LOAD)
            lane_cell = np.broadcast_to(cells[:, None], mask.shape)[mask]
            lane_addr = addrs[mask]
            lane_width = np.broadcast_to(widths[:, None], mask.shape)[mask]
            lane_write = np.broadcast_to(is_write[:, None], mask.shape)[mask]
            if not lane_addr.size:
                continue
            self._count(lane_addr, lane_cell, lane_write)
            self._mark_bytes(lane_addr, lane_cell, lane_width, nbits)

    def _count(self, lane_addr, lane_cell, lane_write) -> None:
        """Accumulate lane-level read/write counts per (granule, cell)."""
        keys = np.stack([lane_addr // self.granule_bytes, lane_cell], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        k = len(uniq)
        writes = np.bincount(inverse[lane_write], minlength=k)
        totals = np.bincount(inverse, minlength=k)
        nbits = self.granule_bytes // 8
        for j in range(k):
            key = (int(uniq[j, 0]), int(uniq[j, 1]))
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = _Cell(nbits)
            cell.writes += int(writes[j])
            cell.reads += int(totals[j] - writes[j])

    def _mark_bytes(self, lane_addr, lane_cell, lane_width, nbits) -> None:
        """Set the bitmap bit of every byte each lane access touches.

        Expanded one byte-offset at a time (widths are <= 16), so the
        temporary arrays stay O(lanes) per step; an access whose last
        byte crosses a granule boundary marks bytes in both granules.
        """
        positions: List[np.ndarray] = []
        cells: List[np.ndarray] = []
        for k in range(int(lane_width.max())):
            sel = lane_width > k
            positions.append(lane_addr[sel] + k)
            cells.append(lane_cell[sel])
        pos = np.concatenate(positions)
        cell = np.concatenate(cells)
        keys = np.stack([pos // self.granule_bytes, cell], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse))[:-1]
        groups = np.split((pos % self.granule_bytes)[order], bounds)
        bitval = np.left_shift(
            np.uint8(1), np.arange(8, dtype=np.uint8)
        )
        for j in range(len(uniq)):
            key = (int(uniq[j, 0]), int(uniq[j, 1]))
            target = self._cells.get(key)
            if target is None:
                target = self._cells[key] = _Cell(nbits)
            bits = groups[j]
            np.bitwise_or.at(target.bits, bits >> 3, bitval[bits & 7])

    def merge(self, other: "HeatmapAggregate") -> None:
        if (other.cell_rows != self.cell_rows
                or other.granule_bytes != self.granule_bytes):
            raise AnalysisError(
                "cannot merge heat-map aggregates with different binning"
            )
        overlap = self._phase.keys() & other._phase.keys()
        if overlap:
            raise AnalysisError(
                f"cannot merge heat-map aggregates with overlapping CTAs "
                f"(e.g. {sorted(overlap)[:3]}): shard partitions must be "
                f"disjoint"
            )
        self._phase.update(other._phase)
        for key, cell in other._cells.items():
            mine = self._cells.get(key)
            if mine is None:
                self._cells[key] = cell
            else:
                mine.merge(cell)

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


def _columns_from_records(records) -> MemoryColumns:
    """Materialize columns from a plain record list (hand-built tests)."""
    n = len(records)
    warp = len(records[0].mask) if n else 1
    cols = MemoryColumns(
        np.array([r.seq for r in records], dtype=np.int64),
        np.array([r.cta for r in records], dtype=np.int32),
        np.array([r.warp_in_cta for r in records], dtype=np.int32),
        np.array([r.bits for r in records], dtype=np.int32),
        np.array([r.line for r in records], dtype=np.int32),
        np.array([r.col for r in records], dtype=np.int32),
        np.array([int(r.op) for r in records], dtype=np.int8),
        np.array([r.call_path_id for r in records], dtype=np.int64),
        np.array([r.addresses for r in records], dtype=np.int64).reshape(n, warp),
        np.array([r.mask for r in records], dtype=bool).reshape(n, warp),
    )
    return cols


def heatmap_analysis(profile, cell_rows: int = DEFAULT_CELL_ROWS,
                     granule_bytes: int = DEFAULT_GRANULE) -> HeatmapTable:
    """Batch heat map of one :class:`KernelProfile` (in-RAM drain).

    Feeds the whole materialized trace through one
    :class:`HeatmapAggregate` as a single segment, so the result is
    definitionally identical to fused in-flight analysis'.
    """
    records = profile.memory_records
    if not isinstance(records, MemoryColumns):
        records = _columns_from_records(list(records))
    aggregate = HeatmapAggregate(cell_rows, granule_bytes)
    if len(records):
        aggregate.update(records)
    return aggregate.finalize()
