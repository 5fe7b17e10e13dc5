"""Memory heat maps: drain-invariance, resolution, rendering.

The heat-map aggregate (``analysis/heatmap.py``) must produce
byte-identical ``(granule, time-cell)`` tables no matter how the trace
reaches it:

* **Property tests** (hypothesis) compare one whole-trace update
  against random segment splits, CTA-partition shard merges
  (fork-parallel workers), and fused in-flight analysis with stride
  sampling -- cells must match bit-for-bit.
* **Oracle tests** (hypothesis) compare the vectorized aggregate with
  an independent pure-Python per-lane, per-byte reference, across
  access widths, granule-crossing accesses, large addresses and tiny
  update chunks (so phase cursors carry across chunk boundaries).
* **Resolution tests** pin the granule->allocation join: exact
  unique-byte counts under time re-binning, the ``(unmapped)`` row,
  and the launch-concatenating cross-launch merge.
* **App-level tests** pin the advisor wiring and the allocation join;
  byte-identity of the exported heat map with and without kept
  records is pinned by ``tests/test_goldens.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import heatmap
from repro.analysis.aggregates import advisor_plan
from repro.analysis.heatmap import (
    DEFAULT_GRANULE,
    HeatmapAggregate,
    HeatmapTable,
    heatmap_analysis,
)
from repro.analysis.report import render_heatmap
from repro.apps import build_app
from repro.errors import AnalysisError
from repro.optim.advisor import CUDAAdvisor
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
)
from repro.profiler.streamdrain import FusedSink
from tests.analysis_oracle import append_memory, drained, stride_sample

WARP = 4

#: one memory event: (cta, address selector, write flag, mask selector).
_EVENTS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 15),
        st.booleans(),
        st.integers(0, 2),
    ),
    max_size=60,
)


def _build_memory(events):
    return _fill_memory(ColumnarMemoryBuffer(), events)


def _fill_memory(buf, events):
    for seq, (cta, sel, write, msel) in enumerate(events):
        addrs = (
            0x1000
            + np.arange(WARP, dtype=np.int64) * (sel % 3 + 1) * 96
            + sel * 64
        )
        mask = np.ones(WARP, bool) if msel else np.arange(WARP) % 2 == 0
        append_memory(
            buf, seq=seq, cta=cta, warp_in_cta=sel % 2, addrs=addrs, mask=mask,
            bits=32 if sel % 2 else 64, line=sel % 5, col=sel % 3,
            op=2 if write else 1, call_path_id=0,
        )
    return buf


def _cells_equal(a: HeatmapTable, b: HeatmapTable) -> bool:
    if set(a.cells) != set(b.cells) or a.time_cells != b.time_cells:
        return False
    return all(
        a.cells[k].reads == b.cells[k].reads
        and a.cells[k].writes == b.cells[k].writes
        and np.array_equal(a.cells[k].bits, b.cells[k].bits)
        for k in a.cells
    )


def _whole_trace_table(events, cell_rows=4):
    agg = HeatmapAggregate(cell_rows=cell_rows)
    cols = drained(_build_memory(events))
    if len(cols):
        agg.update(cols)
    return agg.finalize()


class TestDrainInvariance:
    @settings(max_examples=40, deadline=None)
    @given(events=_EVENTS, data=st.data())
    def test_random_segment_splits_match_whole_trace(self, events, data):
        cols = drained(_build_memory(events))
        agg = HeatmapAggregate(cell_rows=4)
        start = 0
        while start < len(cols):
            step = data.draw(st.integers(1, 9))
            agg.update(cols.take(np.arange(start, min(start + step, len(cols)))))
            start += step
        assert _cells_equal(agg.finalize(), _whole_trace_table(events))

    @settings(max_examples=25, deadline=None)
    @given(
        events=_EVENTS,
        flush_rows=st.integers(1, 13),
        rate=st.sampled_from([1, 2, 3]),
    )
    def test_fused_sink_with_sampling(self, events, flush_rows, rate):
        mem = ColumnarMemoryBuffer()
        plan = advisor_plan(64, ("memory",), heatmap_cell_rows=4)
        bank = plan.create_bank()
        sink = FusedSink(
            bank, mem, ColumnarBlockBuffer(), ColumnarArithBuffer(),
            flush_rows, rate,
        )
        _fill_memory(mem, events)
        sink.flush()

        batch_cols = drained(_build_memory(events))
        kept, _ = stride_sample(
            batch_cols, ColumnarArithBuffer().empty_view(), rate
        )
        ref = HeatmapAggregate(cell_rows=4)
        if len(kept):
            ref.update(kept)
        assert _cells_equal(bank.result("heatmap"), ref.finalize())


def _oracle_cells(rows, cell_rows, granule):
    """Pure-Python reference: ``(granule, cell) -> [reads, writes, bytes]``.

    Walks the trace row by row and lane by lane: a CTA's k-th row lands
    in time cell ``k // cell_rows``; each active lane counts once in the
    granule of its address and marks every byte it touches.
    """
    phase = {}
    cells = {}
    for cta, addrs, mask, bits, write in rows:
        k = phase.get(cta, 0)
        phase[cta] = k + 1
        t = k // cell_rows
        for addr, active in zip(addrs, mask):
            if not active:
                continue
            entry = cells.setdefault((addr // granule, t), [0, 0, set()])
            entry[1 if write else 0] += 1
            for byte in range(addr, addr + max(bits // 8, 1)):
                entry = cells.setdefault(
                    (byte // granule, t), [0, 0, set()])
                entry[2].add(byte % granule)
    return cells


def _table_as_oracle(table):
    return {
        key: [
            cell.reads, cell.writes,
            set(np.flatnonzero(
                np.unpackbits(cell.bits, bitorder="little")).tolist()),
        ]
        for key, cell in table.cells.items()
    }


def _columns(rows):
    buf = ColumnarMemoryBuffer()
    for seq, (cta, addrs, mask, bits, write) in enumerate(rows):
        append_memory(
            buf, seq=seq, cta=cta, warp_in_cta=0,
            addrs=np.array(addrs, np.int64), mask=np.array(mask, bool),
            bits=bits, line=1, col=0, op=2 if write else 1,
            call_path_id=0,
        )
    return drained(buf)


#: one trace row: (cta, base address, lane stride, mask, bits, write);
#: bases cluster just below granule boundaries so wide accesses cross.
_ORACLE_ROWS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.one_of(
            st.integers(0, 2 ** 40),
            st.integers(1, 2 ** 32).map(lambda g: g * 256 - 7),
            st.integers(0, 600),
        ),
        st.sampled_from([0, 1, 4, 13, 256]),
        st.lists(st.booleans(), min_size=WARP, max_size=WARP),
        st.sampled_from([8, 16, 32, 64, 128]),
        st.booleans(),
    ).map(lambda r: (
        r[0], [r[1] + lane * r[2] for lane in range(WARP)], r[3], r[4], r[5]
    )),
    max_size=40,
)


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=_ORACLE_ROWS,
        cell_rows=st.integers(1, 5),
        granule=st.sampled_from([8, 64, DEFAULT_GRANULE]),
        chunk=st.integers(1, 3),
    )
    def test_matches_per_lane_reference(self, rows, cell_rows, granule,
                                        chunk):
        agg = HeatmapAggregate(cell_rows=cell_rows, granule_bytes=granule)
        with mock.patch.object(heatmap, "_UPDATE_CHUNK", chunk):
            if rows:
                agg.update(_columns(rows))
        assert _table_as_oracle(agg.finalize()) == (
            _oracle_cells(rows, cell_rows, granule)
        )

    def test_keys_past_63_bits_stay_exact(self):
        # granules near 2**54 with time cells past 2**9 cannot pack into
        # one int64 key; the aggregate must not wrap them
        far = 2 ** 62 - 3
        rows = [(0, [far, 64, far - 256, 0], [True] * WARP, 64, i % 2 == 0)
                for i in range(1030)]
        agg = HeatmapAggregate(cell_rows=1)
        agg.update(_columns(rows))
        assert _table_as_oracle(agg.finalize()) == (
            _oracle_cells(rows, 1, DEFAULT_GRANULE)
        )


class TestResolution:
    def _alloc(self, name, base, nbytes, site="app.py: 1"):
        class _Rec:
            pass

        rec = _Rec()
        rec.name, rec.base, rec.end, rec.site = (
            name, base, base + nbytes, site
        )
        return rec

    def test_counts_land_on_owning_allocation_and_unmapped(self):
        agg = HeatmapAggregate(cell_rows=2)
        buf = ColumnarMemoryBuffer()
        # Two reads in alloc A, one write in alloc B, one read outside.
        for seq, (addr, op) in enumerate(
            [(0x1000, 1), (0x1010, 1), (0x2000, 2), (0x9000, 1)]
        ):
            append_memory(
                buf, seq=seq, cta=0, warp_in_cta=0,
                addrs=np.full(WARP, addr, np.int64),
                mask=np.array([True] + [False] * (WARP - 1)),
                bits=32, line=1, col=0, op=op, call_path_id=0,
            )
        agg.update(drained(buf))
        table = agg.finalize()
        heat = table.resolve(
            [
                self._alloc("A", 0x1000, 4096),
                self._alloc("B", 0x2000, 4096),
            ],
            time_buckets=4,
        )
        by_name = {row.name: row for row in heat.rows}
        assert sum(by_name["A"].reads) == 2
        assert sum(by_name["A"].writes) == 0
        assert sum(by_name["B"].writes) == 1
        assert sum(by_name["(unmapped)"].reads) == 1
        # 4-byte reads at 0x1000 and 0x1010: 8 distinct bytes in A.
        assert sum(by_name["A"].unique_bytes) == 8
        assert sum(by_name["B"].unique_bytes) == 4

    def test_unique_bytes_exact_under_time_rebinning(self):
        # The same byte touched in many time cells must count once per
        # display bucket, however cells fold into buckets.
        agg = HeatmapAggregate(cell_rows=1)  # one cell per access
        buf = ColumnarMemoryBuffer()
        for seq in range(8):
            append_memory(
                buf, seq=seq, cta=0, warp_in_cta=0,
                addrs=np.full(WARP, 0x1000, np.int64),
                mask=np.array([True] + [False] * (WARP - 1)),
                bits=32, line=1, col=0, op=1, call_path_id=0,
            )
        table = agg_update_and_finalize(agg, buf)
        assert table.time_cells == 8
        for buckets in (1, 2, 3, 8):
            heat = table.resolve(
                [self._alloc("A", 0x1000, 256)], time_buckets=buckets
            )
            row = heat.rows[0]
            assert sum(row.reads) == 8
            # 4 distinct bytes per occupied bucket, never 4 * cells.
            assert row.unique_bytes == [4] * heat.time_buckets

    def test_cross_launch_merge_concatenates_timelines(self):
        def one_launch():
            agg = HeatmapAggregate(cell_rows=1)
            buf = ColumnarMemoryBuffer()
            for seq in range(3):
                append_memory(
                    buf, seq=seq, cta=0, warp_in_cta=0,
                    addrs=np.full(WARP, 0x1000, np.int64),
                    mask=np.array([True] + [False] * (WARP - 1)),
                    bits=32, line=1, col=0, op=1, call_path_id=0,
                )
            return agg_update_and_finalize(agg, buf)

        merged = HeatmapTable(cell_rows=1)
        merged.merge(one_launch())
        assert merged.time_cells == 3
        merged.merge(one_launch())
        assert merged.time_cells == 6  # second launch shifted past first
        assert all(cell.reads == 1 for cell in merged.cells.values())

    def test_resolve_rejects_bad_buckets_and_empty_table(self):
        table = HeatmapTable()
        with pytest.raises(AnalysisError):
            table.resolve([], time_buckets=0)
        heat = table.resolve([self._alloc("A", 0x1000, 64)], time_buckets=4)
        assert heat.time_buckets == 0
        assert heat.total_accesses == 0
        # the untouched allocation still appears as an (all-zero) row
        assert [row.name for row in heat.rows] == ["A"]


def agg_update_and_finalize(agg, buf):
    agg.update(drained(buf))
    return agg.finalize()


class TestRendering:
    def test_render_names_and_intensity(self):
        adv = CUDAAdvisor(
            modes=("memory",), measure_overhead=False, heatmap=True
        )
        report = adv.profile(build_app("nn"))
        text = render_heatmap("nn", report.resolved_heatmap(8))
        assert "Memory heat map -- nn" in text
        assert "d_locations" in text and "d_distances" in text
        assert "@" in text  # the hottest cell always renders full shade

    def test_render_empty(self):
        heat = HeatmapTable().resolve([], time_buckets=4)
        text = render_heatmap("empty", heat)
        assert "no memory accesses recorded" in text


class TestAppLevel:
    def test_heatmap_off_by_default(self):
        adv = CUDAAdvisor(modes=("memory",), measure_overhead=False)
        report = adv.profile(build_app("nn"))
        assert report.heatmap is None
        with pytest.raises(AnalysisError):
            report.resolved_heatmap()

    def test_resolved_rows_cover_session_allocations(self):
        adv = CUDAAdvisor(
            modes=("memory",), measure_overhead=False, heatmap=True,
            heatmap_cell_rows=32,
        )
        report = adv.profile(build_app("nn"))
        heat = report.resolved_heatmap(16)
        names = {row.name for row in heat.rows}
        assert names == {
            r.name for r in report.session.device_allocations
        }
        assert report.heatmap.granule_bytes == DEFAULT_GRANULE
        assert heat.total_accesses > 0

    def test_batch_helper_matches_aggregate_path(self):
        # heatmap_analysis over kept records == the fused report's map
        config = dict(modes=("memory",), measure_overhead=False,
                      heatmap=True)
        fused = CUDAAdvisor(**config).profile(build_app("nn"))
        kept = CUDAAdvisor(fused_drain=False, **config).profile(
            build_app("nn")
        )
        rebuilt = HeatmapTable()
        for profile in kept.session.profiles:
            rebuilt.merge(heatmap_analysis(profile))
        assert _cells_equal(fused.heatmap, rebuilt)
