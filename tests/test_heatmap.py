"""Memory heat maps: drain-invariance, resolution, rendering.

The heat-map aggregate (``analysis/heatmap.py``) must produce
byte-identical ``(granule, time-cell)`` tables no matter how the trace
reaches it:

* **Property tests** (hypothesis) compare one whole-trace update
  against random segment splits, CTA-partition shard merges
  (fork-parallel workers), and fused in-flight analysis with stride
  sampling -- cells must match bit-for-bit.
* **Resolution tests** pin the granule->allocation join: exact
  unique-byte counts under time re-binning, the ``(unmapped)`` row,
  and the launch-concatenating cross-launch merge.
* **App-level tests** pin the advisor wiring and the allocation join;
  byte-identity of the exported heat map across the in-RAM and fused
  paths is pinned by ``tests/test_goldens.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    stride_sample,
)
from repro.profiler.streamdrain import FusedSink

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
        buf.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, addrs=addrs, mask=mask,
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
    cols = _build_memory(events).drain()
    if len(cols):
        agg.update(cols)
    return agg.finalize()


class TestDrainInvariance:
    @settings(max_examples=40, deadline=None)
    @given(events=_EVENTS, data=st.data())
    def test_random_segment_splits_match_whole_trace(self, events, data):
        cols = _build_memory(events).drain()
        agg = HeatmapAggregate(cell_rows=4)
        start = 0
        while start < len(cols):
            step = data.draw(st.integers(1, 9))
            agg.update(cols.take(np.arange(start, min(start + step, len(cols)))))
            start += step
        assert _cells_equal(agg.finalize(), _whole_trace_table(events))

    @settings(max_examples=40, deadline=None)
    @given(events=_EVENTS, pivot=st.integers(0, 3))
    def test_cta_shard_merge_matches_whole_trace(self, events, pivot):
        cols = _build_memory(events).drain()
        low, high = HeatmapAggregate(4), HeatmapAggregate(4)
        sel = np.asarray(cols.cta) <= pivot
        if sel.any():
            low.update(cols.take(np.flatnonzero(sel)))
        if (~sel).any():
            high.update(cols.take(np.flatnonzero(~sel)))
        low.merge(high)
        assert _cells_equal(low.finalize(), _whole_trace_table(events))

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

        batch_cols = _build_memory(events).drain()
        kept, _ = stride_sample(
            batch_cols, ColumnarArithBuffer(None).drain(), rate
        )
        ref = HeatmapAggregate(cell_rows=4)
        if len(kept):
            ref.update(kept)
        assert _cells_equal(bank.result("heatmap"), ref.finalize())

    def test_merge_rejects_mismatched_binning_and_shared_ctas(self):
        a, b = HeatmapAggregate(4), HeatmapAggregate(8)
        with pytest.raises(AnalysisError):
            a.merge(b)
        cols = _build_memory([(0, 1, False, 1)]).drain()
        c, d = HeatmapAggregate(4), HeatmapAggregate(4)
        c.update(cols)
        d.update(cols)
        with pytest.raises(AnalysisError):
            c.merge(d)


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
        buf = ColumnarMemoryBuffer(None)
        # Two reads in alloc A, one write in alloc B, one read outside.
        for seq, (addr, op) in enumerate(
            [(0x1000, 1), (0x1010, 1), (0x2000, 2), (0x9000, 1)]
        ):
            buf.append(
                seq=seq, cta=0, warp_in_cta=0,
                addrs=np.full(WARP, addr, np.int64),
                mask=np.array([True] + [False] * (WARP - 1)),
                bits=32, line=1, col=0, op=op, call_path_id=0,
            )
        agg.update(buf.drain())
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
        buf = ColumnarMemoryBuffer(None)
        for seq in range(8):
            buf.append(
                seq=seq, cta=0, warp_in_cta=0,
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
            buf = ColumnarMemoryBuffer(None)
            for seq in range(3):
                buf.append(
                    seq=seq, cta=0, warp_in_cta=0,
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
    agg.update(buf.drain())
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
        adv = CUDAAdvisor(
            modes=("memory",), measure_overhead=False, heatmap=True
        )
        report = adv.profile(build_app("nn"))
        rebuilt = HeatmapTable()
        for profile in report.session.profiles:
            rebuilt.merge(heatmap_analysis(profile))
        assert _cells_equal(report.heatmap, rebuilt)
