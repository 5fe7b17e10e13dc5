"""Tests for the memory-divergence and branch-divergence analyzers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.divergence_branch import (
    BranchDivergenceProfile,
    branch_divergence_analysis,
)
from repro.analysis.divergence_memory import (
    MemoryDivergenceProfile,
    divergent_sites,
    memory_divergence_analysis,
)
from repro.profiler.records import BlockRecord, MemoryAccessRecord, MemoryOp
from tests.analysis_oracle import columns_profile


def _mem_record(addrs, seq=0, bits=32, line=7, col=3):
    addresses = np.zeros(32, dtype=np.int64)
    mask = np.zeros(32, dtype=bool)
    for i, a in enumerate(addrs):
        addresses[i] = a
        mask[i] = True
    return MemoryAccessRecord(
        seq=seq, cta=0, warp_in_cta=0, addresses=addresses, mask=mask,
        bits=bits, line=line, col=col, op=MemoryOp.LOAD, call_path_id=0,
    )


def _block_record(active, resident=32, name="k:entry", seq=0):
    return BlockRecord(
        seq=seq, cta=0, warp_in_cta=0, block_name=name, line=5, col=1,
        active_lanes=active, resident_lanes=resident, call_path_id=0,
    )


class TestMemoryDivergence:
    def test_coalesced_counts_one_line(self):
        profile = columns_profile(
            [_mem_record([4096 + 4 * i for i in range(32)])]
        )
        md = memory_divergence_analysis(profile, line_size=128)
        assert md.distribution == {1: 1.0}
        assert md.divergence_degree == 1.0

    def test_divergent_counts_32_lines(self):
        profile = columns_profile(
            [_mem_record([4096 + 128 * i for i in range(32)])]
        )
        md = memory_divergence_analysis(profile, line_size=128)
        assert md.distribution == {32: 1.0}

    def test_degree_is_weighted_average(self):
        profile = columns_profile([
            _mem_record([4096] * 32),
            _mem_record([4096 + 128 * i for i in range(32)]),
        ])
        md = memory_divergence_analysis(profile, line_size=128)
        assert md.divergence_degree == pytest.approx((1 + 32) / 2)

    def test_same_trace_two_architectures(self):
        """One trace yields both Kepler and Pascal views (128B vs 32B)."""
        records = [_mem_record([4096 + 4 * i for i in range(32)])]
        kepler = memory_divergence_analysis(columns_profile(records), 128)
        pascal = memory_divergence_analysis(columns_profile(records), 32)
        assert kepler.distribution == {1: 1.0}
        assert pascal.distribution == {4: 1.0}

    def test_divergent_sites_lookup(self):
        records = [
            _mem_record([4096 + 128 * i for i in range(32)], line=33, col=9),
            _mem_record([4096] * 32, line=12, col=1),
        ]
        sites = divergent_sites(columns_profile(records), line_size=128)
        assert (33, 9) in sites
        assert (12, 1) not in sites

    @given(st.lists(st.integers(1, 32), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_degree_bounds(self, counts):
        md = MemoryDivergenceProfile(line_size=128)
        for c in counts:
            md.add(c)
        assert 1.0 <= md.divergence_degree <= 32.0
        assert sum(md.distribution.values()) == pytest.approx(1.0)

    def test_merge(self):
        a = MemoryDivergenceProfile(line_size=128)
        b = MemoryDivergenceProfile(line_size=128)
        a.add(1)
        b.add(32)
        a.merge(b)
        assert a.instructions == 2
        assert a.divergence_degree == pytest.approx(16.5)


class TestBranchDivergence:
    def test_full_mask_not_divergent(self):
        bd = branch_divergence_analysis(
            columns_profile(block=[_block_record(32)])
        )
        assert bd.total_blocks == 1
        assert bd.divergent_blocks == 0
        assert bd.divergence_percent == 0.0

    def test_partial_mask_divergent(self):
        bd = branch_divergence_analysis(
            columns_profile(block=[_block_record(13)])
        )
        assert bd.divergent_blocks == 1
        assert bd.divergence_percent == 100.0

    def test_partial_warp_baseline(self):
        """A 16-thread CTA's full warp has 16 resident lanes: executing
        all 16 is NOT divergence (nw's 1-warp CTAs rely on this)."""
        bd = branch_divergence_analysis(
            columns_profile(block=[_block_record(16, resident=16)])
        )
        assert bd.divergent_blocks == 0

    def test_table3_percentages(self):
        records = [_block_record(32)] * 3 + [_block_record(5)]
        bd = branch_divergence_analysis(columns_profile(block=records))
        assert bd.divergence_percent == pytest.approx(25.0)

    def test_worst_blocks_ranking(self):
        records = (
            [_block_record(5, name="k:hot")] * 3
            + [_block_record(7, name="k:mild")]
            + [_block_record(32, name="k:clean")] * 4
        )
        bd = branch_divergence_analysis(columns_profile(block=records))
        worst = bd.worst_blocks(2)
        assert worst[0][0] == "k:hot"
        assert worst[0][1].divergent == 3
        assert worst[1][0] == "k:mild"

    def test_merge(self):
        a = branch_divergence_analysis(
            columns_profile(block=[_block_record(32, name="k:a")])
        )
        b = branch_divergence_analysis(
            columns_profile(block=[_block_record(3, name="k:a")])
        )
        a.merge(b)
        assert a.total_blocks == 2
        assert a.per_block["k:a"].executions == 2
        assert a.per_block["k:a"].divergent == 1
