"""Tests for the L1 cache model and MSHR file, including the GPU
write-evict / write-no-allocate semantics the reuse-distance analysis
leans on, plus hypothesis properties against a brute-force LRU model.
``tests/test_memory_model_lines.py`` checks the line-list methods
against a per-line reference on random streams."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import KEPLER_K40C
from repro.gpu.cache import CacheStats, MSHRFile, SetAssociativeCache
from repro.gpu.coalescing import coalesce, divergence_degree
from repro.gpu.timing import SMTimingModel, model_global_lines


def _read(cache, line):
    """One read; True on hit."""
    return not cache.access_lines([line], False)


def _write(cache, line):
    """One write; True on hit (which evicts)."""
    return not cache.access_lines([line], True)


def _request(mshr, line, now, latency):
    """One MSHR request at SM time ``now``; False on allocation failure."""
    clock = SimpleNamespace(cycles=float(now))
    mshr.request_lines([line], clock, latency, stall=1)
    return clock.cycles == now


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(1024, 128, 4)
        assert not _read(c, 0)
        assert _read(c, 0)
        assert c.stats.read_hits == 1
        assert c.stats.read_misses == 1

    def test_lru_eviction_order(self):
        # 2 lines capacity in one set: direct test of LRU.
        c = SetAssociativeCache(256, 128, 2)  # 2 lines, 1 set
        _read(c, 0)
        _read(c, 1)
        _read(c, 0)  # 0 becomes MRU
        _read(c, 2)  # evicts 1 (LRU)
        assert c.contains(0)
        assert not c.contains(1)

    def test_write_evict(self):
        c = SetAssociativeCache(1024, 128, 4)
        _read(c, 5)
        assert c.contains(5)
        assert _write(c, 5)  # write hit evicts
        assert not c.contains(5)
        assert c.stats.write_hits == 1

    def test_write_no_allocate(self):
        c = SetAssociativeCache(1024, 128, 4)
        assert not _write(c, 9)
        assert not c.contains(9)
        assert c.stats.write_misses == 1

    def test_bypass_leaves_no_trace(self):
        c = SetAssociativeCache(1024, 128, 4)
        timing = SMTimingModel(KEPLER_K40C)
        model_global_lines(c, MSHRFile(4), timing, [3], bypass=True,
                           is_write=False)
        assert not c.contains(3)
        assert c.stats.bypassed == 1
        assert c.stats.reads == 0

    def test_set_mapping(self):
        c = SetAssociativeCache(1024, 128, 1)  # 8 sets, direct-mapped
        _read(c, 0)
        _read(c, 8)  # same set (8 % 8 == 0): evicts 0
        assert not c.contains(0)
        _read(c, 1)  # different set: both coexist
        assert c.contains(1)
        assert c.contains(8)

    def test_flush(self):
        c = SetAssociativeCache(1024, 128, 4)
        c.access_lines(list(range(8)), False)
        c.flush()
        assert c.resident_lines == 0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 128, 4)

    def test_stats_merge(self):
        a, b = CacheStats(read_hits=1, read_misses=2), CacheStats(read_hits=3)
        a.merge(b)
        assert a.read_hits == 4
        assert a.reads == 6


class TestFullyAssociativeProperty:
    """Fully-associative LRU: hit iff (backward) reuse distance < capacity.

    This is the classic stack-distance theorem; the reuse-distance
    analyzer and the cache model must agree on it.
    """

    @given(
        trace=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                       max_size=300),
        capacity=st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_iff_distance_below_capacity(self, trace, capacity):
        cache = SetAssociativeCache(capacity * 64, 64, capacity)  # 1 set
        assert cache.num_sets == 1
        last_seen = {}
        stack = []  # LRU order, front oldest
        for t, line in enumerate(trace):
            if line in stack:
                distance = len(stack) - 1 - stack.index(line)
                expected_hit = distance < capacity
            else:
                expected_hit = False
            got_hit = _read(cache, line)
            assert got_hit == expected_hit
            if line in stack:
                stack.remove(line)
            stack.append(line)
            if len(stack) > capacity:
                stack.pop(0)


class TestMSHR:
    def test_merge_outstanding(self):
        m = MSHRFile(4)
        assert _request(m, 1, now=0, latency=100)
        assert _request(m, 1, now=10, latency=100)
        assert m.merges == 1
        assert m.occupancy == 1

    def test_allocation_failure_when_full(self):
        m = MSHRFile(2)
        assert _request(m, 1, now=0, latency=100)
        assert _request(m, 2, now=0, latency=100)
        assert not _request(m, 3, now=0, latency=100)
        assert m.allocation_failures == 1

    def test_entries_retire_over_time(self):
        m = MSHRFile(2)
        _request(m, 1, now=0, latency=100)
        _request(m, 2, now=0, latency=100)
        # At t=150 both fills returned: new allocations succeed.
        assert _request(m, 3, now=150, latency=100)
        assert _request(m, 4, now=150, latency=100)
        assert m.allocation_failures == 0

    def test_failure_rate(self):
        m = MSHRFile(1)
        _request(m, 1, now=0, latency=100)
        _request(m, 2, now=1, latency=100)
        assert m.failure_rate == pytest.approx(0.5)


class TestCoalescing:
    def test_fully_coalesced(self):
        addrs = np.arange(32, dtype=np.int64) * 4  # 128 contiguous bytes
        mask = np.ones(32, dtype=bool)
        assert divergence_degree(addrs, mask, 4, 128) == 1

    def test_fully_divergent(self):
        addrs = np.arange(32, dtype=np.int64) * 128
        mask = np.ones(32, dtype=bool)
        assert divergence_degree(addrs, mask, 4, 128) == 32

    def test_line_size_matters(self):
        addrs = np.arange(32, dtype=np.int64) * 4
        mask = np.ones(32, dtype=bool)
        assert divergence_degree(addrs, mask, 4, 32) == 4  # Pascal sectors

    def test_masked_lanes_ignored(self):
        addrs = np.arange(32, dtype=np.int64) * 128
        mask = np.zeros(32, dtype=bool)
        mask[0] = True
        assert divergence_degree(addrs, mask, 4, 128) == 1
        assert len(coalesce(addrs, np.zeros(32, dtype=bool), 4, 128)) == 0

    def test_straddling_access_counts_both_lines(self):
        addrs = np.array([126] + [0] * 31, dtype=np.int64)
        mask = np.zeros(32, dtype=bool)
        mask[0] = True
        assert divergence_degree(addrs, mask, 4, 128) == 2

    @given(
        offsets=st.lists(
            st.integers(min_value=0, max_value=4096), min_size=32, max_size=32
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_set(self, offsets):
        addrs = np.asarray(offsets, dtype=np.int64) * 4
        mask = np.ones(32, dtype=bool)
        naive = set()
        for a in addrs:
            naive.add(a // 128)
            naive.add((a + 3) // 128)
        assert divergence_degree(addrs, mask, 4, 128) == len(naive)
