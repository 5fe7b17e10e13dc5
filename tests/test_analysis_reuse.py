"""Tests for the reuse-distance analyzer, including property-based
verification against a naive quadratic reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reuse_distance import (
    INFINITE,
    PAPER_BUCKETS,
    ReuseDistanceHistogram,
    ReuseDistanceModel,
    reuse_distance_analysis,
    reuse_distances_of_trace,
)
from repro.profiler.records import MemoryAccessRecord, MemoryOp
from tests.analysis_oracle import columns_profile


def naive_reuse_distances(events, write_restart=True, reads_only=True):
    """O(n^2) reference: distinct elements between consecutive uses."""
    samples = []
    for t, (element, is_write) in enumerate(events):
        if is_write and reads_only:
            continue
        prev = None
        for s in range(t - 1, -1, -1):
            if events[s][0] == element:
                prev = s
                break
        if prev is None:
            samples.append(INFINITE)
            continue
        if write_restart and events[prev][1]:
            samples.append(INFINITE)
            continue
        distinct = {events[s][0] for s in range(prev + 1, t)}
        samples.append(len(distinct))
    return samples


class TestAgainstPaperExample:
    def test_abccdefaaab_sequence(self):
        """The paper's worked example: in ABCCDEFAAAB the reuse distance
        of (the second) B is 5."""
        seq = "ABCCDEFAAAB"
        events = [(ord(c), False) for c in seq]
        distances = reuse_distances_of_trace(events, write_restart=False)
        # The last access (B) must have distance 5.
        assert distances[-1] == 5
        # And C's immediate reuse has distance 0.
        assert distances[3] == 0

    def test_write_restart_rule(self):
        """Read A, write A, read A: the second read must be INFINITE
        (write-evict L1 cannot serve it), and reuse restarts after."""
        events = [(1, False), (1, True), (1, False), (1, False)]
        distances = reuse_distances_of_trace(events, write_restart=True)
        assert distances == [INFINITE, INFINITE, 0]

    def test_classic_mode_ignores_writes(self):
        events = [(1, False), (1, True), (1, False)]
        distances = reuse_distances_of_trace(events, write_restart=False)
        assert distances == [INFINITE, 0]


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12), st.booleans()
            ),
            max_size=120,
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_reference(self, events, write_restart):
        fast = reuse_distances_of_trace(events, write_restart=write_restart)
        slow = naive_reuse_distances(events, write_restart=write_restart)
        assert fast == slow

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_sample_count_equals_reads(self, elements):
        events = [(e, False) for e in elements]
        assert len(reuse_distances_of_trace(events)) == len(events)

    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                    max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_infinite_count_equals_distinct_elements(self, elements):
        """With no writes, exactly the first touch of each element is ∞."""
        events = [(e, False) for e in elements]
        distances = reuse_distances_of_trace(events)
        assert distances.count(INFINITE) == len(set(elements))

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_distance_bounded_by_alphabet(self, elements):
        events = [(e, False) for e in elements]
        for d in reuse_distances_of_trace(events):
            if d != INFINITE:
                assert 0 <= d < 7


class TestHistogram:
    def test_bucketing(self):
        h = ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT)
        for d in (0, 1, 2, 3, 8, 9, 32, 33, 128, 129, 512, 513, 100000,
                  INFINITE):
            h.add_sample(d)
        assert h.bucket_counts == [1, 2, 2, 2, 2, 2, 2]
        assert h.infinite == 1
        assert h.samples == 14

    def test_frequencies_sum_to_one(self):
        h = ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT)
        for d in (0, 5, INFINITE, 600):
            h.add_sample(d)
        assert sum(h.frequencies.values()) == pytest.approx(1.0)

    def test_average_over_finite_only(self):
        h = ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT)
        h.add_sample(10)
        h.add_sample(20)
        h.add_sample(INFINITE)
        assert h.average_distance == 15.0
        assert h.no_reuse_fraction == pytest.approx(1 / 3)

    def test_merge_model_mismatch_rejected(self):
        from repro.errors import AnalysisError

        a = ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT)
        b = ReuseDistanceHistogram(model=ReuseDistanceModel.CACHE_LINE)
        with pytest.raises(AnalysisError):
            a.merge(b)


def _record(seq, cta, addrs, op=MemoryOp.LOAD, bits=32):
    addresses = np.zeros(32, dtype=np.int64)
    mask = np.zeros(32, dtype=bool)
    for i, a in enumerate(addrs):
        addresses[i] = a
        mask[i] = True
    return MemoryAccessRecord(
        seq=seq, cta=cta, warp_in_cta=0, addresses=addresses, mask=mask,
        bits=bits, line=1, col=1, op=op, call_path_id=0,
    )


class TestProfileLevelAnalysis:
    def test_per_cta_regrouping(self):
        """Accesses of different CTAs are independent streams: an address
        shared by two CTAs is a first touch (∞) in each."""
        records = [
            _record(0, cta=0, addrs=[4096]),
            _record(1, cta=1, addrs=[4096]),
            _record(2, cta=0, addrs=[4096]),
        ]
        hist = reuse_distance_analysis(columns_profile(records))
        assert hist.infinite == 2 + 32 - 32  # one ∞ per CTA... see below
        # Explicitly: cta0 sees [a, a] -> [inf, 0]; cta1 sees [a] -> [inf].
        assert hist.bucket_counts[0] == 1  # the distance-0 reuse
        assert hist.infinite == 2

    def test_cache_line_model_merges_neighbors(self):
        # Two addresses in the same 128B line: element model sees two
        # elements; line model sees a distance-0 reuse.
        records = [
            _record(0, cta=0, addrs=[4096]),
            _record(1, cta=0, addrs=[4100]),
        ]
        element = reuse_distance_analysis(
            columns_profile(records), model=ReuseDistanceModel.ELEMENT
        )
        line = reuse_distance_analysis(
            columns_profile(records), model=ReuseDistanceModel.CACHE_LINE,
            line_size=128,
        )
        assert element.infinite == 2
        assert line.infinite == 1
        assert line.bucket_counts[0] == 1

    def test_lane_order_within_warp(self):
        # One warp access touching [a, b, a]: lanes serialize in lane
        # order, so the second a has distance 1 (b intervenes).
        records = [_record(0, cta=0, addrs=[4096, 8192, 4096])]
        hist = reuse_distance_analysis(columns_profile(records))
        assert hist.bucket_counts[1] == 1  # bucket "1-2"

    def test_stores_restart_but_do_not_sample(self):
        records = [
            _record(0, cta=0, addrs=[4096]),
            _record(1, cta=0, addrs=[4096], op=MemoryOp.STORE),
            _record(2, cta=0, addrs=[4096]),
        ]
        hist = reuse_distance_analysis(columns_profile(records))
        # Two reads sampled; both ∞ (first touch, killed-by-write).
        assert hist.samples == 2
        assert hist.infinite == 2
