"""Unit tests for the SM cycle cost model."""

import pytest

from repro.gpu.arch import KEPLER_K40C
from repro.gpu.cache import MSHRFile
from repro.gpu.timing import SMTimingModel, TimingParams


def _model(**params):
    return SMTimingModel(KEPLER_K40C, TimingParams(**params))


class TestLatencyHiding:
    def test_single_warp_hides_nothing(self):
        m = _model()
        m.set_resident_warps(1)
        m.global_transactions(hits=0, misses=1, bypasses=0)
        assert m.cycles == pytest.approx(KEPLER_K40C.l2_latency)

    def test_more_warps_hide_more(self):
        few, many = _model(), _model()
        few.set_resident_warps(2)
        many.set_resident_warps(16)
        few.global_transactions(0, 10, 0)
        many.global_transactions(0, 10, 0)
        assert many.cycles < few.cycles

    def test_hiding_saturates(self):
        a, b = _model(), _model()
        a.set_resident_warps(64)
        b.set_resident_warps(1024)
        a.global_transactions(0, 10, 0)
        b.global_transactions(0, 10, 0)
        assert a.cycles == pytest.approx(b.cycles)  # capped


class TestCostStructure:
    def test_hits_cheaper_than_misses(self):
        hit, miss = _model(), _model()
        hit.set_resident_warps(8)
        miss.set_resident_warps(8)
        hit.global_transactions(10, 0, 0)
        miss.global_transactions(0, 10, 0)
        assert hit.cycles < miss.cycles

    def test_miss_and_bypass_both_cost_l2(self):
        miss, bypass = _model(), _model()
        miss.global_transactions(0, 5, 0)
        bypass.global_transactions(0, 0, 5)
        assert miss.cycles == pytest.approx(bypass.cycles)

    def test_issue_cost(self):
        m = _model()
        for _ in range(10):
            m.issue()
        assert m.cycles == pytest.approx(10 * KEPLER_K40C.issue_cycles)

    def test_mshr_failure_stall(self):
        m = _model(mshr_fail_stall=60)
        mshr = MSHRFile(1)
        mshr.request_lines([1, 2, 3, 4], m, latency=1000,
                           stall=m.params.mshr_fail_stall)
        assert mshr.allocation_failures == 3
        assert m.cycles == pytest.approx(180)

    def test_bank_conflicts_multiply_shared_cost(self):
        clean, conflicted = _model(), _model()
        clean.shared_access(1)
        conflicted.shared_access(8)
        assert conflicted.cycles == pytest.approx(8 * clean.cycles)

    def test_atomic_serialization(self):
        m = _model(atomic_cycles_per_lane=8)
        m.atomic(32)
        assert m.cycles == pytest.approx(256)

    def test_hook_cost_components(self):
        """The paper's three overhead sources each contribute."""
        p = TimingParams(hook_call_cycles=24, hook_lane_cycles=6,
                         hook_atomic_cycles=10)
        m = SMTimingModel(KEPLER_K40C, p)
        m.hook_call(lanes=32)
        assert m.cycles == pytest.approx(24 + 32 * 6 + 32 * 10)
        # An empty-mask hook still pays the call overhead.
        m2 = SMTimingModel(KEPLER_K40C, p)
        m2.hook_call(lanes=0)
        assert m2.cycles == pytest.approx(24)
