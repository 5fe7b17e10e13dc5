"""Rendering and advice-path tests for the AdvisorReport."""

from repro.analysis.divergence_branch import BranchDivergenceProfile
from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.reuse_distance import (
    ReuseDistanceHistogram,
    ReuseDistanceModel,
)
from repro.gpu.arch import KEPLER_K40C
from repro.optim.advisor import AdvisorReport
from repro.optim.bypass_model import BypassPrediction
from repro.profiler.records import BlockRecord
from repro.profiler.session import ProfilingSession


def _report(**overrides):
    base = dict(
        program="toy",
        arch=KEPLER_K40C,
        modes=("memory",),
        session=ProfilingSession(),
        baseline_results=[],
        instrumented_results=[],
    )
    base.update(overrides)
    return AdvisorReport(**base)


def _hist(no_reuse_samples, short_samples):
    h = ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT)
    for _ in range(no_reuse_samples):
        h.add_sample(-1)
    for _ in range(short_samples):
        h.add_sample(1)
    return h


def _md(degree_value, count=10):
    md = MemoryDivergenceProfile(line_size=128)
    for _ in range(count):
        md.add(degree_value)
    return md


def _bd(divergent, total):
    bd = BranchDivergenceProfile()
    for i in range(total):
        bd.add(BlockRecord(
            seq=i, cta=0, warp_in_cta=0, block_name="k:entry", line=1,
            col=1, active_lanes=(4 if i < divergent else 32),
            resident_lanes=32, call_path_id=0,
        ))
    return bd


class TestAdviceBranches:
    def test_streaming_advice(self):
        report = _report(reuse_element=_hist(95, 5))
        assert any("streaming" in t for t in report.advice())

    def test_moderate_no_reuse_suggests_bypassing(self):
        report = _report(reuse_element=_hist(60, 40))
        assert any("bypassing is likely to help" in t
                   for t in report.advice())

    def test_divergence_advice(self):
        report = _report(memory_divergence=_md(16))
        assert any("coalescing" in t for t in report.advice())

    def test_branch_divergence_advice_names_block(self):
        report = _report(branch_divergence=_bd(5, 10))
        tips = report.advice()
        assert any("k:entry" in t for t in tips)

    def test_bypass_advice(self):
        pred = BypassPrediction(
            optimal_warps=2, raw_value=2.4, avg_reuse_distance=4.0,
            divergence_degree=8.0, ctas_per_sm=4, l1_size=16384,
            line_size=128, warps_per_cta=8,
        )
        report = _report(bypass_prediction=pred)
        assert any("2 of 8 warps" in t for t in report.advice())

    def test_clean_program_gets_no_findings(self):
        report = _report(
            reuse_element=_hist(5, 95),
            memory_divergence=_md(1),
            branch_divergence=_bd(0, 10),
        )
        tips = report.advice()
        assert len(tips) == 1
        assert "no significant bottleneck" in tips[0]
