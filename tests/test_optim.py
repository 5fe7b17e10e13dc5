"""Tests for the Eq.(1) bypass model, the oracle search and the advisor."""

import dataclasses
import multiprocessing
import os

import pytest

from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.reuse_distance import (
    ReuseDistanceHistogram,
    ReuseDistanceModel,
)
from repro.errors import AnalysisError, ExecutionError
from repro.forked import ForkedChild
from repro.export import export_json, profile_export
from repro.gpu.arch import KEPLER_K40C, kepler_with_l1
from repro.optim import (
    BypassSearchResult,
    CUDAAdvisor,
    oracle_bypass_search,
    predict_optimal_warps,
)
from repro.optim import advisor as advisor_mod
from repro.optim.advisor import GPUProgram
from repro.optim.bypass_model import ctas_per_sm


def _reuse(avg: float) -> ReuseDistanceHistogram:
    h = ReuseDistanceHistogram(model=ReuseDistanceModel.CACHE_LINE)
    h.add_sample(int(avg))
    return h


def _divergence(degree: int) -> MemoryDivergenceProfile:
    md = MemoryDivergenceProfile(line_size=128)
    md.add(degree)
    return md


class TestEquationOne:
    def test_literal_formula(self):
        arch = kepler_with_l1(16)
        # floor(16384 / (4 * 128 * 2 * 2)) = floor(8) = 8
        pred = predict_optimal_warps(
            arch, _reuse(4), _divergence(2), num_ctas=arch.num_sms * 2,
            warps_per_cta=16,
        )
        assert pred.ctas_per_sm == 2
        assert pred.raw_value == pytest.approx(8.0)
        assert pred.optimal_warps == 8
        assert pred.bypassing_recommended

    def test_clamped_to_warp_count(self):
        arch = kepler_with_l1(48)
        pred = predict_optimal_warps(
            arch, _reuse(1), _divergence(1), num_ctas=1, warps_per_cta=4
        )
        # Tiny footprint: everything fits; no bypassing recommended.
        assert pred.optimal_warps == 4
        assert not pred.bypassing_recommended

    def test_clamped_to_at_least_one(self):
        arch = kepler_with_l1(16)
        pred = predict_optimal_warps(
            arch, _reuse(1000), _divergence(32), num_ctas=1000,
            warps_per_cta=8,
        )
        assert pred.optimal_warps == 1

    def test_l1_size_matters(self):
        """Bigger L1 -> more warps allowed in cache (the 16/48 KB axis
        of Figure 6)."""
        small = predict_optimal_warps(
            kepler_with_l1(16), _reuse(4), _divergence(2),
            num_ctas=30, warps_per_cta=32,
        )
        large = predict_optimal_warps(
            kepler_with_l1(48), _reuse(4), _divergence(2),
            num_ctas=30, warps_per_cta=32,
        )
        assert large.optimal_warps == 3 * small.optimal_warps

    def test_ctas_per_sm(self):
        assert ctas_per_sm(KEPLER_K40C, 1) == 1
        assert ctas_per_sm(KEPLER_K40C, KEPLER_K40C.num_sms * 3) == 3
        assert ctas_per_sm(KEPLER_K40C, 10**6) == KEPLER_K40C.max_ctas_per_sm


class TestOracleSearch:
    def test_exhaustive_and_picks_minimum(self):
        costs = {1: 50.0, 2: 30.0, 3: 40.0, 4: 100.0}
        calls = []

        def run(k):
            calls.append(k)
            return costs[k]

        result = oracle_bypass_search(run, warps_per_cta=4)
        assert calls == [1, 2, 3, 4]
        assert result.best_warps == 2
        assert result.baseline_cycles == 100.0
        assert result.oracle_normalized == pytest.approx(0.3)
        assert result.oracle_speedup == pytest.approx(100 / 30)
        assert result.normalized(3) == pytest.approx(0.4)


class TestAdvisorEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.apps import build_app

        advisor = CUDAAdvisor(
            arch=KEPLER_K40C, modes=("memory", "blocks"),
        )
        return advisor.profile(build_app("nn", num_records=512))

    def test_all_analyses_present(self, report):
        assert report.reuse_element is not None
        assert report.reuse_cache_line is not None
        assert report.memory_divergence is not None
        assert report.branch_divergence is not None
        assert report.bypass_prediction is not None
        assert report.overhead is not None

    def test_nn_characteristics(self, report):
        """nn is streaming (excluded from Figure 4 for >99% no-reuse)
        with almost no branch divergence (Table 3: 4%)."""
        assert report.reuse_element.no_reuse_fraction > 0.9
        assert report.branch_divergence.divergence_percent < 10.0

    def test_overhead_positive(self, report):
        assert report.overhead.cycle_overhead > 1.0
        assert report.overhead.instruction_overhead > 1.0

    def test_advice_rendering(self, report):
        tips = report.advice()
        assert tips
        assert any("streaming" in t for t in tips)

    def test_instrumentation_validates(self, report):
        # Both runs passed the app's check() (enforced inside profile()).
        assert report.baseline_results
        assert report.instrumented_results


class _Wrapped(GPUProgram):
    """A registry app whose baseline / instrumented runs can misbehave.

    ``fail`` maps ``"baseline"`` / ``"instrumented"`` to ``"raise"`` (the
    run raises) or ``"check"`` (the program's check fails); a run is the
    baseline when its runtime has no profiler.
    """

    def __init__(self, app, fail=None):
        self.app = app
        self.name = app.name
        self.kernels = app.kernels
        self.warps_per_cta = app.warps_per_cta
        self.fail = fail or {}

    def _mode(self, rt):
        which = "baseline" if rt.profiler is None else "instrumented"
        return which, self.fail.get(which)

    def prepare(self, rt):
        return self.app.prepare(rt)

    def run(self, rt, image, state, l1_warps_per_cta=None):
        which, fail = self._mode(rt)
        if fail == "raise":
            raise ExecutionError(f"{which} run exploded")
        return self.app.run(rt, image, state, l1_warps_per_cta)

    def check(self, rt, state) -> bool:
        return self._mode(rt)[1] != "check" and self.app.check(rt, state)


class TestBaselineOverlap:
    """The overhead baseline runs in a forked child beside the
    instrumented run; every outcome equals running the two in order."""

    @staticmethod
    def _app():
        from repro.apps import build_app

        return build_app("bfs", num_nodes=128)

    @staticmethod
    def _export(program, monkeypatch, overlap):
        monkeypatch.setattr(advisor_mod, "fork_available", lambda: overlap)
        report = CUDAAdvisor().profile(program)
        return export_json(profile_export(report)), report

    @staticmethod
    def _spy_children(monkeypatch):
        """Record each baseline child's pid and what it delivered."""
        seen = []
        recv = ForkedChild.recv

        def spy(self):
            delivered = recv(self)
            seen.append((self.process.pid, delivered is not None))
            return delivered

        monkeypatch.setattr(ForkedChild, "recv", spy)
        return seen

    @staticmethod
    def _assert_reaped(pids):
        assert multiprocessing.active_children() == []
        for pid in pids:
            with pytest.raises(ChildProcessError):  # no zombie left
                os.waitpid(pid, os.WNOHANG)

    def test_child_and_in_process_baselines_export_identically(
        self, monkeypatch
    ):
        seen = self._spy_children(monkeypatch)
        forked, report = self._export(self._app(), monkeypatch, True)
        assert [delivered for _, delivered in seen] == [True]
        self._assert_reaped([pid for pid, _ in seen])
        in_process, serial = self._export(self._app(), monkeypatch, False)
        assert len(seen) == 1  # no child without the fork probe
        assert forked == in_process
        assert report.overhead is not None

        def counts(results):
            return [(r.kernel, r.cycles, r.instructions, r.transactions)
                    for r in results]

        assert counts(report.baseline_results) == counts(
            serial.baseline_results
        )

    def test_child_without_result_falls_back_in_process(self, monkeypatch):
        reference, _ = self._export(self._app(), monkeypatch, False)
        seen = self._spy_children(monkeypatch)
        monkeypatch.setattr(advisor_mod, "_baseline_child",
                            lambda *args: os._exit(3))
        forked, _ = self._export(self._app(), monkeypatch, True)
        assert [delivered for _, delivered in seen] == [False]
        assert forked == reference
        self._assert_reaped([pid for pid, _ in seen])

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("instrumented", [None, "check", "raise"])
    def test_failing_baseline_check_wins(
        self, monkeypatch, overlap, instrumented
    ):
        seen = self._spy_children(monkeypatch)
        program = _Wrapped(self._app(), {"baseline": "check",
                                         "instrumented": instrumented})
        with pytest.raises(AnalysisError) as exc:
            self._export(program, monkeypatch, overlap)
        assert str(exc.value) == "bfs: baseline run failed validation"
        self._assert_reaped([pid for pid, _ in seen])

    @pytest.mark.parametrize("overlap", [True, False])
    def test_instrumented_error_reaps_the_child(self, monkeypatch, overlap):
        seen = self._spy_children(monkeypatch)
        program = _Wrapped(self._app(), {"instrumented": "raise"})
        with pytest.raises(ExecutionError, match="instrumented run exploded"):
            self._export(program, monkeypatch, overlap)
        assert [delivered for _, delivered in seen] == [True] * overlap
        self._assert_reaped([pid for pid, _ in seen])

    @pytest.mark.parametrize("overlap", [True, False])
    def test_baseline_error_wins_over_instrumented(self, monkeypatch, overlap):
        seen = self._spy_children(monkeypatch)
        program = _Wrapped(self._app(), {"baseline": "raise",
                                         "instrumented": "raise"})
        with pytest.raises(ExecutionError, match="baseline run exploded"):
            self._export(program, monkeypatch, overlap)
        # the child raised and delivered nothing; the parent's rerun
        # reproduced the error
        assert [delivered for _, delivered in seen] == [False] * overlap
        self._assert_reaped([pid for pid, _ in seen])

    def test_interrupt_kills_the_child(self, monkeypatch):
        seen = []
        start = ForkedChild.__init__

        def spy(self, *args):
            start(self, *args)
            seen.append(self.process.pid)

        compile_ = CUDAAdvisor._compile

        def interrupted(self, program, instrument, bypass=False):
            if instrument:  # ^C while the child runs the baseline
                raise KeyboardInterrupt
            return compile_(self, program, instrument, bypass)

        monkeypatch.setattr(ForkedChild, "__init__", spy)
        monkeypatch.setattr(CUDAAdvisor, "_compile", interrupted)
        monkeypatch.setattr(advisor_mod, "fork_available", lambda: True)
        with pytest.raises(KeyboardInterrupt):
            CUDAAdvisor().profile(self._app())
        assert len(seen) == 1
        self._assert_reaped(seen)
