"""The top-level CUDAAdvisor facade.

Ties the whole tool together the way Figure 1 draws it: *instrumentation
engine* -> *profiler* -> *analyzer* -> optimization advice. Programs are
described by the :class:`GPUProgram` protocol (kernels + host-side
prepare/run code); :meth:`CUDAAdvisor.profile` compiles, optimizes,
instruments, executes on the simulated GPU, runs every requested
analysis and returns an :class:`AdvisorReport`;
:meth:`CUDAAdvisor.evaluate_bypass` additionally performs the Figure 6/7
experiment (baseline vs oracle vs Eq.(1) prediction).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.config import ProfileConfig
from repro.errors import AnalysisError
from repro.forked import ForkedChild, fork_available
from repro.analysis.aggregates import advisor_plan
from repro.analysis.arithmetic import ArithmeticProfile
from repro.analysis.divergence_branch import BranchDivergenceProfile
from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.heatmap import HeatmapTable, MemoryHeatmap
from repro.analysis.overhead import OverheadReport, overhead_report
from repro.analysis.reuse_distance import (
    ReuseDistanceHistogram,
    ReuseDistanceModel,
)
# benchmarks/e2e/spans.py times these five by their names in this module.
from repro.analysis import (  # noqa: F401
    arithmetic_analysis,
    branch_divergence_analysis,
    memory_divergence_analysis,
    reuse_distance_analysis,
)
from repro.analysis.heatmap import heatmap_analysis  # noqa: F401
from repro.frontend.dsl import KernelSource, compile_kernels
from repro.gpu.arch import GPUArchitecture
from repro.gpu.device import Device, LaunchResult
from repro.host.runtime import CudaRuntime
from repro.optim.bypass_model import BypassPrediction, predict_optimal_warps
from repro.optim.oracle import BypassSearchResult, oracle_bypass_search
from repro.passes.bypass import HorizontalBypassPass
from repro.passes.manager import PassManager
from repro.passes.pipeline import instrumentation_pipeline, optimization_pipeline
from repro.profiler.session import ProfilingSession


class GPUProgram:
    """A CUDA application: kernels plus host-side driver code.

    Subclasses (the Table 2 benchmarks in :mod:`repro.apps`) provide:

    * ``name`` and ``kernels`` (a list of ``@kernel`` functions);
    * ``prepare(rt)`` -- allocate/copy inputs via ``rt``; returns state;
    * ``run(rt, image, state, l1_warps_per_cta=None)`` -- launch the
      kernels, returning the LaunchResults. With a sequence of bypass
      thresholds it executes once; ``result.cycles_by_threshold`` maps
      each to its cycles, and ``cycles``/``cache`` are the last one's;
    * optionally ``check(rt, state)`` -- validate outputs.
    """

    name: str = "program"
    kernels: Sequence[KernelSource] = ()
    warps_per_cta: int = 8

    def prepare(self, rt: CudaRuntime):
        raise NotImplementedError

    def run(self, rt, image, state, l1_warps_per_cta=None):
        raise NotImplementedError

    def check(self, rt: CudaRuntime, state) -> bool:
        return True


@dataclass
class AdvisorReport:
    """Everything CUDAAdvisor derives for one program on one arch."""

    program: str
    arch: GPUArchitecture
    modes: Tuple[str, ...]
    session: ProfilingSession
    baseline_results: List[LaunchResult]
    instrumented_results: List[LaunchResult]
    reuse_element: Optional[ReuseDistanceHistogram] = None
    reuse_cache_line: Optional[ReuseDistanceHistogram] = None
    memory_divergence: Optional[MemoryDivergenceProfile] = None
    branch_divergence: Optional[BranchDivergenceProfile] = None
    arithmetic: Optional[ArithmeticProfile] = None
    bypass_prediction: Optional[BypassPrediction] = None
    overhead: Optional[OverheadReport] = None
    #: granule-resolution heat map over all launches (launch-concatenated
    #: timeline); resolve to allocations via :meth:`resolved_heatmap`.
    heatmap: Optional[HeatmapTable] = None

    def resolved_heatmap(self, time_buckets: int = 64) -> MemoryHeatmap:
        """The per-allocation x time heat map (CUTHERMO view).

        Joins the granule-level table against this session's device
        allocation records and re-bins time to at most ``time_buckets``
        display buckets. Requires profiling with ``heatmap=True``.
        """
        if self.heatmap is None:
            raise AnalysisError(
                "no heat map in this report: profile with "
                "CUDAAdvisor(heatmap=True) (or repro profile --heatmap)"
            )
        return self.heatmap.resolve(
            self.session.device_allocations, time_buckets
        )

    def advice(self) -> List[str]:
        """Human-readable optimization guidance (the tool's purpose)."""
        tips: List[str] = []
        reuse = self.reuse_element or self.reuse_cache_line
        if reuse is not None:
            no_reuse = reuse.no_reuse_fraction
            if no_reuse > 0.9:
                tips.append(
                    f"{100 * no_reuse:.0f}% of accesses are streaming "
                    "(never reused): L1-level optimizations (capacity, "
                    "bypassing) will have little effect; consider "
                    "restructuring for spatial locality instead."
                )
            elif no_reuse > 0.5:
                tips.append(
                    f"{100 * no_reuse:.0f}% no-reuse accesses waste cache "
                    "and MSHR resources; cache bypassing is likely to help."
                )
        if self.memory_divergence is not None:
            degree = self.memory_divergence.divergence_degree
            if degree > 4:
                tips.append(
                    f"average memory divergence degree {degree:.1f} "
                    "(>4 lines per warp access): restructure data layout "
                    "or indexing for coalescing."
                )
        if self.branch_divergence is not None:
            pct = self.branch_divergence.divergence_percent
            if pct > 25:
                worst = self.branch_divergence.worst_blocks(1)
                where = f" (worst: {worst[0][0]})" if worst else ""
                tips.append(
                    f"{pct:.1f}% of dynamic blocks execute divergently"
                    f"{where}: consider branch-divergence optimizations."
                )
        if self.bypass_prediction is not None and (
            self.bypass_prediction.bypassing_recommended
        ):
            tips.append(
                f"horizontal cache bypassing: allow only "
                f"{self.bypass_prediction.optimal_warps} of "
                f"{self.bypass_prediction.warps_per_cta} warps per CTA "
                f"to use L1 (Eq. 1)."
            )
        if not tips:
            tips.append("no significant bottleneck detected by the analyses.")
        return tips


def _baseline_child(conn, advisor: "CUDAAdvisor",
                    program: GPUProgram) -> None:
    """Forked-child target: send the baseline's ``(results, check
    passed)``. An exception sends nothing; the parent then reruns the
    baseline itself (:meth:`CUDAAdvisor._checked_baseline`)."""
    conn.send(advisor._baseline_run(program))


class CUDAAdvisor:
    """Compile -> instrument -> profile -> analyze -> advise.

    Every setting lives in one :class:`~repro.config.ProfileConfig`
    (see it for each field): pass one as ``config``, or its fields as
    keywords (``CUDAAdvisor(arch=PASCAL_P100, modes=("memory",))``),
    which override a given ``config``'s. An invalid setting raises
    :class:`~repro.config.ConfigError` here, before anything runs.
    Every run executes on the interpreter, the one execution engine.
    """

    def __init__(self, config: Optional[ProfileConfig] = None, **settings):
        if config is None:
            config = ProfileConfig(**settings)
        elif settings:
            config = replace(config, **settings)
        self.config = config

    @property
    def arch(self) -> GPUArchitecture:
        """The target architecture, ``config.arch``."""
        return self.config.arch

    @property
    def backend(self) -> str:
        """The execution backend, kept for callers that read it or pass
        it on to a device: always ``"interpreter"`` (``ProfileConfig``
        maps ``None`` and the retired spelling of the removed backend
        to it)."""
        return self.config.backend

    def _compile(self, program: GPUProgram, instrument: bool,
                 bypass: bool = False):
        """The program's kernels compiled and optimized, with the
        horizontal-bypass pass if ``bypass`` and the instrumentation
        passes of ``config.modes`` if ``instrument``."""
        module = compile_kernels(list(program.kernels), program.name)
        optimization_pipeline().run(module)
        if bypass:
            PassManager([HorizontalBypassPass()]).run(module)
        if instrument:
            instrumentation_pipeline(self.config.modes).run(module)
        return module

    def _fresh_runtime(self, profiler=None):
        """A runtime on a new device, so no run sees another run's
        memory, caches or statistics; ``profiler`` (a session) receives
        the runtime's events."""
        device = Device(self.arch)
        device.backend = self.backend
        return CudaRuntime(device, profiler=profiler)

    def _plan(self):
        """The analyzer plan every profile's rows stream through."""
        config = self.config
        cell_rows = config.cell_rows if config.heatmap else None
        return advisor_plan(config.arch.l1_line_size, config.modes,
                            heatmap_cell_rows=cell_rows)

    def _baseline_run(
        self, program: GPUProgram
    ) -> Tuple[List[LaunchResult], bool]:
        """One uninstrumented run: its results and whether its check passed."""
        rt = self._fresh_runtime()
        module = self._compile(program, instrument=False)
        image = rt.device.load_module(module)
        state = program.prepare(rt)
        results = list(program.run(rt, image, state))
        return results, bool(program.check(rt, state))

    def _checked_baseline(
        self, program: GPUProgram, child: Optional[ForkedChild],
    ) -> List[LaunchResult]:
        """The baseline's results, raising if its check failed. The
        ``child`` running it is collected and reaped; without one, or
        when it delivered nothing, the baseline runs here, which
        reproduces any program error exactly."""
        delivered = None
        if child is not None:
            try:
                delivered = child.recv()
            finally:
                child.stop()
        results, passed = delivered or self._baseline_run(program)
        if not passed:
            raise AnalysisError(
                f"{program.name}: baseline run failed validation"
            )
        return results

    # -- main entry points ----------------------------------------------------------
    def profile(self, program: GPUProgram) -> AdvisorReport:
        """Run the full Figure 1 workflow for one program.

        The uninstrumented baseline run (for overhead and sanity) shares
        no state with the instrumented one, so it runs in a
        :class:`~repro.forked.ForkedChild` while this process runs the
        instrumented program. Where fork is unavailable
        (:func:`~repro.forked.fork_available`) or unsafe (another live
        thread, whose locks the child would inherit) it runs first, in
        this process. Either way the results, and which error is raised,
        are those of running the two one after the other.

        Returns the instrumented run's :class:`AdvisorReport` with every
        analysis of ``config.modes``. A run whose program check fails
        raises :class:`~repro.errors.AnalysisError`, the baseline's
        first as in serial order, then the instrumented run's
        (instrumentation must not change program semantics).
        """
        baseline_results: List[LaunchResult] = []
        baseline = None
        config = self.config
        if config.measure_overhead:
            if fork_available() and threading.active_count() == 1:
                baseline = ForkedChild(_baseline_child, self, program)
            else:
                baseline_results = self._checked_baseline(program, None)
        try:
            # Instrumented run. Every launch drains through one FusedSink:
            # into the plan's bank in flight (fused_drain=True), or into
            # kept records that _analyze feeds through the same plan.
            session = ProfilingSession(
                buffer_capacity=config.buffer_capacity,
                sample_rate=config.sample_rate,
                fused=self._plan() if config.fused_drain else None,
            )
            rt = self._fresh_runtime(profiler=session)
            module = self._compile(program, instrument=True)
            image = rt.device.load_module(module)
            state = program.prepare(rt)
            instrumented_results = list(program.run(rt, image, state))
            instrumented_ok = program.check(rt, state)
        except Exception:
            # Serial order: a failing baseline would have raised first.
            if baseline is not None:
                self._checked_baseline(program, baseline)
            raise
        except BaseException:
            if baseline is not None:
                baseline.stop()
            raise
        if baseline is not None:
            baseline_results = self._checked_baseline(program, baseline)
        if not instrumented_ok:
            raise AnalysisError(
                f"{program.name}: instrumented run failed validation "
                "(instrumentation must not change program semantics)"
            )

        report = AdvisorReport(
            program=program.name,
            arch=self.arch,
            modes=config.modes,
            session=session,
            baseline_results=baseline_results,
            instrumented_results=instrumented_results,
        )
        self._analyze(report, program)
        return report

    def _analyze(self, report: AdvisorReport, program: GPUProgram) -> None:
        config = self.config
        session = report.session
        plan = self._plan()
        banks = [
            plan.analyze(p) if p.aggregates is None else p.aggregates
            for p in session.profiles
        ]

        def merged(into, name: str):
            for bank in banks:
                into.merge(bank.result(name))
            return into

        if "memory" in config.modes and banks:
            report.reuse_element = merged(
                ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT),
                "reuse_element",
            )
            report.reuse_cache_line = merged(
                ReuseDistanceHistogram(model=ReuseDistanceModel.CACHE_LINE),
                "reuse_cache_line",
            )
            report.memory_divergence = merged(
                MemoryDivergenceProfile(line_size=self.arch.l1_line_size),
                "memory_divergence",
            )
            if config.heatmap:
                report.heatmap = merged(
                    HeatmapTable(cell_rows=config.cell_rows), "heatmap"
                )
            num_ctas = max(p.num_ctas for p in session.profiles)
            report.bypass_prediction = predict_optimal_warps(
                self.arch,
                report.reuse_cache_line,
                report.memory_divergence,
                num_ctas=num_ctas,
                warps_per_cta=program.warps_per_cta,
            )
        if "blocks" in config.modes and banks:
            report.branch_divergence = merged(
                BranchDivergenceProfile(), "branch_divergence"
            )
        if "arith" in config.modes and banks:
            report.arithmetic = merged(ArithmeticProfile(), "arithmetic")
        if config.measure_overhead and report.baseline_results:
            report.overhead = overhead_report(
                report.program,
                self.arch.name,
                config.modes,
                report.baseline_results,
                report.instrumented_results,
            )

    # -- the Figure 6/7 experiment ------------------------------------------------------
    def evaluate_bypass(
        self, program: GPUProgram, prediction: Optional[BypassPrediction] = None
    ) -> Tuple[BypassSearchResult, BypassPrediction]:
        """Baseline vs oracle vs Eq.(1)-predicted horizontal bypassing.

        Returns the exhaustive search result (cycles per threshold) and
        the prediction. ``result.normalized(prediction.optimal_warps)``
        is the "Prediction" bar of Figures 6/7;
        ``result.oracle_normalized`` is the "Oracle" bar.
        """
        if prediction is None:
            report = self.profile(program)
            prediction = report.bypass_prediction
            if prediction is None:
                raise AnalysisError(
                    "bypass evaluation needs the 'memory' analysis mode"
                )
        module = self._compile(program, instrument=False, bypass=True)
        # One functional run: every launch sweeps all thresholds, since
        # a threshold only changes timing (see Device.launch).
        thresholds = tuple(range(1, program.warps_per_cta + 1))
        rt = self._fresh_runtime()
        image = rt.device.load_module(module)
        state = program.prepare(rt)
        results = program.run(rt, image, state, l1_warps_per_cta=thresholds)
        if not program.check(rt, state):
            raise AnalysisError(
                f"{program.name}: bypassing changed program output"
            )
        cycles = {
            k: sum(r.cycles_by_threshold[k] for r in results)
            for k in thresholds
        }
        search = oracle_bypass_search(
            cycles.__getitem__, warps_per_cta=program.warps_per_cta
        )
        return search, prediction
