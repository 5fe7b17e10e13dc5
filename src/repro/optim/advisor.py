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

import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.analysis.aggregates import advisor_plan
from repro.analysis.arithmetic import ArithmeticProfile
from repro.analysis.divergence_branch import BranchDivergenceProfile
from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.heatmap import (
    DEFAULT_CELL_ROWS,
    HeatmapTable,
    MemoryHeatmap,
)
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
from repro.gpu.arch import GPUArchitecture, KEPLER_K40C
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
    #: JIT trace-cache counters from the instrumented run's device
    #: (batched backend only; see repro.gpu.jit_cache).
    jit_cache: Optional[Dict[str, int]] = None
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

    def to_dict(self) -> dict:
        """A JSON-serializable summary of every analysis (for dashboards,
        regression tracking, or the CLI's --json mode)."""
        out: dict = {
            "program": self.program,
            "arch": {
                "name": self.arch.name,
                "chip": self.arch.chip,
                "l1_size": self.arch.l1_size,
                "l1_line_size": self.arch.l1_line_size,
            },
            "modes": list(self.modes),
            "kernel_instances": len(self.session.profiles),
            "advice": self.advice(),
        }
        if self.reuse_element is not None:
            out["reuse_element"] = {
                "frequencies": self.reuse_element.frequencies,
                "no_reuse_fraction": self.reuse_element.no_reuse_fraction,
                "average_finite_distance":
                    self.reuse_element.average_distance,
                "samples": self.reuse_element.samples,
            }
        if self.reuse_cache_line is not None:
            out["reuse_cache_line"] = {
                "no_reuse_fraction":
                    self.reuse_cache_line.no_reuse_fraction,
                "average_finite_distance":
                    self.reuse_cache_line.average_distance,
            }
        if self.memory_divergence is not None:
            out["memory_divergence"] = {
                "distribution": {
                    str(k): v
                    for k, v in self.memory_divergence.distribution.items()
                },
                "degree": self.memory_divergence.divergence_degree,
                "instructions": self.memory_divergence.instructions,
            }
        if self.branch_divergence is not None:
            out["branch_divergence"] = {
                "divergent_blocks": self.branch_divergence.divergent_blocks,
                "total_blocks": self.branch_divergence.total_blocks,
                "percent": self.branch_divergence.divergence_percent,
            }
        if self.arithmetic is not None:
            out["arithmetic"] = {
                "lane_flops": self.arithmetic.lane_flops,
                "lane_intops": self.arithmetic.lane_intops,
                "float_fraction": self.arithmetic.float_fraction,
            }
        if self.bypass_prediction is not None:
            p = self.bypass_prediction
            out["bypass_prediction"] = {
                "optimal_warps": p.optimal_warps,
                "warps_per_cta": p.warps_per_cta,
                "raw_value": p.raw_value,
                "recommended": p.bypassing_recommended,
            }
        if self.overhead is not None:
            out["overhead"] = {
                "cycle_overhead": self.overhead.cycle_overhead,
                "instruction_overhead": self.overhead.instruction_overhead,
            }
        if self.jit_cache is not None:
            out["jit_cache"] = dict(self.jit_cache)
        if self.heatmap is not None:
            out["heatmap"] = {
                "granule_bytes": self.heatmap.granule_bytes,
                "cell_rows": self.heatmap.cell_rows,
                "time_cells": self.heatmap.time_cells,
                "occupied_cells": len(self.heatmap.cells),
            }
        # Rows the keep-first buffer capacity discarded: the trace is
        # never written out, so nothing else can be lost.
        dropped = sum(p.dropped_records for p in self.session.profiles)
        if dropped:
            out["trace_buffers"] = {
                "dropped_records": dropped,
            }
        stream_stats = [
            p.stream_stats
            for p in self.session.profiles
            if p.stream_stats is not None
        ]
        if stream_stats:
            out["streaming_drain"] = {
                "segments_streamed": sum(
                    s["segments_streamed"] for s in stream_stats
                ),
                "peak_resident_rows": max(
                    s["peak_resident_rows"] for s in stream_stats
                ),
                "rows_kept": sum(
                    s["memory_rows"] + s["block_rows"] + s["arith_rows"]
                    for s in stream_stats
                ),
                "rows_dropped": dropped,
            }
        supervisor = getattr(
            getattr(self.session.runtime, "device", None), "_supervisor", None
        )
        if supervisor is not None and supervisor.events:
            out["degradations"] = [
                {
                    "reason": e.reason,
                    "kernel": e.kernel,
                    "message": e.message,
                }
                for e in supervisor.events
            ]
        return out

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


def _overlap_available() -> bool:
    """Whether a baseline run can overlap the instrumented one.

    It needs ``fork`` and a process that may fork safely: no other
    thread (the child would inherit any lock it holds) and not a
    daemonic process, which may have no children. Service pool workers
    are both, and the pool already runs whole jobs side by side.
    """
    return (hasattr(os, "fork") and threading.active_count() == 1
            and not multiprocessing.current_process().daemon)


class _BaselineChild:
    """A baseline run in one forked child process.

    The child calls :meth:`CUDAAdvisor._baseline_run` and sends its
    ``(results, check passed)`` over a one-way pipe, then leaves with
    ``os._exit``: no atexit handler or inherited stdio buffer of the
    parent runs twice. A child that raises sends nothing; the parent
    then reruns the baseline itself (:meth:`CUDAAdvisor._checked_baseline`).
    """

    def __init__(self, advisor: "CUDAAdvisor", program: GPUProgram):
        ctx = multiprocessing.get_context("fork")
        self._conn, send = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=_baseline_child, args=(advisor, program, send)
        )
        self._proc.start()
        send.close()  # EOF reaches the parent once the child exits

    def collect(self) -> Optional[Tuple[List[LaunchResult], bool]]:
        """Wait for and reap the child; None if it delivered nothing."""
        try:
            return self._conn.recv()
        except Exception:  # EOF (crash, exception) or a torn message
            return None
        finally:
            self._conn.close()
            self._proc.join()

    def kill(self) -> None:
        """Stop and reap the child without waiting for its result."""
        self._proc.kill()
        self._proc.join()
        self._conn.close()


def _baseline_child(advisor, program, conn) -> None:
    """Child entry: send the baseline's outcome and leave at once. An
    exception sends nothing and exits 1, silently; the parent reruns."""
    code = 1
    try:
        conn.send(advisor._baseline_run(program))
        code = 0
    finally:
        os._exit(code)


class CUDAAdvisor:
    """Compile -> instrument -> profile -> analyze -> advise."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40C,
        modes: Sequence[str] = ("memory", "blocks"),
        optimize: bool = True,
        measure_overhead: bool = True,
        buffer_capacity: Optional[int] = None,
        sample_rate: int = 1,
        backend: Optional[str] = None,
        failure_policy: Optional[str] = None,
        fused_drain: bool = True,
        heatmap: bool = False,
        heatmap_cell_rows: int = DEFAULT_CELL_ROWS,
    ):
        self.arch = arch
        self.modes = tuple(modes)
        self.optimize = optimize
        self.measure_overhead = measure_overhead
        self.buffer_capacity = buffer_capacity
        self.sample_rate = sample_rate
        #: execution knobs forwarded to every Device this advisor builds
        #: (None keeps the device default; see docs/reliability.md).
        self.backend = backend
        self.failure_policy = failure_policy
        #: analyze rows *in flight*: buffered rows flush into the
        #: analyzer bank at segment granularity during execution, so
        #: the trace is never materialized. ``fused_drain=False`` keeps
        #: the raw records on every profile instead (for re-analysis
        #: with other parameters and record inspection) and feeds them
        #: through the same aggregates once the run ends; the results
        #: are byte-identical. Launches that need raw records (pc
        #: sampling) keep them as well as feeding the bank, so their
        #: profiles carry both.
        self.fused_drain = fused_drain
        #: build the per-allocation x time heat map (needs "memory" mode);
        #: cell_rows sets kept memory instructions per CTA per time cell.
        self.heatmap = heatmap
        self.heatmap_cell_rows = heatmap_cell_rows

    # -- compilation helpers ---------------------------------------------------
    def _compile(self, program: GPUProgram, instrument: bool,
                 bypass: bool = False):
        module = compile_kernels(list(program.kernels), program.name)
        if self.optimize:
            optimization_pipeline().run(module)
        if bypass:
            PassManager([HorizontalBypassPass()]).run(module)
        if instrument:
            instrumentation_pipeline(self.modes).run(module)
        return module

    def _fresh_runtime(self, profiler=None):
        device = Device(self.arch)
        if self.backend is not None:
            device.backend = self.backend
        if self.failure_policy is not None:
            device.failure_policy = self.failure_policy
        return CudaRuntime(device, profiler=profiler)

    def _plan(self):
        """The analyzer plan every profile's rows stream through."""
        return advisor_plan(
            self.arch.l1_line_size,
            self.modes,
            heatmap_cell_rows=(
                self.heatmap_cell_rows if self.heatmap else None
            ),
        )

    # -- main entry points ----------------------------------------------------------
    def profile(self, program: GPUProgram) -> AdvisorReport:
        """Run the full Figure 1 workflow for one program.

        The uninstrumented baseline run (for overhead and sanity) shares
        no state with the instrumented one, so it runs in a forked child
        while this process runs the instrumented program
        (:class:`_BaselineChild`). Where fork is unavailable or unsafe
        (:func:`_overlap_available`) it runs first, in this process.
        Either way the results, and which error is raised, are those of
        running the two one after the other.
        """
        baseline_results: List[LaunchResult] = []
        baseline = None
        if self.measure_overhead:
            if _overlap_available():
                baseline = _BaselineChild(self, program)
            else:
                baseline_results = self._checked_baseline(program, None)
        try:
            # Instrumented run. Every launch drains through one FusedSink:
            # into the plan's bank in flight (fused_drain=True), or into
            # kept records that _analyze feeds through the same plan.
            session = ProfilingSession(
                buffer_capacity=self.buffer_capacity,
                sample_rate=self.sample_rate,
                fused=self._plan() if self.fused_drain else None,
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
                self._checked_baseline(program, baseline.collect())
            raise
        except BaseException:
            if baseline is not None:
                baseline.kill()
            raise
        if baseline is not None:
            baseline_results = self._checked_baseline(
                program, baseline.collect()
            )
        if not instrumented_ok:
            raise AnalysisError(
                f"{program.name}: instrumented run failed validation "
                "(instrumentation must not change program semantics)"
            )

        report = AdvisorReport(
            program=program.name,
            arch=self.arch,
            modes=self.modes,
            session=session,
            baseline_results=baseline_results,
            instrumented_results=instrumented_results,
        )
        if rt.device.backend == "batched":
            report.jit_cache = rt.device.jit_cache.stats.snapshot()
        self._analyze(report, program)
        return report

    def _baseline_run(
        self, program: GPUProgram
    ) -> Tuple[List[LaunchResult], bool]:
        """One uninstrumented run: its launch results and whether the
        program's own check passed."""
        rt = self._fresh_runtime()
        module = self._compile(program, instrument=False)
        image = rt.device.load_module(module)
        state = program.prepare(rt)
        results = list(program.run(rt, image, state))
        return results, bool(program.check(rt, state))

    def _checked_baseline(
        self, program: GPUProgram,
        delivered: Optional[Tuple[List[LaunchResult], bool]],
    ) -> List[LaunchResult]:
        """The baseline's results, raising if its check failed.

        ``delivered`` is what a child sent; without it the baseline runs
        here, which reproduces any program error exactly.
        """
        results, passed = (
            delivered if delivered is not None
            else self._baseline_run(program)
        )
        if not passed:
            raise AnalysisError(
                f"{program.name}: baseline run failed validation"
            )
        return results

    def _analyze(self, report: AdvisorReport, program: GPUProgram) -> None:
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

        if "memory" in self.modes and banks:
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
            if self.heatmap:
                report.heatmap = merged(
                    HeatmapTable(cell_rows=self.heatmap_cell_rows), "heatmap"
                )
            num_ctas = max(p.num_ctas for p in session.profiles)
            report.bypass_prediction = predict_optimal_warps(
                self.arch,
                report.reuse_cache_line,
                report.memory_divergence,
                num_ctas=num_ctas,
                warps_per_cta=program.warps_per_cta,
            )
        if "blocks" in self.modes and banks:
            report.branch_divergence = merged(
                BranchDivergenceProfile(), "branch_divergence"
            )
        if "arith" in self.modes and banks:
            report.arithmetic = merged(ArithmeticProfile(), "arithmetic")
        if self.measure_overhead and report.baseline_results:
            report.overhead = overhead_report(
                report.program,
                self.arch.name,
                self.modes,
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
