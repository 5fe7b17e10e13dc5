"""Per-SM cycle cost model.

A simple additive in-order model with a latency-hiding factor: enough to
rank configurations (baseline vs. bypassing variants, instrumented vs.
uninstrumented), which is all the paper's Figures 6, 7 and 10 need.
Absolute cycle counts are not calibrated against real silicon.

Cost sources:

* every issued warp instruction: ``issue_cycles``
* global-memory transactions: L1 hit / miss (or bypass straight to L2)
  latency divided by a latency-hiding factor that grows with co-resident
  warps (the reason GPUs tolerate misses at all)
* MSHR allocation failures: an extra congestion stall
  (``TimingParams.mshr_fail_stall``, charged by ``MSHRFile``)
* shared-memory access: small constant
* instrumentation hooks: a call constant plus per-active-lane cost plus
  an atomic-serialization term -- the paper's three overhead sources
  (Section 5: atomics, hook calls, global-memory trace buffer)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.gpu.arch import GPUArchitecture
from repro.gpu.cache import MSHRFile, SetAssociativeCache


@dataclass
class TimingParams:
    """Tunable constants of the cost model (architecture-independent)."""

    shared_access_cycles: int = 2
    atomic_cycles_per_lane: int = 8
    mshr_fail_stall: int = 24
    # Instrumentation-hook costs (Section 5 of the paper):
    hook_call_cycles: int = 24  # function-call overhead
    hook_lane_cycles: int = 6  # per-lane trace-record formatting
    hook_atomic_cycles: int = 10  # atomic buffer-pointer bump, serialized
    max_latency_hiding: float = 20.0


class SMTimingModel:
    """Accumulates cycles for one SM."""

    def __init__(self, arch: GPUArchitecture, params: TimingParams = None):
        self.arch = arch
        self.params = params or TimingParams()
        self.cycles = 0.0
        self._hide = 1.0

    def set_resident_warps(self, warps: int) -> None:
        """Update the latency-hiding factor for the current occupancy."""
        hide = 1.0 + self.arch.latency_hiding_per_warp * max(0, warps - 1)
        self._hide = min(hide, self.params.max_latency_hiding)

    # -- cost events -----------------------------------------------------------
    def issue(self, count: int = 1) -> None:
        """``count`` warp instructions issued back to back."""
        self.cycles += count * self.arch.issue_cycles

    def global_transactions(self, hits: int, misses: int, bypasses: int) -> None:
        # L1 misses and L1-bypassing (.cg) accesses both hit L2; the
        # difference between the two paths is the L1 hits the cached path
        # earns and the MSHR allocation-failure stalls it risks.
        self.cycles += hits * (self.arch.l1_hit_latency / self._hide)
        self.cycles += (misses + bypasses) * (self.arch.l2_latency / self._hide)

    def shared_access(self, bank_conflict_degree: int = 1) -> None:
        """An N-way bank conflict replays the access N times."""
        self.cycles += self.params.shared_access_cycles * max(
            1, bank_conflict_degree
        )

    def atomic(self, lanes: int) -> None:
        self.cycles += lanes * self.params.atomic_cycles_per_lane

    def hook_call(self, lanes: int) -> None:
        p = self.params
        self.cycles += (
            p.hook_call_cycles
            + lanes * p.hook_lane_cycles
            + lanes * p.hook_atomic_cycles
        )


def model_global_lines(l1: SetAssociativeCache, mshr: MSHRFile,
                       timing: SMTimingModel, lines: Sequence[int],
                       bypass: bool, is_write: bool) -> None:
    """One global-memory warp instruction through L1 + MSHRs + timing.

    ``lines`` are the instruction's coalesced cache lines in order. The
    one cost model of global memory: live launches and tape replays
    both call it.
    """
    if bypass:
        l1.stats.bypassed += len(lines)
        timing.global_transactions(0, 0, len(lines))
        return
    missed = l1.access_lines(lines, is_write)
    if missed:
        mshr.request_lines(missed, timing, timing.arch.l2_latency,
                           timing.params.mshr_fail_stall)
    timing.global_transactions(len(lines) - len(missed), len(missed), 0)


class TimingTape:
    """Records one SM's cost events in call order, for replay.

    A drop-in for :class:`SMTimingModel` during a threshold-sweep
    launch: execution runs once, and :meth:`replay` re-charges the same
    events through a fresh L1, MSHR file and timing model for each
    bypass threshold. Only arguments are stored, so a replay makes the
    same float operations in the same order as a live launch: an ``int``
    entry is ``issue(n)``, a 2-tuple ``(SMTimingModel method, arg)`` is
    any other timing event and a 4-tuple ``(warp_in_cta, lines, mode,
    is_write)`` is one global-memory warp instruction. Consecutive
    issues are never merged: cycles carry fractions, so ``c + 1 + 1``
    need not equal ``c + 2``.
    """

    def __init__(self):
        self.events: List[object] = []

    def issue(self, count: int = 1) -> None:
        self.events.append(count)

    def set_resident_warps(self, warps: int) -> None:
        self.events.append((SMTimingModel.set_resident_warps, warps))

    def shared_access(self, bank_conflict_degree: int = 1) -> None:
        self.events.append((SMTimingModel.shared_access, bank_conflict_degree))

    def atomic(self, lanes: int) -> None:
        self.events.append((SMTimingModel.atomic, lanes))

    def hook_call(self, lanes: int) -> None:
        self.events.append((SMTimingModel.hook_call, lanes))

    def global_lines(self, warp_in_cta: int, lines: Sequence[int], mode: int,
                     is_write: bool) -> None:
        self.events.append((warp_in_cta, lines, mode, is_write))

    def replay(self, timing: SMTimingModel, l1: SetAssociativeCache,
               mshr: MSHRFile, threshold: Optional[int]) -> None:
        """Charge every recorded event to ``timing`` at ``threshold``."""
        issue_cycles = timing.arch.issue_cycles
        for event in self.events:
            if type(event) is int:
                timing.cycles += event * issue_cycles
            elif len(event) == 2:
                event[0](timing, event[1])
            else:
                warp_in_cta, lines, mode, is_write = event
                if mode == 1:
                    bypass = True
                elif mode == 0:
                    bypass = False
                else:  # dynamic: horizontal bypass past the threshold
                    bypass = threshold is not None and warp_in_cta >= threshold
                model_global_lines(l1, mshr, timing, lines, bypass, is_write)
