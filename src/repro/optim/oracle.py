"""Oracle horizontal-bypass search (the comparison point of Figures 6-7).

Adaptive horizontal bypassing [Li et al., SC'15] pre-executes a sampling
period, exhaustively trying every number of warps-per-CTA allowed to use
L1, then locks in the fastest. The oracle here does the same: time the
bypass-transformed program at every threshold k in {1..warps_per_cta}
(k = warps_per_cta is the no-bypass baseline) and report the cycle
counts of all configurations. ``CUDAAdvisor.evaluate_bypass`` executes
the program once and replays its timing events per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class BypassSearchResult:
    """Cycles for every threshold, plus the derived figures of merit."""

    warps_per_cta: int
    cycles_by_warps: Dict[int, float] = field(default_factory=dict)

    @property
    def baseline_cycles(self) -> float:
        """No bypassing: all warps use L1."""
        return self.cycles_by_warps[self.warps_per_cta]

    @property
    def best_warps(self) -> int:
        return min(self.cycles_by_warps, key=self.cycles_by_warps.get)

    @property
    def best_cycles(self) -> float:
        return self.cycles_by_warps[self.best_warps]

    def normalized(self, warps: int) -> float:
        """Execution time of a configuration normalized to baseline."""
        return self.cycles_by_warps[warps] / self.baseline_cycles

    @property
    def oracle_normalized(self) -> float:
        return self.best_cycles / self.baseline_cycles

    @property
    def oracle_speedup(self) -> float:
        return self.baseline_cycles / self.best_cycles


def oracle_bypass_search(
    run_with_threshold: Callable[[Optional[int]], float],
    warps_per_cta: int,
    min_warps: int = 1,
) -> BypassSearchResult:
    """Exhaustive search over L1-warp thresholds.

    ``run_with_threshold(k)`` returns the app's total cycles with
    ``l1_warps_per_cta=k``; ``k = warps_per_cta`` must behave as the
    no-bypass baseline (the dynamic cache operator degenerates to .ca).
    """
    result = BypassSearchResult(warps_per_cta=warps_per_cta)
    for k in range(min_warps, warps_per_cta + 1):
        result.cycles_by_warps[k] = run_with_threshold(k)
    return result
