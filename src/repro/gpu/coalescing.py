"""The memory-coalescing unit.

Sits in the data path before L1 (as on real GPUs): a warp's per-lane
byte addresses for one memory instruction are combined into the minimal
set of cache-line transactions. The number of unique lines touched *is*
the paper's memory-divergence metric for that instruction (1 = fully
coalesced, 32 = fully divergent).

The interpreter classifies each global or shared warp access once
(:class:`WarpAccess`): one ``tolist()`` of the active lanes gives their
addresses, the lowest and highest one, and whether the lanes step by
one uniform stride. For a uniform stride the coalesced lines, the
shared-memory bank-conflict degree and the arena's fault range follow
in closed form; any other access falls back to the per-lane walks
(:func:`_line_set`, :func:`~repro.gpu.vecops._bank_degree_of`), which
stay the reference for both.
"""

from __future__ import annotations

from math import gcd
from typing import List

import numpy as np

from repro.gpu.vecops import _bank_degree_of


class WarpAccess:
    """One warp memory instruction's active lane addresses, classified.

    ``active`` holds the active lanes' addresses in lane order (``addrs``
    itself under a full mask) and ``vals`` the same as a plain list;
    ``lo``/``hi`` are the lowest and highest of them and ``stride`` the
    byte step between consecutive active lanes when it is uniform (0 for
    a broadcast or a single lane), else None. ``nactive`` must be at
    least 1.
    """

    __slots__ = ("mask", "full", "active", "vals", "lo", "hi", "stride")

    def __init__(self, addrs: np.ndarray, mask: np.ndarray, nactive: int):
        self.mask = mask
        full = nactive == len(addrs)
        self.full = full
        active = addrs if full else addrs[mask]
        self.active = active
        vals = active.tolist()
        self.vals = vals
        first = vals[0]
        last = vals[-1]
        step = vals[1] - first if nactive > 1 else 0
        if step:
            uniform = vals == list(range(first, first + step * nactive, step))
        else:
            uniform = vals.count(first) == nactive
        if not uniform:
            self.stride = None
            self.lo = min(vals)
            self.hi = max(vals)
        else:
            self.stride = step
            self.lo, self.hi = (first, last) if step >= 0 else (last, first)

    def lines(self, access_bytes: int, line_size: int) -> List[int]:
        """The sorted unique cache lines the active lanes touch.

        A stride of at most a line leaves no gap that could hold a whole
        line, so every line from the first to the last is touched; a
        line-multiple stride whose lanes do not straddle a line touches
        one line per lane.
        """
        stride = self.stride
        if stride is not None:
            lo = self.lo
            if -line_size <= stride <= line_size:
                return list(range(
                    lo // line_size,
                    (self.hi + access_bytes - 1) // line_size + 1,
                ))
            if (stride % line_size == 0
                    and lo % line_size + access_bytes <= line_size):
                return list(range(
                    lo // line_size,
                    self.hi // line_size + 1,
                    abs(stride) // line_size,
                ))
        return sorted(_line_set(self.vals, access_bytes, line_size))

    def bank_degree(self) -> int:
        """Shared-memory bank-conflict degree (32 banks of 4-byte words).

        A stride of at most a word touches every word from the lowest to
        the highest once; a stride of ``s`` words cycles through
        ``32 / gcd(s, 32)`` banks, so ``k`` lanes pile up
        ``ceil(k / (32 / gcd(s, 32)))`` deep.
        """
        stride = self.stride
        if stride is not None:
            if -4 <= stride <= 4:
                return -(-(self.hi // 4 - self.lo // 4 + 1) // 32)
            if stride % 4 == 0:
                banks = 32 // gcd(stride // 4, 32)
                return -(-len(self.vals) // banks)
        return _bank_degree_of(self.vals)


def _line_set(active: List[int], access_bytes: int, line_size: int) -> set:
    """Set of cache lines touched by the active lanes' addresses.

    A Python set over a plain list beats ``np.unique`` by several x at
    warp width (32 elements).
    """
    lines = set()
    add = lines.add
    span = access_bytes - 1
    for addr in active:
        first = addr // line_size
        add(first)
        last = (addr + span) // line_size
        if last != first:
            add(last)
    return lines


def coalesce(
    addrs: np.ndarray, mask: np.ndarray, access_bytes: int, line_size: int
) -> np.ndarray:
    """Unique cache-line addresses touched by the active lanes.

    ``access_bytes`` is the per-lane access width; an element straddling
    a line boundary contributes both lines (cannot happen for naturally
    aligned accesses, but the model stays correct for byte-addressed
    i8 data of any width).
    """
    return np.array(
        sorted(_line_set(addrs[mask].tolist(), access_bytes, line_size)),
        dtype=np.int64,
    )


def divergence_degree(
    addrs: np.ndarray, mask: np.ndarray, access_bytes: int, line_size: int
) -> int:
    """Unique cache lines touched -- the per-instruction divergence count."""
    return len(_line_set(addrs[mask].tolist(), access_bytes, line_size))
