"""A set-associative L1 data-cache model with GPU write semantics.

NVIDIA L1 data caches are *write-evict / write-no-allocate* (the paper
leans on this to motivate its restart-on-write reuse-distance variant):

* a **write hit** evicts (invalidates) the line rather than updating it;
* a **write miss** does not allocate.

Reads allocate on miss with LRU replacement. A per-SM :class:`MSHRFile`
tracks outstanding misses for the timing model's congestion estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class CacheStats:
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0  # write-evict events
    write_misses: int = 0
    bypassed: int = 0
    evictions: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def accesses(self) -> int:
        return self.reads + self.write_hits + self.write_misses

    @property
    def read_hit_rate(self) -> float:
        return self.read_hits / self.reads if self.reads else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.read_hits += other.read_hits
        self.read_misses += other.read_misses
        self.write_hits += other.write_hits
        self.write_misses += other.write_misses
        self.bypassed += other.bypassed
        self.evictions += other.evictions


class SetAssociativeCache:
    """LRU set-associative cache over line addresses.

    ``access_lines`` takes one warp instruction's *line addresses* (byte
    address // line size is done by the coalescer) in order and returns
    the ones that missed.
    """

    def __init__(self, size: int, line_size: int, assoc: int):
        if size % line_size:
            raise ValueError("cache size must be a multiple of the line size")
        self.size = size
        self.line_size = line_size
        num_lines = size // line_size
        self.assoc = min(assoc, num_lines)
        self.num_sets = max(1, num_lines // self.assoc)
        # Per set: an insertion-ordered dict of resident line tags in LRU
        # order (first key = LRU, last key = MRU); values are unused.
        self._sets: List[Dict[int, None]] = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access_lines(self, lines: Sequence[int], is_write: bool) -> List[int]:
        """Cached accesses to ``lines`` in order; returns the misses.

        A read hit moves the line to MRU and a read miss allocates it,
        evicting the set's LRU line when the set is full. A write hit
        evicts the line (write-evict) and a write miss does not
        allocate. Bypassing accesses never reach this method.
        """
        sets = self._sets
        num_sets = self.num_sets
        missed: List[int] = []
        stats = self.stats
        if is_write:
            for line in lines:
                # a hit pops the line (write-evict); a miss allocates nothing
                if sets[line % num_sets].pop(line, True):
                    missed.append(line)
            stats.write_misses += len(missed)
            stats.write_hits += len(lines) - len(missed)
            return missed
        assoc = self.assoc
        evictions = 0
        for line in lines:
            ways = sets[line % num_sets]
            if ways.pop(line, True):  # resident lines map to None
                missed.append(line)
                if len(ways) >= assoc:
                    del ways[next(iter(ways))]
                    evictions += 1
            ways[line] = None  # (re)insert as MRU
        stats.read_misses += len(missed)
        stats.read_hits += len(lines) - len(missed)
        stats.evictions += evictions
        return missed

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.num_sets]

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)


class MSHRFile:
    """Miss-status holding registers: time-based outstanding-miss tracking.

    Each miss occupies an entry until its fill returns (``latency``
    cycles later on the SM's clock); a burst of divergent misses that
    exceeds the file causes *allocation failures*, which the paper
    (citing Li et al. [32]) identifies as a key L1 bottleneck and the
    mechanism horizontal bypassing relieves. Requests to an
    already-outstanding line merge for free.
    """

    def __init__(self, entries: int):
        self.entries = entries
        # line -> fill-complete time, in insertion order. Each launch
        # builds fresh MSHRs, the SM clock never runs backwards and the
        # latency is constant, so the fill times are non-decreasing in
        # insertion order and the retired entries are always a prefix.
        self._ready_at: Dict[int, float] = {}
        self.allocation_failures = 0
        self.merges = 0
        self.requests = 0

    def request_lines(self, missed: Sequence[int], timing, latency: float,
                      stall: float) -> None:
        """Register one warp instruction's misses in order.

        Each request happens at the SM time ``timing.cycles`` it reads;
        an allocation failure adds ``stall`` to ``timing.cycles`` before
        the next request is made.
        """
        ready_at = self._ready_at
        entries = self.entries
        self.requests += len(missed)
        for line in missed:
            now = timing.cycles
            ready = ready_at.get(line)
            if ready is not None:
                if ready > now:
                    self.merges += 1
                    continue
                del ready_at[line]
            if len(ready_at) >= entries:
                # Retire the filled entries: a prefix, see __init__.
                while ready_at:
                    first = next(iter(ready_at))
                    if ready_at[first] > now:
                        break
                    del ready_at[first]
                if len(ready_at) >= entries:
                    self.allocation_failures += 1
                    timing.cycles += stall
                    continue
            ready_at[line] = now + latency

    @property
    def occupancy(self) -> int:
        return len(self._ready_at)

    @property
    def failure_rate(self) -> float:
        return self.allocation_failures / self.requests if self.requests else 0.0
