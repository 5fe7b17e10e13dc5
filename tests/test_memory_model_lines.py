"""The line-list L1/MSHR methods against a per-line reference.

``SetAssociativeCache.access_lines`` and ``MSHRFile.request_lines``
take one warp instruction's cache lines per call and keep LRU order and
MSHR retirement in insertion-ordered dicts. The reference below is the
per-line model they replaced: list-based LRU sets, one ``read``/``write``
per line, and an MSHR file that scans every entry to retire. Both run
the same random instruction streams through ``model_global_lines`` and
its per-line counterpart and must agree exactly: cache statistics, MSHR
counters and the final cycle count (compared with ``==``, not approx).
"""

from dataclasses import replace
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import KEPLER_K40C
from repro.gpu.cache import CacheStats, MSHRFile, SetAssociativeCache
from repro.gpu.timing import SMTimingModel, TimingParams, model_global_lines


class ReferenceCache:
    """Per-line LRU set-associative cache with GPU write semantics."""

    def __init__(self, size: int, line_size: int, assoc: int):
        num_lines = size // line_size
        self.assoc = min(assoc, num_lines)
        self.num_sets = max(1, num_lines // self.assoc)
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def read(self, line: int, bypass: bool = False) -> bool:
        if bypass:
            self.stats.bypassed += 1
            return False
        ways = self._sets[line % self.num_sets]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.read_hits += 1
            return True
        self.stats.read_misses += 1
        ways.append(line)
        if len(ways) > self.assoc:
            ways.pop(0)
            self.stats.evictions += 1
        return False

    def write(self, line: int, bypass: bool = False) -> bool:
        if bypass:
            self.stats.bypassed += 1
            return False
        ways = self._sets[line % self.num_sets]
        if line in ways:
            ways.remove(line)  # write-evict
            self.stats.write_hits += 1
            return True
        self.stats.write_misses += 1  # no-allocate
        return False


class ReferenceMSHR:
    """Per-request MSHR file that scans all entries to retire."""

    def __init__(self, entries: int):
        self.entries = entries
        self._ready_at: Dict[int, float] = {}
        self.allocation_failures = 0
        self.merges = 0
        self.requests = 0

    def request(self, line: int, now: float, latency: float) -> bool:
        self.requests += 1
        if line in self._ready_at:
            if self._ready_at[line] > now:
                self.merges += 1
                return True
            del self._ready_at[line]
        if len(self._ready_at) >= self.entries:
            done = [ln for ln, t in self._ready_at.items() if t <= now]
            for ln in done:
                del self._ready_at[ln]
        if len(self._ready_at) >= self.entries:
            self.allocation_failures += 1
            return False
        self._ready_at[line] = now + latency
        return True


def reference_model_lines(l1, mshr, timing, lines, bypass, is_write):
    """The per-line global-memory cost model."""
    hits = misses = bypassed = 0
    for line in lines:
        hit = l1.write(line, bypass) if is_write else l1.read(line, bypass)
        if bypass:
            bypassed += 1
        elif hit:
            hits += 1
        else:
            misses += 1
            if not mshr.request(line, timing.cycles, timing.arch.l2_latency):
                timing.cycles += timing.params.mshr_fail_stall
    timing.global_transactions(hits, misses, bypassed)


_instruction = st.tuples(
    st.lists(st.integers(min_value=0, max_value=47), max_size=12),  # lines
    st.booleans(),  # is_write
    st.booleans(),  # bypass
    st.sampled_from([0, 0, 0, 1, 2, 3, 10, 190]),  # clock advance first
    # one resident warp hides nothing, so cycles stay integral and fill
    # times can equal the clock exactly
    st.sampled_from([1, 1, 1, 2, 5, 24]),  # resident warps
)


@given(
    assoc=st.integers(min_value=1, max_value=8),
    num_sets=st.sampled_from([1, 2, 4, 8]),
    entries=st.integers(min_value=1, max_value=32),
    stall=st.sampled_from([0, 1, 24, 60]),
    latency=st.sampled_from([1, 3, 10, 190]),
    program=st.lists(_instruction, min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_line_lists_match_per_line_reference(assoc, num_sets, entries,
                                             stall, latency, program):
    line_size = 32
    size = assoc * num_sets * line_size
    arch = replace(KEPLER_K40C, l2_latency=latency)
    params = TimingParams(mshr_fail_stall=stall)
    fast = (SetAssociativeCache(size, line_size, assoc), MSHRFile(entries),
            SMTimingModel(arch, params))
    ref = (ReferenceCache(size, line_size, assoc), ReferenceMSHR(entries),
           SMTimingModel(arch, params))
    assert fast[0].num_sets == ref[0].num_sets == num_sets
    for lines, is_write, bypass, advance, warps in program:
        for model, (l1, mshr, timing) in ((model_global_lines, fast),
                                          (reference_model_lines, ref)):
            timing.cycles += advance
            timing.set_resident_warps(warps)
            model(l1, mshr, timing, lines, bypass, is_write)
    (l1, mshr, timing), (rl1, rmshr, rtiming) = fast, ref
    assert l1.stats == rl1.stats
    assert mshr.allocation_failures == rmshr.allocation_failures
    assert mshr.merges == rmshr.merges
    assert mshr.requests == rmshr.requests
    assert timing.cycles == rtiming.cycles
    for s in range(num_sets):
        assert list(l1._sets[s]) == rl1._sets[s]  # same LRU order
