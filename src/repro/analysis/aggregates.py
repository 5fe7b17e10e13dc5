"""Streaming per-segment analyzer aggregates: the one analysis implementation.

The paper's analyzers are *online* consumers: reuse distance,
divergence and cache behaviour are computed incrementally as
instrumentation callbacks fire, never holding a full trace. This module
restores that property for the columnar pipeline: each analysis is
a :class:`SegmentAggregate` with an ``update(segment_columns)`` /
``merge(other)`` / ``finalize()`` contract, and the fused sink
(:mod:`repro.profiler.streamdrain`) pushes each flushed buffer segment
through an :class:`AnalyzerBank` of them while the kernel runs -- peak
trace memory is O(segment), not O(trace). A profile that kept its raw
records (``CUDAAdvisor(fused_drain=False)``) is analyzed by feeding
those records through the same aggregates once
(:meth:`AnalyzerPlan.analyze`, :func:`analyze_records`); every public
profile-level analysis function does exactly that.

Results do not depend on segmentation: any split of the trace into
segments, and any merge of disjoint shards, gives the same bytes as one
segment holding the whole trace (pinned against the per-record
reference analyses of ``tests/analysis_oracle.py`` by
``tests/test_fused_drain.py``):

* Per-CTA analyses (reuse distance, stack distance, site reuse) carry
  per-CTA cursor state across segment boundaries -- a CTA's events
  appear in trace order within every segment, so concatenating its
  per-segment slices reproduces the exact per-CTA stream the paper
  regroups. The reuse cursor answers a whole segment at once with
  an offline dominance count (:func:`_prefix_rank_gt`) instead of a
  per-event Fenwick walk, carrying only each distinct element's last
  global position -- O(distinct elements) state, no per-event Python
  loop. The stack-distance cursor keeps the classic compacting Fenwick
  (its hole-sinking semantics are inherently sequential).
* Histogram-shaped results are integer sums, so per-segment
  accumulation order cannot change them.
* Dict-ordered results (per-site tables) record a canonical
  first-encounter key per site and sort at ``finalize()``, reproducing
  whole-trace first-encounter order exactly -- including across shard
  merges.

``merge()`` combines aggregates computed over *disjoint CTA/row
partitions*: partials merge aggregate-to-aggregate instead of
trace-to-trace.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cache_model import StackDistanceSummary
from repro.analysis.divergence_branch import (
    BranchDivergenceProfile,
    _BlockSiteStats,
)
from repro.analysis.divergence_memory import (
    MemoryDivergenceProfile,
    _column_unique_line_counts,
)
from repro.analysis.arithmetic import ArithmeticProfile
from repro.analysis.reuse_distance import (
    INFINITE,
    ReuseDistanceHistogram,
    ReuseDistanceModel,
    _column_flat_events,
    _cta_row_segments,
    _Fenwick,
)
from repro.errors import AnalysisError

#: Initial (and minimum) time-axis capacity of an online Fenwick tree.
#: Small on purpose: one cursor lives per (CTA, model) for the whole
#: drain, and compaction resizes to 2x the live-slot count anyway.
_INITIAL_SLOTS = 128

#: Largest event batch :class:`_OnlineReuse` processes at once; larger
#: feeds are split so transient numpy scratch stays bounded.
_FEED_CHUNK = 2048


def _prefix_rank_gt(values: np.ndarray, prefix_len: np.ndarray,
                    thresholds: np.ndarray) -> np.ndarray:
    """``out[i] = #{k < prefix_len[i] : values[k] > thresholds[i]}``.

    The fully vectorized offline form of a merge-sort tree: every query
    prefix decomposes into at most ``log2(n)`` power-of-two blocks, and
    at each level the blocks are sorted once so a batched
    ``searchsorted`` ranks all thresholds against all blocks at once
    (block index packed into the key's high bits). Both ``values`` and
    ``thresholds`` are rank-compressed first, so rank comparison is
    value comparison and the packed keys stay far below 2**63.
    """
    n = int(values.size)
    q = int(prefix_len.size)
    out = np.zeros(q, dtype=np.int64)
    if n == 0 or q == 0 or not prefix_len.size:
        return out
    maxp = int(prefix_len.max())
    if maxp == 0:
        return out
    # Hand-rolled unique: np.unique lazily imports numpy.ma, which
    # alone costs ~1 MB of RSS -- real money against the streaming
    # drain's O(segment) memory budget.
    uniq = np.sort(np.concatenate([values, thresholds]))
    keep = np.empty(uniq.size, dtype=bool)
    keep[:1] = True
    np.not_equal(uniq[1:], uniq[:-1], out=keep[1:])
    uniq = uniq[keep]
    del keep
    v = np.searchsorted(uniq, values)
    t = np.searchsorted(uniq, thresholds)
    m = int(uniq.size)
    shift = int(m + 1).bit_length()
    for level in range(maxp.bit_length()):
        size = 1 << level
        has = (prefix_len & size) != 0
        if not np.any(has):
            continue
        if size == 1:
            # Level 0 blocks are single elements: compare directly.
            base = (prefix_len & ~1)[has]
            out[has] += v[base] > t[has]
            continue
        nb = (n + size - 1) // size
        # The sentinel rank m never lands inside a queried block: every
        # block used by some query ends at base+size <= prefix_len <= n.
        padded = np.full(nb * size, m, dtype=np.int64)
        padded[:n] = v
        blocks = padded.reshape(nb, size)
        blocks.sort(axis=1)  # in place: no second n-sized copy
        keys = (
            (np.arange(nb, dtype=np.int64)[:, None] << shift) | blocks
        ).ravel()
        del padded, blocks
        blk = ((prefix_len & ~((size << 1) - 1)) >> level)[has]
        qk = (blk << shift) | t[has]
        pos = np.searchsorted(keys, qk, side="right")
        del keys
        out[has] += size - (pos - blk * size)
    return out


class _OnlineReuse:
    """Per-CTA reuse-distance cursor carried across segment boundaries.

    Implements exactly the recurrence of
    :func:`repro.analysis.reuse_distance.reuse_distances_of_trace`, but
    over an unbounded stream -- with **no per-event loop**. The cursor
    carries each distinct element's last *global* event position (and
    whether that access was a write) in two sorted parallel numpy
    arrays; a whole segment is then answered at once:

    For a read at segment offset ``tau`` whose previous occurrence sits
    at global position ``p``, the reuse distance (distinct elements
    accessed strictly between the two occurrences) decomposes into

    ``distance = M + U - R``

    where ``M`` counts carried-in last-occurrence marks at positions
    ``> p`` (zero automatically when ``p`` is in-segment), ``U`` counts
    the event positions inside the window (positions are dense, so this
    is arithmetic), and ``R`` counts *removals*: events ``j`` before
    ``tau`` whose own previous occurrence lies at a position ``> p`` --
    each such event re-accessed (and thus un-counts) a mark that ``M``
    or ``U`` included. ``R`` is a 2-D dominance count over (prev
    position, segment offset) pairs, computed for all reads at once by
    :func:`_prefix_rank_gt`.

    State stays O(distinct elements); there is no time axis to compact
    because positions are global and never renumbered.
    """

    __slots__ = ("write_restart", "_t", "_keys", "_vals", "reads_seen")

    def __init__(self, write_restart: bool = True,
                 initial_slots: int = _INITIAL_SLOTS):
        self.write_restart = write_restart
        #: total events fed so far = next global event position.
        self._t = 0
        #: sorted distinct elements seen so far.
        self._keys = np.empty(0, dtype=np.int64)
        #: per key: last global position << 1 | last access was a write.
        self._vals = np.empty(0, dtype=np.int64)
        #: total read events fed so far (site ordering keys use this).
        self.reads_seen = 0

    def feed(self, elements: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Advance the stream; returns the distance of every *read*."""
        n = len(elements)
        if not n:
            return np.empty(0, dtype=np.int64)
        if n > _FEED_CHUNK:
            # Segmentation is free for this cursor -- the carry state
            # is exact across any boundary -- so bound the transient
            # working set (roughly twenty n-sized arrays live during a
            # feed) by our own chunk size, not the caller's segment
            # size. Peak RSS of fused analysis is set right here.
            return np.concatenate([
                self.feed(elements[i:i + _FEED_CHUNK],
                          writes[i:i + _FEED_CHUNK])
                for i in range(0, n, _FEED_CHUNK)
            ])
        elements = np.asarray(elements, dtype=np.int64)
        w_int = np.asarray(writes, dtype=np.int64)
        base = self._t
        # Previous occurrence of each event's element, segment-local:
        # a stable sort by element keeps equal elements in trace order.
        order = np.argsort(elements, kind="stable")
        sorted_el = elements[order]
        same = np.empty(n, dtype=bool)
        same[0] = False
        np.equal(sorted_el[1:], sorted_el[:-1], out=same[1:])
        prev_idx = np.full(n, -1, dtype=np.int64)
        rep = np.flatnonzero(same)
        prev_idx[order[rep]] = order[rep - 1]
        # First occurrences look up the carry map instead.
        firsts = order[~same]
        fe = sorted_el[~same]
        del sorted_el, rep
        carry_pos = np.full(n, -1, dtype=np.int64)
        carry_write = np.zeros(n, dtype=bool)
        if self._keys.size:
            pos = np.searchsorted(self._keys, fe)
            hit = pos < self._keys.size
            hit[hit] = self._keys[pos[hit]] == fe[hit]
            packed = self._vals[pos[hit]]
            carry_pos[firsts[hit]] = packed >> 1
            carry_write[firsts[hit]] = (packed & 1).astype(bool)
            del pos, hit, packed
        del firsts

        # Every event's previous occurrence as a global position.
        # Scratch arrays are dropped the moment they are consumed:
        # peak streaming RSS is the widest set of live n-sized arrays
        # in this function.
        has_seg_prev = prev_idx >= 0
        prev_pos = np.where(has_seg_prev, base + prev_idx, carry_pos)
        prev_write = np.where(
            has_seg_prev, w_int[prev_idx] != 0, carry_write
        )
        del has_seg_prev, prev_idx, carry_pos, carry_write
        is_read = w_int == 0
        out = np.full(n, INFINITE, dtype=np.int64)
        finite = is_read & (prev_pos >= 0)
        if self.write_restart:
            finite &= ~prev_write
        del prev_write
        # An event's tau (segment offset) is its own index, so q_idx
        # doubles as the query taus.
        q_idx = np.flatnonzero(finite)
        del finite
        if q_idx.size:
            q_prev = prev_pos[q_idx]
            # U: event positions strictly inside (p, base + tau).
            in_seg = q_prev >= base
            window = np.where(in_seg, base + q_idx - q_prev - 1, q_idx)
            del in_seg
            # M: carried marks past p (all carries sit below base, so
            # this is zero whenever p is in-segment).
            if self._vals.size:
                marks = np.sort(self._vals >> 1)
                m_gt = marks.size - np.searchsorted(
                    marks, q_prev, side="right"
                )
                del marks
            else:
                m_gt = 0
            # R: removals before tau of marks past p. Arc events are
            # every event with *any* previous occurrence, in segment
            # order (their tau values are ascending by construction).
            arc_idx = np.flatnonzero(prev_pos >= 0)
            arc_prev = prev_pos[arc_idx]
            plen = np.searchsorted(arc_idx, q_idx, side="left")
            removals = _prefix_rank_gt(arc_prev, plen, q_prev)
            del arc_idx, arc_prev, plen, q_prev
            out[q_idx] = window + m_gt - removals
            del window, removals
        del prev_pos, q_idx
        result = out[is_read]
        del out, is_read
        self.reads_seen += int(result.size)

        # Write back each distinct element's final (position, was_write);
        # stable sort keeps old entries first, so "keep the last of
        # each duplicate run" prefers this segment's value.
        ends = np.flatnonzero(np.append(~same[1:], True))
        last_events = order[ends]
        new_packed = ((base + last_events) << 1) | w_int[last_events]
        keys = np.concatenate([self._keys, fe])
        vals = np.concatenate([self._vals, new_packed])
        mo = np.argsort(keys, kind="stable")
        keys = keys[mo]
        vals = vals[mo]
        keep = np.append(keys[1:] != keys[:-1], True)
        self._keys = keys[keep]
        self._vals = vals[keep]
        self._t = base + n
        return result


class _OnlineStack:
    """Per-CTA LRU stack-distance cursor (write-evict holes included).

    The streaming counterpart of
    :func:`repro.analysis.cache_model.stack_distances`. Live slots are
    resident lines *plus* write-evict holes; compaction renumbers both
    together, preserving slot order (which the hole-sinking comparisons
    depend on) and every range count.
    """

    __slots__ = ("_tree", "_cap", "_t", "_position", "_holes")

    def __init__(self):
        self._cap = _INITIAL_SLOTS
        self._tree = _Fenwick(self._cap)
        self._t = 0
        self._position: Dict[int, int] = {}
        self._holes: List[int] = []  # max-heap (negated slot numbers)

    def _compact(self) -> None:
        slots = sorted(
            [(t, line) for line, t in self._position.items()]
            + [(-h, None) for h in self._holes],
            key=lambda s: s[0],
        )
        k = len(slots)
        self._cap = max(_INITIAL_SLOTS, 2 * k)
        self._tree = _Fenwick(self._cap)
        holes: List[int] = []
        for i, (_, line) in enumerate(slots):
            self._tree.add(i, 1)
            if line is None:
                holes.append(-i)
            else:
                self._position[line] = i
        heapq.heapify(holes)
        self._holes = holes
        self._t = k

    def feed(self, lines: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Advance the stream; returns the stack distance per *read*."""
        out: List[int] = []
        position = self._position
        holes = self._holes
        for line, is_write in zip(lines.tolist(), writes.tolist()):
            prev = position.get(line)
            if is_write:
                # Write-evict / write-no-allocate: drop the line, keep
                # its slot as a hole (see cache_model.stack_distances).
                if prev is not None:
                    heapq.heappush(holes, -prev)
                    del position[line]
                continue
            if self._t >= self._cap:
                self._compact()
                holes = self._holes
                prev = position.get(line)
            t = self._t
            tree = self._tree
            if prev is None:
                out.append(INFINITE)
                if holes:
                    tree.add(-heapq.heappop(holes), -1)
            else:
                out.append(tree.range_sum(prev + 1, t - 1))
                if holes and -holes[0] > prev:
                    hole = -heapq.heapreplace(holes, -prev)
                    tree.add(hole, -1)
                else:
                    tree.add(prev, -1)
            tree.add(t, +1)
            position[line] = t
            self._t = t + 1
        return np.asarray(out, dtype=np.int64)


class SegmentAggregate:
    """One streaming analysis: consumes column segments, merges, finalizes.

    ``stream`` names the trace stream the aggregate consumes
    ("memory", "block" or "arith"); the :class:`AnalyzerBank` routes
    segments accordingly. ``update`` sees each kept segment exactly
    once, in trace order; ``merge`` combines a peer computed over a
    disjoint CTA partition (in partition order);
    ``finalize`` returns the analysis result, the same however the
    trace was segmented.
    """

    stream = "memory"

    def update(self, cols) -> None:
        raise NotImplementedError

    def merge(self, other: "SegmentAggregate") -> None:
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError


def _merge_cta_states(mine: dict, theirs: dict, what: str) -> None:
    overlap = mine.keys() & theirs.keys()
    if overlap:
        raise AnalysisError(
            f"cannot merge {what} aggregates with overlapping CTAs "
            f"(e.g. {sorted(overlap)[:3]}): shard partitions must be disjoint"
        )
    mine.update(theirs)


class ReuseDistanceAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.reuse_distance.reuse_distance_analysis`."""

    stream = "memory"

    def __init__(self, model: ReuseDistanceModel = ReuseDistanceModel.ELEMENT,
                 line_size: int = 128, write_restart: bool = True):
        self.model = model
        self.line_size = line_size
        self.write_restart = write_restart
        self._states: Dict[int, _OnlineReuse] = {}
        self.histogram = ReuseDistanceHistogram(model=model)

    def update(self, cols) -> None:
        for rows in _cta_row_segments(cols.cta):
            cta = int(cols.cta[rows[0]])
            elements, writes = _column_flat_events(
                cols, rows, self.model, self.line_size
            )
            state = self._states.get(cta)
            if state is None:
                state = self._states[cta] = _OnlineReuse(self.write_restart)
            self.histogram.add_samples(state.feed(elements, writes))

    def merge(self, other: "ReuseDistanceAggregate") -> None:
        _merge_cta_states(self._states, other._states, "reuse-distance")
        self.histogram.merge(other.histogram)

    def finalize(self) -> ReuseDistanceHistogram:
        return self.histogram


class SiteReuseAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.reuse_distance.site_reuse_analysis`.

    The result is a dict in first-encounter order: CTAs ascending, then
    first read position within the first CTA that reads the site.
    Each site records its minimal ``(cta, read_position)`` key and
    ``finalize`` sorts by it, reproducing that order exactly.
    """

    stream = "memory"

    def __init__(self, model: ReuseDistanceModel = ReuseDistanceModel.ELEMENT,
                 line_size: int = 128, write_restart: bool = True):
        self.model = model
        self.line_size = line_size
        self.write_restart = write_restart
        self._states: Dict[int, _OnlineReuse] = {}
        self._hists: Dict[Tuple[int, int], ReuseDistanceHistogram] = {}
        self._order: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def update(self, cols) -> None:
        for rows in _cta_row_segments(cols.cta):
            cta = int(cols.cta[rows[0]])
            elements, writes = _column_flat_events(
                cols, rows, self.model, self.line_size
            )
            state = self._states.get(cta)
            if state is None:
                state = self._states[cta] = _OnlineReuse(self.write_restart)
            distances = state.feed(elements, writes)
            if not distances.size:
                continue
            reads = ~writes
            mask = cols.mask[rows]
            lanes_line = np.broadcast_to(
                cols.line[rows].astype(np.int64)[:, None], mask.shape
            )[mask][reads]
            lanes_col = np.broadcast_to(
                cols.col[rows].astype(np.int64)[:, None], mask.shape
            )[mask][reads]
            pairs = np.stack([lanes_line, lanes_col], axis=1)
            uniq, first, inverse = np.unique(
                pairs, axis=0, return_index=True, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            by_site = np.argsort(inverse, kind="stable")
            bounds = np.cumsum(np.bincount(inverse))[:-1]
            groups = np.split(distances[by_site], bounds)
            base = state.reads_seen - distances.size
            for j in range(len(uniq)):
                key = (int(uniq[j, 0]), int(uniq[j, 1]))
                hist = self._hists.get(key)
                if hist is None:
                    hist = ReuseDistanceHistogram(model=self.model)
                    self._hists[key] = hist
                order_key = (cta, base + int(first[j]))
                known = self._order.get(key)
                if known is None or order_key < known:
                    self._order[key] = order_key
                hist.add_samples(groups[j])

    def merge(self, other: "SiteReuseAggregate") -> None:
        _merge_cta_states(self._states, other._states, "site-reuse")
        for key, hist in other._hists.items():
            mine = self._hists.get(key)
            if mine is None:
                self._hists[key] = hist
            else:
                mine.merge(hist)
            known = self._order.get(key)
            if known is None or other._order[key] < known:
                self._order[key] = other._order[key]

    def finalize(self) -> Dict[Tuple[int, int], ReuseDistanceHistogram]:
        ordered = sorted(self._hists, key=lambda key: self._order[key])
        return {key: self._hists[key] for key in ordered}


class StackDistanceAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.cache_model.profile_stack_distances`.

    Rather than the raw sample list, this aggregate folds the samples
    into a :class:`~repro.analysis.cache_model.StackDistanceSummary` --
    an exact distance->count table whose ``curve()`` equals
    :func:`~repro.analysis.cache_model.hit_rate_curve` over the raw
    samples float-for-float.
    """

    stream = "memory"

    def __init__(self, line_size: int = 128):
        self.line_size = line_size
        self._states: Dict[int, _OnlineStack] = {}
        self._counts: Counter = Counter()
        self._infinite = 0

    def update(self, cols) -> None:
        for rows in _cta_row_segments(cols.cta):
            cta = int(cols.cta[rows[0]])
            lines, writes = _column_flat_events(
                cols, rows, ReuseDistanceModel.CACHE_LINE, self.line_size
            )
            state = self._states.get(cta)
            if state is None:
                state = self._states[cta] = _OnlineStack()
            distances = state.feed(lines, writes)
            if not distances.size:
                continue
            finite = distances[distances != INFINITE]
            self._infinite += int(distances.size - finite.size)
            if finite.size:
                vals, counts = np.unique(finite, return_counts=True)
                for v, c in zip(vals.tolist(), counts.tolist()):
                    self._counts[v] += c

    def merge(self, other: "StackDistanceAggregate") -> None:
        _merge_cta_states(self._states, other._states, "stack-distance")
        self._counts.update(other._counts)
        self._infinite += other._infinite

    def finalize(self) -> StackDistanceSummary:
        return StackDistanceSummary(
            counts=self._counts,
            infinite=self._infinite,
            line_size=self.line_size,
        )


class MemoryDivergenceAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.divergence_memory.memory_divergence_analysis`."""

    stream = "memory"

    def __init__(self, line_size: int):
        self.profile = MemoryDivergenceProfile(line_size=line_size)

    def update(self, cols) -> None:
        counts = _column_unique_line_counts(cols, self.profile.line_size)
        if counts.size:
            for k, c in enumerate(np.bincount(counts).tolist()):
                if c:
                    self.profile.counts[k] += c

    def merge(self, other: "MemoryDivergenceAggregate") -> None:
        self.profile.merge(other.profile)

    def finalize(self) -> MemoryDivergenceProfile:
        return self.profile


class DivergentSitesAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.divergence_memory.divergent_sites`.

    First-encounter dict order is reproduced via the global row index of
    each site's first divergent access (a running row offset makes the
    per-segment indices global; ``merge`` shifts the peer's offsets past
    this shard's rows, matching the concatenated trace).
    """

    stream = "memory"

    def __init__(self, line_size: int, threshold: int = 2):
        self.line_size = line_size
        self.threshold = threshold
        self._counts: Dict[Tuple[int, int], int] = {}
        self._first: Dict[Tuple[int, int], int] = {}
        self._rows_seen = 0

    def update(self, cols) -> None:
        counts = _column_unique_line_counts(cols, self.line_size)
        sel = np.flatnonzero(counts >= self.threshold)
        if sel.size:
            pairs = np.stack(
                [
                    cols.line[sel].astype(np.int64),
                    cols.col[sel].astype(np.int64),
                ],
                axis=1,
            )
            uniq, first, cnt = np.unique(
                pairs, axis=0, return_index=True, return_counts=True
            )
            for j in range(len(uniq)):
                key = (int(uniq[j, 0]), int(uniq[j, 1]))
                row = self._rows_seen + int(sel[first[j]])
                known = self._first.get(key)
                if known is None or row < known:
                    self._first[key] = row
                self._counts[key] = self._counts.get(key, 0) + int(cnt[j])
        self._rows_seen += len(cols)

    def merge(self, other: "DivergentSitesAggregate") -> None:
        for key, count in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + count
            row = self._rows_seen + other._first[key]
            known = self._first.get(key)
            if known is None or row < known:
                self._first[key] = row
        self._rows_seen += other._rows_seen

    def finalize(self) -> Dict[Tuple[int, int], int]:
        ordered = sorted(self._counts, key=lambda key: self._first[key])
        return {key: self._counts[key] for key in ordered}


class BranchDivergenceAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.divergence_branch.branch_divergence_analysis`.

    ``per_block`` insertion order is trace first-encounter order; the
    segments arrive in trace order (and shards merge in shard order),
    so plain sequential insertion reproduces it.
    """

    stream = "block"

    def __init__(self):
        self.profile = BranchDivergenceProfile()

    def update(self, cols) -> None:
        n = len(cols)
        if not n:
            return
        profile = self.profile
        profile.total_blocks += n
        divergent = np.asarray(cols.active_lanes) < np.asarray(
            cols.resident_lanes
        )
        profile.divergent_blocks += int(divergent.sum())
        per_block = profile.per_block
        lines = cols.line
        flags = divergent.tolist()
        for i, name in enumerate(cols.block_names):
            stats = per_block.get(name)
            if stats is None:
                stats = _BlockSiteStats(line=int(lines[i]))
                per_block[name] = stats
            stats.executions += 1
            if flags[i]:
                stats.divergent += 1

    def merge(self, other: "BranchDivergenceAggregate") -> None:
        self.profile.merge(other.profile)

    def finalize(self) -> BranchDivergenceProfile:
        return self.profile


class ArithmeticAggregate(SegmentAggregate):
    """Streaming :func:`~repro.analysis.arithmetic.arithmetic_analysis`."""

    stream = "arith"

    def __init__(self):
        self.profile = ArithmeticProfile()

    def update(self, cols) -> None:
        if not len(cols):
            return
        lanes = np.asarray(cols.active_lanes, dtype=np.int64)
        is_float = np.asarray(cols.is_float, dtype=bool)
        self.profile.lane_flops += int(lanes[is_float].sum())
        self.profile.lane_intops += int(lanes[~is_float].sum())
        by_opcode = self.profile.by_opcode
        by_line = self.profile.by_line
        for opcode, line, n in zip(
            cols.opcodes, cols.line.tolist(), lanes.tolist()
        ):
            by_opcode[opcode] += n
            by_line[line] += n

    def merge(self, other: "ArithmeticAggregate") -> None:
        self.profile.merge(other.profile)

    def finalize(self) -> ArithmeticProfile:
        return self.profile


class AnalyzerBank:
    """A named set of aggregates fed by one fused launch.

    The fused sink calls ``update_memory`` / ``update_block`` /
    ``update_arith`` once per kept segment; shard banks merge with
    :meth:`merge` (in shard order); :meth:`result` finalizes lazily and
    caches, so analyses can be read repeatedly.
    """

    def __init__(self, aggregates: Dict[str, SegmentAggregate]):
        self.aggregates = dict(aggregates)
        self._finalized: Dict[str, object] = {}
        self._by_stream: Dict[str, List[SegmentAggregate]] = {
            "memory": [], "block": [], "arith": [],
        }
        for agg in self.aggregates.values():
            self._by_stream[agg.stream].append(agg)

    def update_memory(self, cols) -> None:
        for agg in self._by_stream["memory"]:
            agg.update(cols)

    def update_block(self, cols) -> None:
        for agg in self._by_stream["block"]:
            agg.update(cols)

    def update_arith(self, cols) -> None:
        for agg in self._by_stream["arith"]:
            agg.update(cols)

    def merge(self, other: "AnalyzerBank") -> None:
        if self._finalized or other._finalized:
            raise AnalysisError("cannot merge a finalized analyzer bank")
        if self.aggregates.keys() != other.aggregates.keys():
            raise AnalysisError(
                "cannot merge analyzer banks with different aggregate sets: "
                f"{sorted(self.aggregates)} vs {sorted(other.aggregates)}"
            )
        for name, agg in self.aggregates.items():
            agg.merge(other.aggregates[name])

    def result(self, name: str):
        if name in self._finalized:
            return self._finalized[name]
        if name not in self.aggregates:
            raise AnalysisError(
                f"no {name!r} aggregate in this streaming plan "
                f"(have: {', '.join(sorted(self._names()))})"
            )
        self._finalized[name] = self.aggregates[name].finalize()
        return self._finalized[name]

    def _names(self) -> List[str]:
        return sorted(set(self.aggregates) | set(self._finalized))

    def results(self) -> Dict[str, object]:
        return {name: self.result(name) for name in self._names()}

    def seal(self) -> None:
        """Finalize every result and release the cursor state.

        A profile retains its bank for the lifetime of the session, and
        the drain-time cursor state (per-CTA Fenwick trees, carry maps)
        is much larger than the finalized results (histograms,
        counters). Nothing reads aggregate internals after the drain --
        cross-profile combination happens on finalized results
        (``ReuseDistanceHistogram.merge`` etc.), never bank-to-bank --
        so ``kernel_end`` seals the bank once streaming completes and
        only one launch's cursors are ever alive at a time.
        """
        for name in list(self.aggregates):
            self.result(name)
        self.aggregates = {}
        self._by_stream = {"memory": [], "block": [], "arith": []}


class AnalyzerPlan:
    """A recipe for the aggregates a fused launch instantiates.

    A plan is shared across launches; every ``kernel_end`` creates a
    fresh bank from it.
    """

    def __init__(self, factories: Dict[str, Callable[[], SegmentAggregate]]):
        self.factories = dict(factories)

    def create_bank(self) -> AnalyzerBank:
        return AnalyzerBank(
            {name: make() for name, make in self.factories.items()}
        )

    def analyze(self, profile) -> AnalyzerBank:
        """A fresh bank fed once with one profile's kept records, sealed.

        Each stream's records go in as a single segment, so the results
        equal those of fused analysis over the same launch.
        """
        bank = self.create_bank()
        streams = {agg.stream for agg in bank.aggregates.values()}
        for stream, update in (
            ("memory", bank.update_memory),
            ("block", bank.update_block),
            ("arith", bank.update_arith),
        ):
            if stream in streams:
                records = getattr(profile, f"{stream}_records")
                if len(records):
                    update(records)
        bank.seal()
        return bank


def analyze_records(profile, aggregate: SegmentAggregate):
    """Feed one profile's kept records through ``aggregate``; its result."""
    return AnalyzerPlan({"result": lambda: aggregate}).analyze(
        profile
    ).result("result")


def advisor_plan(
    line_size: int,
    modes: Sequence[str] = ("memory", "blocks"),
    write_restart: bool = True,
    heatmap_cell_rows: Optional[int] = None,
) -> AnalyzerPlan:
    """The aggregates :class:`~repro.optim.advisor.CUDAAdvisor` needs.

    ``heatmap_cell_rows`` (when set, and "memory" is instrumented) adds
    the :class:`~repro.analysis.heatmap.HeatmapAggregate` so streaming
    drains build the per-allocation x time heat map as they go.
    """
    factories: Dict[str, Callable[[], SegmentAggregate]] = {}
    if "memory" in modes and heatmap_cell_rows is not None:
        from repro.analysis.heatmap import HeatmapAggregate

        factories["heatmap"] = lambda: HeatmapAggregate(heatmap_cell_rows)
    if "memory" in modes:
        factories["reuse_element"] = lambda: ReuseDistanceAggregate(
            ReuseDistanceModel.ELEMENT, line_size, write_restart
        )
        factories["reuse_cache_line"] = lambda: ReuseDistanceAggregate(
            ReuseDistanceModel.CACHE_LINE, line_size, write_restart
        )
        factories["memory_divergence"] = lambda: MemoryDivergenceAggregate(
            line_size
        )
    if "blocks" in modes:
        factories["branch_divergence"] = BranchDivergenceAggregate
    if "arith" in modes:
        factories["arithmetic"] = ArithmeticAggregate
    return AnalyzerPlan(factories)


def full_plan(
    line_size: int,
    modes: Sequence[str] = ("memory", "blocks", "arith"),
    write_restart: bool = True,
    divergence_threshold: int = 2,
    heatmap_cell_rows: Optional[int] = None,
) -> AnalyzerPlan:
    """Every streaming analysis, including the per-site debugging views."""
    plan = advisor_plan(line_size, modes, write_restart, heatmap_cell_rows)
    if "memory" in modes:
        plan.factories["site_reuse_element"] = lambda: SiteReuseAggregate(
            ReuseDistanceModel.ELEMENT, line_size, write_restart
        )
        plan.factories["site_reuse_cache_line"] = lambda: SiteReuseAggregate(
            ReuseDistanceModel.CACHE_LINE, line_size, write_restart
        )
        plan.factories["divergent_sites"] = lambda: DivergentSitesAggregate(
            line_size, divergence_threshold
        )
        plan.factories["stack_distance"] = lambda: StackDistanceAggregate(
            line_size
        )
    return plan
