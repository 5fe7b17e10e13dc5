"""Fused in-flight analysis: trace rows stream into the analyzer bank.

A :class:`FusedSink` hooks the three columnar trace buffers so that
buffered rows flush into an
:class:`~repro.analysis.aggregates.AnalyzerBank` whenever a buffer
reaches its flush size *during* execution: no spill files, no
kernel-exit drain pass, and resident trace memory stays O(flush) for
the whole launch. The resulting profile carries the bank as
``aggregates`` and :class:`StreamedRecords` placeholders instead of raw
records.

Two cross-flush concerns are handled here so results stay
byte-identical to the in-RAM batch analyzers:

* **Stride sampling** (``sample_rate > 1``) ranks memory and arith
  events jointly by sequence number. All three buffers share one
  sequence counter, so at any flush the buffered memory+arith rows are
  exactly the next contiguous window of the joint event stream: joint
  ranks assigned with a running counter equal the global ranks of the
  batch :func:`~repro.profiler.buffers.stride_sample`.
* **Capacity** is enforced as keep-first-N per stream with drop
  accounting, matching append-time caps (``sample_rate == 1``) and the
  post-sampling :func:`~repro.profiler.buffers.clip_to_capacity`
  (``sample_rate > 1``).

Fork-parallel shards either fuse locally and ship their bank (exact
when no sampling or capacity applies; the parent merges bank-to-bank)
or materialize their rows and relay them for the parent's running
cursors (:meth:`FusedSink.relay`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ProfilerError

_EMPTY_SEQ = np.zeros(0, dtype=np.int64)


class StreamedRecords:
    """Placeholder for a trace analyzed in flight.

    The kept-row count survives (``len()`` keeps buffer accounting,
    statistics and benchmarks working); the records themselves were
    streamed through the analyzer bank and never materialized, so
    element access raises with a pointer at ``profile.aggregates``.
    """

    __slots__ = ("kind", "rows")

    def __init__(self, kind: str, rows: int):
        self.kind = kind
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    def _gone(self):
        raise ProfilerError(
            f"the {self.kind} trace was analyzed in flight and is not "
            f"materialized; read results from profile.aggregates, or "
            f"profile without fused analysis (the default in-RAM path) "
            f"to keep raw records"
        )

    def __getitem__(self, i):
        self._gone()

    def __iter__(self):
        self._gone()

    def __repr__(self) -> str:
        return f"<StreamedRecords {self.kind}: {self.rows} rows streamed>"


class StreamStats:
    """Counters one fused launch accumulates (surfaced by the CLI)."""

    __slots__ = ("segments_streamed", "peak_resident_rows", "memory_rows",
                 "block_rows", "arith_rows")

    def __init__(self):
        self.segments_streamed = 0
        self.peak_resident_rows = 0
        self.memory_rows = 0
        self.block_rows = 0
        self.arith_rows = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def absorb(self, other: Dict[str, int]) -> None:
        """Fold in a shard worker's stats (sums; peak is a max)."""
        self.segments_streamed += other.get("segments_streamed", 0)
        self.peak_resident_rows = max(
            self.peak_resident_rows, other.get("peak_resident_rows", 0)
        )
        self.memory_rows += other.get("memory_rows", 0)
        self.block_rows += other.get("block_rows", 0)
        self.arith_rows += other.get("arith_rows", 0)


class FusedSink:
    """Pushes kept rows into the analyzer bank *during* execution.

    The three columnar buffers flush into this sink whenever they reach
    ``flush_rows`` (see ``_ColumnarBase.sink``). Memory and arith flush
    together so their joint stride ranks continue one running counter;
    block rows flush independently (each aggregate consumes a single
    stream, so cross-stream interleaving is invisible).
    """

    def __init__(self, bank, memory_buffer, block_buffer, arith_buffer,
                 flush_rows: int, sample_rate: int = 1,
                 capacity: Optional[int] = None):
        self.bank = bank
        self.rate = sample_rate
        self.capacity = capacity
        self.stats = StreamStats()
        #: rows dropped by the keep-first capacity cap.
        self.clipped = 0
        self._rank = 0  # running joint memory+arith stride rank
        self._kept = {"memory": 0, "block": 0, "arith": 0}
        self.memory_buffer = memory_buffer
        self.block_buffer = block_buffer
        self.arith_buffer = arith_buffer
        for buffer in (memory_buffer, arith_buffer):
            buffer.sink = self._flush_events
            buffer.sink_rows = flush_rows
        block_buffer.sink = self._flush_blocks
        block_buffer.sink_rows = flush_rows

    def detach(self) -> None:
        """Unhook from the buffers (fused mode disabled pre-launch)."""
        for buffer in (self.memory_buffer, self.block_buffer,
                       self.arith_buffer):
            buffer.sink = None
            buffer.sink_rows = 0

    def flush(self) -> None:
        """Push everything still buffered (called at kernel_end)."""
        self._flush_blocks()
        self._flush_events()

    def relay(self, state: dict) -> None:
        """Push a shard worker's materialized rows (``detach_rows`` views).

        A shard's rows are the next contiguous window of the launch's
        trace (shards are relayed in SM order), so they continue the
        running stride rank and capacity cursors exactly as a flush
        would.
        """
        self._push_blocks(state["block"])
        self._push_events(state["memory"], state["arith"])

    def _flush_blocks(self, buffer=None) -> None:
        self._push_blocks(self.block_buffer.detach_rows())

    def _flush_events(self, buffer=None) -> None:
        # Memory and arith flush *together*: their buffered rows form
        # one complete seq-prefix window of the joint stream, which is
        # what makes the stride ranks exact.
        self._push_events(
            self.memory_buffer.detach_rows(), self.arith_buffer.detach_rows()
        )

    def _push_blocks(self, view) -> None:
        if view is None:
            return
        stats = self.stats
        stats.segments_streamed += 1
        stats.peak_resident_rows = max(stats.peak_resident_rows, len(view))
        self._emit(view, None, "block")

    def _push_events(self, mem, ari) -> None:
        if mem is None and ari is None:
            return
        stats = self.stats
        resident = (0 if mem is None else len(mem)) + (
            0 if ari is None else len(ari)
        )
        stats.peak_resident_rows = max(stats.peak_resident_rows, resident)
        stats.segments_streamed += (mem is not None) + (ari is not None)
        if self.rate == 1:
            if mem is not None:
                self._emit(mem, None, "memory")
            if ari is not None:
                self._emit(ari, None, "arith")
            return
        m_seq = mem.seq if mem is not None else _EMPTY_SEQ
        a_seq = ari.seq if ari is not None else _EMPTY_SEQ
        seqs = np.concatenate([m_seq, a_seq])
        order = np.argsort(seqs, kind="stable")
        ranks = np.empty(seqs.size, dtype=np.int64)
        ranks[order] = np.arange(self._rank, self._rank + seqs.size)
        self._rank += seqs.size
        keep = ranks % self.rate == 0
        if mem is not None:
            self._emit(mem, np.flatnonzero(keep[: m_seq.size]), "memory")
        if ari is not None:
            self._emit(ari, np.flatnonzero(keep[m_seq.size:]), "arith")

    def _emit(self, seg, idx, key: str) -> None:
        """Push (a kept subset of) one window through the bank,
        enforcing the per-stream keep-first-capacity contract."""
        rows = len(seg) if idx is None else len(idx)
        if not rows:
            return
        if self.capacity is not None:
            allow = self.capacity - self._kept[key]
            if allow <= 0:
                self.clipped += rows
                return
            if rows > allow:
                self.clipped += rows - allow
                rows = allow
                idx = np.arange(allow) if idx is None else idx[:allow]
        if idx is not None and (len(idx) != len(seg)):
            seg = seg.take(idx)
        self._kept[key] += rows
        if key == "memory":
            self.stats.memory_rows += rows
            self.bank.update_memory(seg)
        elif key == "block":
            self.stats.block_rows += rows
            self.bank.update_block(seg)
        else:
            self.stats.arith_rows += rows
            self.bank.update_arith(seg)
