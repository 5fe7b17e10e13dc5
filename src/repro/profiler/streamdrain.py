"""The one trace drain: trace rows stream out of the buffers in flight.

A :class:`FusedSink` hooks the three columnar trace buffers of a launch
so that buffered rows leave them whenever a buffer reaches its flush
size *during* execution, so the buffers never hold more than one flush
of rows. Each flushed window is sampled and capped, and every row it
keeps goes to up to two outputs:

* **the bank** -- an :class:`~repro.analysis.aggregates.AnalyzerBank`
  (when the session has an analyzer plan). The profile carries it as
  ``aggregates``; unless rows are kept as well, the records are
  :class:`StreamedRecords` placeholders and resident trace memory
  stays O(flush) for the whole launch.
* **kept rows** -- one growing column set per stream, handed over at
  kernel exit as the profile's column views (when the session has no
  plan, and when the launch needs raw records such as pc sampling).

Two cross-flush concerns are handled here so results stay
byte-identical to analyzing the fully materialized trace:

* **Stride sampling** (``sample_rate > 1``) ranks memory and arith
  events jointly by sequence number. All three buffers share one
  sequence counter, so at any flush the buffered memory+arith rows are
  exactly the next contiguous window of the joint event stream: joint
  ranks assigned with a running counter equal the global ranks over
  the whole merged stream.
* **Capacity** is enforced as keep-first-N per stream with drop
  accounting, after sampling.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ProfilerError

_EMPTY_SEQ = np.zeros(0, dtype=np.int64)

#: Default flush size (rows per buffer) of a launch's trace buffers.
DEFAULT_FLUSH_ROWS = 65536

_STREAMS = ("memory", "block", "arith")


class StreamedRecords:
    """Placeholder for a trace analyzed in flight.

    The kept-row count survives (``len()`` keeps buffer accounting,
    statistics and benchmarks working); the records themselves were
    streamed through the analyzer bank and never materialized, so
    element and column access raise with a pointer at
    ``profile.aggregates``.
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
            f"profile with CUDAAdvisor(fused_drain=False) to keep raw "
            f"records"
        )

    def __getitem__(self, i):
        self._gone()

    def __getattr__(self, name):
        # column access (``records.cta`` ...) by an analysis of this profile
        if name.startswith("_"):
            raise AttributeError(name)
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


class FusedSink:
    """Moves kept rows out of a launch's trace buffers *during* execution.

    The three columnar buffers flush into this sink whenever they reach
    ``flush_rows`` (see ``_ColumnarBase.sink``). Memory and arith flush
    together so their joint stride ranks continue one running counter;
    block rows flush independently (each aggregate consumes a single
    stream, so cross-stream interleaving is invisible). ``bank`` may be
    ``None`` (no analyzer plan); ``keep`` collects the kept rows.
    """

    def __init__(self, bank, memory_buffer, block_buffer, arith_buffer,
                 flush_rows: int, sample_rate: int = 1,
                 capacity: Optional[int] = None, keep: bool = False):
        self.bank = bank
        self.rate = sample_rate
        self.capacity = capacity
        self.stats = StreamStats()
        #: rows dropped by the keep-first capacity cap.
        self.clipped = 0
        self._rank = 0  # running joint memory+arith stride rank
        self.memory_buffer = memory_buffer
        self.block_buffer = block_buffer
        self.arith_buffer = arith_buffer
        #: kept rows per stream, in trace order: a sink-less buffer of
        #: the stream's kind (None: not kept).
        self.kept = None
        if keep:
            self.keep_records()
        for buffer in (memory_buffer, arith_buffer):
            buffer.sink = self._flush_events
            buffer.sink_rows = flush_rows
        block_buffer.sink = self._flush_blocks
        block_buffer.sink_rows = flush_rows

    def keep_records(self) -> None:
        """Collect the kept rows as records too (before any push)."""
        if self.kept is None:
            self.kept = {
                stream: type(getattr(self, f"{stream}_buffer"))()
                for stream in _STREAMS
            }

    def flush(self) -> None:
        """Push everything still buffered."""
        self._flush_blocks()
        self._flush_events()

    def finish(self) -> dict:
        """Flush the tail and seal; the profile fields of this launch.

        Kept rows are handed over per stream; without them the records
        are :class:`StreamedRecords` placeholders. A bank comes with
        the sink's counters.
        """
        self.flush()
        if self.bank is not None:
            self.bank.seal()
        fields = {
            f"{stream}_records": self._records(stream)
            for stream in _STREAMS
        }
        fields["dropped_records"] = self.clipped
        fields["aggregates"] = self.bank
        fields["stream_stats"] = (
            None if self.bank is None else self.stats.as_dict()
        )
        return fields

    def _records(self, stream: str):
        if self.kept is None:
            rows = getattr(self.stats, f"{stream}_rows")
            return StreamedRecords(stream, rows)
        view = self.kept[stream].detach_rows()
        if view is None:
            return getattr(self, f"{stream}_buffer").empty_view()
        return view

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
        """Keep (a subset of) one window, enforcing the per-stream
        keep-first-capacity contract, and hand it to the outputs."""
        rows = len(seg) if idx is None else len(idx)
        if not rows:
            return
        counter = f"{key}_rows"
        kept_so_far = getattr(self.stats, counter)
        if self.capacity is not None:
            allow = self.capacity - kept_so_far
            if allow <= 0:
                self.clipped += rows
                return
            if rows > allow:
                self.clipped += rows - allow
                rows = allow
                idx = np.arange(allow) if idx is None else idx[:allow]
        if idx is not None and (len(idx) != len(seg)):
            seg = seg.take(idx)
        setattr(self.stats, counter, kept_so_far + rows)
        if self.kept is not None:
            self.kept[key].extend(seg)
        if self.bank is not None:
            getattr(self.bank, f"update_{key}")(seg)
