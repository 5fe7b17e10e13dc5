"""Per-record, per-lane reference analyses: the oracle for the aggregates.

Every analysis in :mod:`repro.analysis` runs through one streaming
aggregate (:mod:`repro.analysis.aggregates`). The functions here compute
the same results the slow, obvious way -- walking records one at a
time and each warp access lane by lane, the way Section 4.2 defines the
analyses -- and share no code with the aggregates apart from the
result classes and the stream-level recurrences
(:func:`~repro.analysis.reuse_distance.reuse_distances_of_trace`,
:func:`~repro.analysis.cache_model.stack_distances`), which have their
own quadratic and cache-simulator differential tests.

They take any record sequence: a plain list of records or a kept
column view (which iterates as records). :func:`memory_columns`,
:func:`block_columns` and :func:`arith_columns` turn hand-built record
lists into the column views the analyzers consume, and
:func:`columns_profile` wraps them as a profile; :func:`append_memory`,
:func:`append_block` and :func:`append_arith` append hand-built events,
constants and all, to a standalone trace buffer.
"""

from collections import Counter
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.arithmetic import ArithmeticProfile
from repro.analysis.cache_model import stack_distances
from repro.analysis.divergence_branch import (
    BranchDivergenceProfile,
    _BlockSiteStats,
)
from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.reuse_distance import (
    ReuseDistanceHistogram,
    ReuseDistanceModel,
    reuse_distances_of_trace,
)
from repro.gpu.coalescing import divergence_degree
from repro.profiler.buffers import ArithColumns, BlockColumns, MemoryColumns
from repro.profiler.records import MemoryOp

Event = Tuple[int, bool, Tuple[int, int]]  # (element, is_write, site)


# -- hand-built records -> columns --------------------------------------------


def memory_columns(records: Sequence) -> MemoryColumns:
    """Column view of a list of :class:`MemoryAccessRecord`."""
    n = len(records)
    warp = len(records[0].mask) if n else 1
    return MemoryColumns(
        np.array([r.seq for r in records], dtype=np.int64),
        np.array([r.cta for r in records], dtype=np.int32),
        np.array([r.warp_in_cta for r in records], dtype=np.int32),
        np.array([r.bits for r in records], dtype=np.int32),
        np.array([r.line for r in records], dtype=np.int32),
        np.array([r.col for r in records], dtype=np.int32),
        np.array([int(r.op) for r in records], dtype=np.int8),
        np.array([r.call_path_id for r in records], dtype=np.int64),
        np.array([r.addresses for r in records],
                 dtype=np.int64).reshape(n, warp),
        np.array([r.mask for r in records], dtype=bool).reshape(n, warp),
    )


def block_columns(records: Sequence) -> BlockColumns:
    """Column view of a list of :class:`BlockRecord`."""
    def col(field, dtype=np.int32):
        return np.array([getattr(r, field) for r in records], dtype=dtype)

    return BlockColumns(
        col("seq", np.int64), col("cta"), col("warp_in_cta"), col("line"),
        col("col"), col("active_lanes"), col("resident_lanes"),
        col("call_path_id", np.int64), [r.block_name for r in records],
    )


def arith_columns(records: Sequence) -> ArithColumns:
    """Column view of a list of :class:`ArithRecord`."""
    def col(field, dtype=np.int32):
        return np.array([getattr(r, field) for r in records], dtype=dtype)

    return ArithColumns(
        col("seq", np.int64), col("cta"), col("warp_in_cta"), col("bits"),
        col("is_float", bool), col("line"), col("col"),
        col("active_lanes"), col("call_path_id", np.int64),
        [r.opcode for r in records],
    )


def columns_profile(memory=(), block=(), arith=()) -> SimpleNamespace:
    """A stand-in kernel profile holding the records as column views."""
    return SimpleNamespace(
        memory_records=memory_columns(list(memory)),
        block_records=block_columns(list(block)),
        arith_records=arith_columns(list(arith)),
    )


def drained(buffer):
    """Everything a standalone columnar buffer holds, as one column view."""
    view = buffer.detach_rows()
    return buffer.empty_view() if view is None else view


# -- hand-built events -> a standalone buffer ---------------------------------


def _site(buffer, consts: tuple) -> int:
    """The id of a call site with these constants in the buffer's table."""
    if consts not in buffer.sites:
        buffer.sites.append(consts)
    return buffer.sites.index(consts)


def append_memory(buffer, seq, cta, warp_in_cta, addrs, mask, bits, line,
                  col, op, call_path_id) -> None:
    buffer.append(seq, cta, warp_in_cta, call_path_id,
                  _site(buffer, (bits, line, col, op)), addrs, mask)


def append_block(buffer, seq, cta, warp_in_cta, name, line, col,
                 active_lanes, resident_lanes, call_path_id) -> None:
    buffer.append(seq, cta, warp_in_cta, call_path_id,
                  _site(buffer, (name, line, col)), active_lanes,
                  resident_lanes)


def append_arith(buffer, seq, cta, warp_in_cta, opcode, bits, is_float,
                 line, col, active_lanes, call_path_id) -> None:
    buffer.append(seq, cta, warp_in_cta, call_path_id,
                  _site(buffer, (opcode, bits, is_float, line, col)),
                  active_lanes)


# -- sampling and capacity over a whole materialized trace --------------------


def stride_sample(memory: MemoryColumns, arith: ArithColumns, rate: int):
    """Every ``rate``-th event of the merged memory+arith stream.

    Events are ranked by sequence number across both column sets
    together (the order the hooks fired in) and ranks ``0, rate,
    2*rate, ...`` are kept, seqs untouched: the reference for the
    sink's running per-flush ranks.
    """
    if rate == 1:
        return memory, arith
    n_mem = len(memory)
    seqs = np.concatenate([memory.seq, arith.seq])
    order = np.argsort(seqs)  # seqs are unique across both streams
    ranks = np.empty(len(seqs), dtype=np.int64)
    ranks[order] = np.arange(len(seqs))
    keep = ranks % rate == 0
    return memory.take(keep[:n_mem]), arith.take(keep[n_mem:])


def clip_to_capacity(cols, capacity):
    """Keep the first ``capacity`` rows; returns ``(cols, dropped)``.

    Applied after :func:`stride_sample`: the reference for the sink's
    keep-first cap.
    """
    if capacity is None or len(cols) <= capacity:
        return cols, 0
    return cols.take(np.arange(capacity)), len(cols) - capacity


def assert_columns_equal(expected, actual) -> None:
    """Two column views hold the same rows, column for column.

    The lane width of an empty view's per-lane columns is unspecified,
    so zero-row columns only need to agree on dtype.
    """
    assert type(expected) is type(actual)
    assert len(expected) == len(actual)
    for name in expected.__slots__:
        a, b = getattr(expected, name), getattr(actual, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, name
            assert not len(a) or np.array_equal(a, b), name
        else:
            assert list(a) == list(b), name


# -- memory: per-CTA lane streams ---------------------------------------------


def _cta_streams(records, model: ReuseDistanceModel,
                 line_size: int) -> List[List[Event]]:
    """Per-CTA lane-serialized event streams, ascending CTA id.

    Records stay in trace order within a CTA; a warp access contributes
    its active lanes in lane order.
    """
    streams: Dict[int, List[Event]] = {}
    for record in records:
        is_write = record.op in (MemoryOp.STORE, MemoryOp.ATOMIC)
        width = max(record.bytes_per_lane, 1)
        site = (record.line, record.col)
        events = streams.setdefault(record.cta, [])
        for addr in record.active_addresses():
            if model == ReuseDistanceModel.CACHE_LINE:
                element = int(addr) // line_size
            else:
                element = int(addr) // width
            events.append((element, is_write, site))
    return [streams[cta] for cta in sorted(streams)]


def reuse_histogram(records, model=ReuseDistanceModel.ELEMENT,
                    line_size: int = 128,
                    write_restart: bool = True) -> ReuseDistanceHistogram:
    hist = ReuseDistanceHistogram(model=model)
    for events in _cta_streams(records, model, line_size):
        for d in reuse_distances_of_trace(
            [(e, w) for e, w, _ in events], write_restart=write_restart
        ):
            hist.add_sample(d)
    return hist


def site_reuse(records, model=ReuseDistanceModel.ELEMENT,
               line_size: int = 128, write_restart: bool = True
               ) -> Dict[Tuple[int, int], ReuseDistanceHistogram]:
    """Per-site histograms in first-encounter order (CTA, then read)."""
    sites: Dict[Tuple[int, int], ReuseDistanceHistogram] = {}
    for events in _cta_streams(records, model, line_size):
        distances = reuse_distances_of_trace(
            [(e, w) for e, w, _ in events],
            write_restart=write_restart, reads_only=False,
        )
        for (_, is_write, site), d in zip(events, distances):
            if is_write:
                continue  # writes carry no reuse sample
            if site not in sites:
                sites[site] = ReuseDistanceHistogram(model=model)
            sites[site].add_sample(d)
    return sites


def stack_distance_samples(records, line_size: int = 128) -> List[int]:
    samples: List[int] = []
    for events in _cta_streams(
        records, ReuseDistanceModel.CACHE_LINE, line_size
    ):
        samples.extend(stack_distances([(e, w) for e, w, _ in events]))
    return samples


def _unique_lines(record, line_size: int) -> int:
    return divergence_degree(
        record.addresses, record.mask, max(record.bytes_per_lane, 1),
        line_size,
    )


def memory_divergence(records, line_size: int) -> MemoryDivergenceProfile:
    profile = MemoryDivergenceProfile(line_size=line_size)
    for record in records:
        profile.add(_unique_lines(record, line_size))
    return profile


def divergent_sites(records, line_size: int,
                    threshold: int = 2) -> Dict[Tuple[int, int], int]:
    sites: Dict[Tuple[int, int], int] = {}
    for record in records:
        if _unique_lines(record, line_size) >= threshold:
            key = (record.line, record.col)
            sites[key] = sites.get(key, 0) + 1
    return sites


# -- blocks and arithmetic ----------------------------------------------------


def branch_divergence(records) -> BranchDivergenceProfile:
    profile = BranchDivergenceProfile()
    for record in records:
        profile.total_blocks += 1
        stats = profile.per_block.get(record.block_name)
        if stats is None:
            stats = profile.per_block[record.block_name] = _BlockSiteStats(
                line=record.line
            )
        stats.executions += 1
        if record.divergent:
            profile.divergent_blocks += 1
            stats.divergent += 1
    return profile


def arithmetic(records) -> ArithmeticProfile:
    profile = ArithmeticProfile()
    for record in records:
        lanes = record.active_lanes
        if record.is_float:
            profile.lane_flops += lanes
        else:
            profile.lane_intops += lanes
        profile.by_opcode[record.opcode] += lanes
        profile.by_line[record.line] += lanes
    return profile


# -- comparisons --------------------------------------------------------------


def assert_hist_equal(a, b, what="") -> None:
    assert a.frequencies == b.frequencies, what
    assert (a.samples, a.infinite, a.finite_sum, a.finite_count,
            a.bucket_counts) == (b.samples, b.infinite, b.finite_sum,
                                 b.finite_count, b.bucket_counts), what


def assert_sites_equal(expected, actual, what="") -> None:
    assert list(expected) == list(actual), what  # dict ORDER too
    for key in expected:
        assert_hist_equal(expected[key], actual[key], f"{what} site {key}")


def assert_branch_equal(expected, actual) -> None:
    assert (expected.total_blocks, expected.divergent_blocks) == (
        actual.total_blocks, actual.divergent_blocks
    )
    assert list(expected.per_block) == list(actual.per_block)
    for name, a in expected.per_block.items():
        b = actual.per_block[name]
        assert (a.executions, a.divergent, a.line) == (
            b.executions, b.divergent, b.line
        ), name


def assert_arith_equal(expected, actual) -> None:
    assert (expected.lane_flops, expected.lane_intops) == (
        actual.lane_flops, actual.lane_intops
    )
    assert dict(expected.by_opcode) == dict(actual.by_opcode)
    assert dict(expected.by_line) == dict(actual.by_line)


def stack_counts(samples) -> Tuple[Counter, int]:
    """(finite distance -> reads, infinite reads) of raw samples."""
    finite = [d for d in samples if d >= 0]
    return Counter(finite), len(samples) - len(finite)
