"""The one trace drain: ``FusedSink`` feeds the bank and keeps rows.

Every launch's rows leave its buffers through one ``FusedSink``. Fused
analysis (the sink + the analyzer bank) must reproduce the per-record
reference analyses (``tests/analysis_oracle.py``) exactly, and the rows
the sink keeps must equal the reference trace after sampling and
capacity:

* **Property tests** (hypothesis) push random interleaved
  memory/block/arith event streams through the sink at tiny flush
  granularities (down to one row), and through per-partition banks
  merged in partition order, comparing every aggregate of the full
  plan against the oracle over the materialized trace -- and, with
  kept records switched on, every kept column (``seq`` and
  ``call_path_id`` included) against the oracle's sample/clip --
  across stride-sampling phases and keep-first capacity over flush
  boundaries.
* **App-level tests** run instrumented programs twice (fused vs
  kept records) on both backends and assert identical accounting, with the fused bank matching the
  oracle over the kept trace.
* **Launches that need raw records** (pc sampling) keep them as well
  as feeding the bank, without a degradation event.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregates import full_plan
from repro.analysis.cache_model import StackDistanceSummary, hit_rate_curve
from repro.analysis.reuse_distance import (
    ReuseDistanceModel,
    reuse_distance_analysis,
)
from repro.apps import build_app
from repro.errors import ProfilerError
from repro.frontend.dsl import compile_kernels
from repro.gpu.arch import KEPLER_K40C
from repro.gpu.device import Device
from repro.host.runtime import CudaRuntime
from repro.passes.pipeline import (
    instrumentation_pipeline,
    optimization_pipeline,
)
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
)
from repro.profiler.pc_sampling import PCSampler
from repro.profiler.profiler import HookRuntime
from repro.profiler.records import MemoryOp
from repro.profiler.session import ProfilingSession
from repro.profiler.streamdrain import FusedSink, StreamedRecords
from tests import analysis_oracle as oracle
from tests.conftest import KERNELS

WARP = 4
LINE_SIZE = 64
CAPACITIES = [4, 16, 64, 256]
PATHS = 3  # distinct call-path ids in the synthetic streams


# -- synthetic event streams ----------------------------------------------------

#: one event: (stream, cta, selector, flag) -- the selector picks
#: addresses/sites/opcodes, the flag picks write/divergent/is_float.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["mem", "block", "arith"]),
        st.integers(0, 3),
        st.integers(0, 7),
        st.booleans(),
    ),
    max_size=70,
)


def _append_event(event, seq, mem, block, arith):
    stream, cta, sel, flag = event
    path = (sel + cta) % PATHS
    if stream == "mem":
        # Strided addresses so warps touch 1..WARP distinct lines.
        stride = 2 * LINE_SIZE if flag else 8
        addrs = np.arange(WARP, dtype=np.int64) * stride + sel * 16
        mask = (
            np.ones(WARP, bool)
            if sel % 3
            else np.arange(WARP) % 2 == cta % 2
        )
        mem.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, addrs=addrs, mask=mask,
            bits=32, line=sel % 5, col=sel % 3,
            op=int(MemoryOp.LOAD if flag else MemoryOp.STORE),
            call_path_id=path,
        )
    elif stream == "block":
        block.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, name=f"b{sel % 4}",
            line=sel, col=0, active_lanes=(2 if flag else WARP),
            resident_lanes=WARP, call_path_id=path,
        )
    else:
        arith.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, opcode=f"op{sel % 3}",
            bits=32, is_float=flag, line=sel, col=0,
            active_lanes=1 + sel % WARP, call_path_id=path,
        )


def _build_buffers(events):
    """Standalone buffers holding ``events``."""
    mem = ColumnarMemoryBuffer()
    block = ColumnarBlockBuffer()
    arith = ColumnarArithBuffer()
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    return mem, block, arith


def _batch_profile(events):
    """The reference: the whole trace materialized in one window."""
    mem, block, arith = _build_buffers(events)
    return SimpleNamespace(
        memory_records=oracle.drained(mem),
        block_records=oracle.drained(block),
        arith_records=oracle.drained(arith),
    )


def _assert_bank_matches_oracle(bank, profile):
    """Every full-plan aggregate == the per-record oracle, byte for byte."""
    memory = profile.memory_records
    for name, model in (
        ("reuse_element", ReuseDistanceModel.ELEMENT),
        ("reuse_cache_line", ReuseDistanceModel.CACHE_LINE),
    ):
        oracle.assert_hist_equal(
            oracle.reuse_histogram(memory, model, LINE_SIZE),
            bank.result(name),
            name,
        )
        oracle.assert_sites_equal(
            oracle.site_reuse(memory, model, LINE_SIZE),
            bank.result(f"site_{name}"),
            name,
        )
    md = oracle.memory_divergence(memory, LINE_SIZE)
    assert dict(md.counts) == dict(bank.result("memory_divergence").counts)
    assert oracle.divergent_sites(memory, LINE_SIZE) == bank.result(
        "divergent_sites"
    )
    oracle.assert_branch_equal(
        oracle.branch_divergence(profile.block_records),
        bank.result("branch_divergence"),
    )
    oracle.assert_arith_equal(
        oracle.arithmetic(profile.arith_records), bank.result("arithmetic")
    )
    summary = bank.result("stack_distance")
    assert isinstance(summary, StackDistanceSummary)
    samples = oracle.stack_distance_samples(memory, LINE_SIZE)
    counts, infinite = oracle.stack_counts(samples)
    assert (dict(summary.counts), summary.infinite) == (dict(counts), infinite)
    batch_curve = hit_rate_curve(samples, CAPACITIES, LINE_SIZE)
    stream_curve = summary.curve(CAPACITIES)
    assert batch_curve.hit_rates == stream_curve.hit_rates  # float-identical
    assert batch_curve.reads == stream_curve.reads


APPS = [
    ("bfs", {"num_nodes": 128}),
    ("hotspot", {"n": 32, "steps": 2}),
]


def _assert_sessions_match(in_ram, fused):
    assert len(in_ram.profiles) == len(fused.profiles)
    for batch, stream in zip(in_ram.profiles, fused.profiles):
        assert stream.aggregates is not None
        assert isinstance(stream.memory_records, StreamedRecords)
        assert len(batch.memory_records) == len(stream.memory_records)
        assert len(batch.block_records) == len(stream.block_records)
        assert len(batch.arith_records) == len(stream.arith_records)
        assert batch.dropped_records == stream.dropped_records
        _assert_bank_matches_oracle(stream.aggregates, batch)



def _sink(flush_rows, rate=1, capacity=None, keep=False, bank=True):
    """Fresh buffers wired into a sink (and a full-plan bank)."""
    return FusedSink(
        full_plan(LINE_SIZE).create_bank() if bank else None,
        ColumnarMemoryBuffer(), ColumnarBlockBuffer(), ColumnarArithBuffer(),
        flush_rows, rate, capacity, keep,
    )


def _fused_buffers(events, flush_rows, rate=1, capacity=None, keep=False,
                   bank=True):
    """Feed ``events`` through a sink flushing every ``flush_rows``."""
    sink = _sink(flush_rows, rate, capacity, keep, bank)
    for seq, event in enumerate(events):
        _append_event(event, seq, sink.memory_buffer, sink.block_buffer,
                      sink.arith_buffer)
    sink.flush()
    return sink.bank, sink


def _batch_sampled(events, rate, capacity):
    """The reference after stride sampling and capacity clips."""
    batch = _batch_profile(events)
    m, a = oracle.stride_sample(
        batch.memory_records, batch.arith_records, rate
    )
    clipped = 0
    m, n = oracle.clip_to_capacity(m, capacity)
    clipped += n
    a, n = oracle.clip_to_capacity(a, capacity)
    clipped += n
    b, n = oracle.clip_to_capacity(batch.block_records, capacity)
    clipped += n
    return (
        SimpleNamespace(memory_records=m, block_records=b, arith_records=a),
        clipped,
    )


def _assert_sink_output(sink, kept, clipped, keep):
    """A finished sink == the reference: bank, counts and kept rows."""
    fields = sink.finish()
    _assert_bank_matches_oracle(fields["aggregates"], kept)
    assert fields["dropped_records"] == clipped
    for stream in ("memory", "block", "arith"):
        expected = getattr(kept, f"{stream}_records")
        actual = fields[f"{stream}_records"]
        assert len(actual) == len(expected)
        if keep:
            oracle.assert_columns_equal(expected, actual)
        else:
            assert isinstance(actual, StreamedRecords)


def _shards(events):
    """CTAs 0-1 on "shard 0", CTAs 2-3 on "shard 1" (SM order)."""
    return [
        [e for e in events if e[1] < 2],
        [e for e in events if e[1] >= 2],
    ]


class TestFusedSinkProperty:
    @settings(max_examples=30, deadline=None)
    @given(events=_EVENTS, flush_rows=st.integers(1, 17), keep=st.booleans())
    def test_full_plan_matches_batch_across_flush_sizes(
        self, events, flush_rows, keep
    ):
        _, sink = _fused_buffers(events, flush_rows, keep=keep)
        _assert_sink_output(sink, _batch_profile(events), 0, keep)

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        flush_rows=st.integers(1, 17),
        rate=st.sampled_from([2, 3, 5]),
        capacity=st.sampled_from([None, 3, 10]),
        keep=st.booleans(),
    )
    def test_stride_phases_and_capacity_across_flushes(
        self, events, flush_rows, rate, capacity, keep
    ):
        # The joint in-flight ranking of each flushed (memory, arith)
        # window must reproduce the *global* stride phase computed over
        # the whole merged stream at once.
        _, sink = _fused_buffers(events, flush_rows, rate, capacity, keep)
        kept, clipped = _batch_sampled(events, rate, capacity)
        _assert_sink_output(sink, kept, clipped, keep)
        assert sink.clipped == clipped
        assert sink.stats.memory_rows == len(kept.memory_records)
        assert sink.stats.arith_rows == len(kept.arith_records)
        assert sink.stats.block_rows == len(kept.block_records)

    @settings(max_examples=25, deadline=None)
    @given(events=_EVENTS, flush_rows=st.integers(1, 9))
    def test_shard_bank_merge_matches_concatenated_trace(
        self, events, flush_rows
    ):
        # Each shard fuses into its own bank (local seqs), the banks
        # merge in shard order, and the result must equal the oracle
        # over the shard-concatenated trace.
        shards = _shards(events)
        merged, _ = _fused_buffers(shards[0], flush_rows)
        merged.merge(_fused_buffers(shards[1], flush_rows)[0])
        _assert_bank_matches_oracle(
            merged, _batch_profile(shards[0] + shards[1])
        )


# -- app-level equivalence ------------------------------------------------------


def _session(app, fused=False, backend=None, sample_rate=1,
             capacity=None, flush_rows=65536, configure=None):
    app_name, app_kwargs = app
    program = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(program.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession(
        buffer_capacity=capacity,
        sample_rate=sample_rate,
        flush_rows=flush_rows,
        fused=full_plan(LINE_SIZE) if fused else None,
    )
    device = Device(KEPLER_K40C)
    if backend is not None:
        device.backend = backend
    if configure is not None:
        configure(device)
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = program.prepare(runtime)
    program.run(runtime, image, state)
    return session, device


class TestFusedApps:
    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_serial_never_spills(self, app):
        # Many mid-launch flushes (32 rows each): analysis in flight,
        # no trace written anywhere, same results as the kept records.
        in_ram, _ = _session(app)
        fused, _ = _session(app, fused=True, flush_rows=32)
        _assert_sessions_match(in_ram, fused)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_batched_backend(self, app):
        in_ram, _ = _session(app, backend="batched")
        fused, _ = _session(app, fused=True, backend="batched")
        _assert_sessions_match(in_ram, fused)

    def test_sampled_and_capped_serial(self):
        app = APPS[1]
        in_ram, _ = _session(app, sample_rate=2, capacity=40)
        fused, _ = _session(app, fused=True, sample_rate=2, capacity=40)
        _assert_sessions_match(in_ram, fused)


# -- the placeholder records ----------------------------------------------------


class TestStreamedRecords:
    def test_len_survives_access_raises(self):
        session, _ = _session(APPS[0], fused=True)
        profile = session.profiles[0]
        records = profile.memory_records
        assert isinstance(records, StreamedRecords)
        assert len(records) > 0
        assert "streamed" in repr(records)
        with pytest.raises(ProfilerError, match="in flight"):
            records[0]
        with pytest.raises(ProfilerError, match="in flight"):
            list(records)
        with pytest.raises(ProfilerError):
            profile.memory_records_by_cta()

    def test_reanalysis_error_names_the_records_option(self):
        # re-analyzing a fused profile points at the knob that keeps
        # the raw records
        session, _ = _session(APPS[0], fused=True)
        profile = session.profiles[0]
        with pytest.raises(ProfilerError,
                           match=r"CUDAAdvisor\(fused_drain=False\)"):
            reuse_distance_analysis(profile)
        with pytest.raises(ProfilerError, match="fused_drain=False"):
            profile.memory_records[0]

    def test_stream_stats_attached(self):
        session, _ = _session(APPS[0], fused=True, flush_rows=32)
        stats = session.profiles[0].stream_stats
        assert stats["segments_streamed"] >= 3
        total = (
            stats["memory_rows"] + stats["block_rows"] + stats["arith_rows"]
        )
        # O(segment) guarantee: never close to the full trace.
        assert 0 < stats["peak_resident_rows"] < total


# -- launches that need raw records --------------------------------------------


class TestKeptRecords:
    def _instrumented(self):
        module = compile_kernels([KERNELS["strided_sum"]], "m")
        optimization_pipeline().run(module)
        instrumentation_pipeline(["memory"]).run(module)
        return module

    def test_pc_sampling_keeps_records_and_bank(self):
        module = self._instrumented()
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        hooks = HookRuntime(img, "strided_sum", (), "x",
                            fused=full_plan(LINE_SIZE))
        sampler = PCSampler(period=16)
        data = np.arange(256, dtype=np.float32)
        dx = dev.malloc(data.nbytes)
        do = dev.malloc(4 * 64)
        dev.memcpy_htod(dx, data)
        dev.launch(img, "strided_sum", 1, 64, [dx, do, 256, 3],
                   hooks=hooks, pc_sampler=sampler)
        # The fused session stays fused: no degradation event, and the
        # profile carries both the raw records and the bank, which
        # matches the oracle over exactly those records.
        assert not dev.supervisor.events
        profile = hooks.profile
        assert profile.aggregates is not None
        assert not isinstance(profile.memory_records, StreamedRecords)
        assert len(profile.memory_records) > 0
        assert sampler.profile.total_samples > 0
        _assert_bank_matches_oracle(profile.aggregates, profile)
