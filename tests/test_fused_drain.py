"""Fused in-flight analysis: byte-identity without the trace round-trip.

The fused path (``FusedSink`` + the analyzer bank) must reproduce the
batch analyzers exactly while never materializing or spilling a trace:

* **Property tests** (hypothesis) push random interleaved
  memory/block/arith event streams through fused buffers at tiny flush
  granularities (down to one row), through per-shard banks merged in
  shard order, and through shard relays, comparing every aggregate of
  the full plan against the batch analyzers -- including
  stride-sampling phases and keep-first capacity across flush and
  shard boundaries.
* **App-level tests** run instrumented programs twice (fused vs
  in-RAM) across serial / batched / fork-parallel configurations and
  assert identical analyses and accounting -- and that the fused spill
  directory stays empty.
* **Degradation**: a launch that needs raw records (pc sampling)
  disables fused mode with a ``fused-records-unavailable`` warning and
  materializes the trace like a classic run.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregates import full_plan
from repro.analysis.arithmetic import arithmetic_analysis
from repro.analysis.cache_model import (
    StackDistanceSummary,
    hit_rate_curve,
    profile_stack_distances,
)
from repro.analysis.divergence_branch import branch_divergence_analysis
from repro.analysis.divergence_memory import (
    divergent_sites,
    memory_divergence_analysis,
)
from repro.analysis.reuse_distance import (
    ReuseDistanceModel,
    reuse_distance_analysis,
    site_reuse_analysis,
)
from repro.apps import build_app
from repro.errors import LaunchDegradedWarning, ProfilerError
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
    clip_to_capacity,
    stride_sample,
)
from repro.profiler.pc_sampling import PCSampler
from repro.profiler.profiler import HookRuntime
from repro.profiler.session import ProfilingSession
from repro.profiler.streamdrain import FusedSink, StreamedRecords
from repro.reliability.faultinject import FaultInjector
from repro.reliability.supervisor import FUSED_RECORDS_UNAVAILABLE
from tests.conftest import KERNELS

WARP = 4
LINE_SIZE = 64
CAPACITIES = [4, 16, 64, 256]


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
            op=1 if flag else 0, call_path_id=0,
        )
    elif stream == "block":
        block.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, name=f"b{sel % 4}",
            line=sel, col=0, active_lanes=(2 if flag else WARP),
            resident_lanes=WARP, call_path_id=0,
        )
    else:
        arith.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, opcode=f"op{sel % 3}",
            bits=32, is_float=flag, line=sel, col=0,
            active_lanes=1 + sel % WARP, call_path_id=0,
        )


def _build_buffers(events):
    mem = ColumnarMemoryBuffer()
    block = ColumnarBlockBuffer()
    arith = ColumnarArithBuffer()
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    return mem, block, arith


def _batch_profile(events):
    """The in-RAM reference: the materialized columns."""
    mem, block, arith = _build_buffers(events)
    return SimpleNamespace(
        memory_records=mem.drain(),
        block_records=block.drain(),
        arith_records=arith.drain(),
    )


def _assert_hist_equal(a, b, what=""):
    assert a.frequencies == b.frequencies, what
    assert (a.samples, a.infinite, a.finite_sum, a.finite_count) == (
        b.samples, b.infinite, b.finite_sum, b.finite_count
    ), what


def _assert_bank_matches_batch(bank, profile):
    """Every full-plan aggregate == its batch analyzer, byte for byte."""
    for name, model in (
        ("reuse_element", ReuseDistanceModel.ELEMENT),
        ("reuse_cache_line", ReuseDistanceModel.CACHE_LINE),
    ):
        _assert_hist_equal(
            reuse_distance_analysis(profile, model, LINE_SIZE),
            bank.result(name),
            name,
        )
        sites = site_reuse_analysis(profile, model, LINE_SIZE)
        streamed = bank.result(f"site_{name}")
        assert list(sites.keys()) == list(streamed.keys())  # dict ORDER too
        for key in sites:
            _assert_hist_equal(sites[key], streamed[key], f"site {key}")
    md = memory_divergence_analysis(profile, LINE_SIZE)
    assert dict(md.counts) == dict(bank.result("memory_divergence").counts)
    assert divergent_sites(profile, LINE_SIZE) == bank.result(
        "divergent_sites"
    )
    bd = branch_divergence_analysis(profile)
    sd = bank.result("branch_divergence")
    assert (bd.total_blocks, bd.divergent_blocks) == (
        sd.total_blocks, sd.divergent_blocks
    )
    assert list(bd.per_block.keys()) == list(sd.per_block.keys())
    for name in bd.per_block:
        a, b = bd.per_block[name], sd.per_block[name]
        assert (a.executions, a.divergent, a.line) == (
            b.executions, b.divergent, b.line
        )
    ar = arithmetic_analysis(profile)
    sr = bank.result("arithmetic")
    assert (ar.lane_flops, ar.lane_intops) == (sr.lane_flops, sr.lane_intops)
    assert dict(ar.by_opcode) == dict(sr.by_opcode)
    assert dict(ar.by_line) == dict(sr.by_line)
    summary = bank.result("stack_distance")
    assert isinstance(summary, StackDistanceSummary)
    batch_curve = hit_rate_curve(
        profile_stack_distances(profile, LINE_SIZE), CAPACITIES, LINE_SIZE
    )
    stream_curve = hit_rate_curve(summary, CAPACITIES, LINE_SIZE)
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
        assert batch.corrupt_records == stream.corrupt_records
        _assert_bank_matches_batch(stream.aggregates, batch)



def _fused_buffers(events, flush_rows, rate=1, capacity=None):
    """Spill-free buffers wired into a fused bank at ``flush_rows``."""
    mem = ColumnarMemoryBuffer()
    block = ColumnarBlockBuffer()
    arith = ColumnarArithBuffer()
    bank = full_plan(LINE_SIZE).create_bank()
    sink = FusedSink(bank, mem, block, arith, flush_rows, rate, capacity)
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    sink.flush()
    return bank, sink


def _batch_sampled(events, rate, capacity):
    """The in-RAM reference after stride sampling and capacity clips."""
    batch = _batch_profile(events)
    m, a = stride_sample(batch.memory_records, batch.arith_records, rate)
    clipped = 0
    m, n = clip_to_capacity(m, capacity)
    clipped += n
    a, n = clip_to_capacity(a, capacity)
    clipped += n
    b, n = clip_to_capacity(batch.block_records, capacity)
    clipped += n
    return (
        SimpleNamespace(memory_records=m, block_records=b, arith_records=a),
        clipped,
    )


def _shards(events):
    """CTAs 0-1 on "shard 0", CTAs 2-3 on "shard 1" (SM order)."""
    return [
        [e for e in events if e[1] < 2],
        [e for e in events if e[1] >= 2],
    ]


class TestFusedSinkProperty:
    @settings(max_examples=30, deadline=None)
    @given(events=_EVENTS, flush_rows=st.integers(1, 17))
    def test_full_plan_matches_batch_across_flush_sizes(
        self, events, flush_rows
    ):
        bank, _ = _fused_buffers(events, flush_rows)
        _assert_bank_matches_batch(bank, _batch_profile(events))

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        flush_rows=st.integers(1, 13),
        rate=st.sampled_from([2, 3, 5]),
        capacity=st.sampled_from([None, 3, 10]),
    )
    def test_stride_phases_and_capacity_across_flushes(
        self, events, flush_rows, rate, capacity
    ):
        # The joint in-flight ranking of each flushed (memory, arith)
        # window must reproduce the *global* stride phase the batch
        # path computes over the whole merged stream at once.
        bank, sink = _fused_buffers(events, flush_rows, rate, capacity)
        kept, clipped = _batch_sampled(events, rate, capacity)
        _assert_bank_matches_batch(bank, kept)
        assert sink.clipped == clipped
        assert sink.stats.memory_rows == len(kept.memory_records)
        assert sink.stats.arith_rows == len(kept.arith_records)
        assert sink.stats.block_rows == len(kept.block_records)

    @settings(max_examples=25, deadline=None)
    @given(events=_EVENTS, flush_rows=st.integers(1, 9))
    def test_shard_bank_merge_matches_concatenated_trace(
        self, events, flush_rows
    ):
        # Each shard fuses into its own bank (local seqs, like
        # reset_for_shard), the banks merge in shard order, and the
        # result must equal the batch analyzers over the
        # shard-concatenated trace -- what absorb_shards builds in the
        # in-RAM path.
        shards = _shards(events)
        merged, _ = _fused_buffers(shards[0], flush_rows)
        merged.merge(_fused_buffers(shards[1], flush_rows)[0])
        _assert_bank_matches_batch(
            merged, _batch_profile(shards[0] + shards[1])
        )

    @settings(max_examples=25, deadline=None)
    @given(
        events=_EVENTS,
        rate=st.sampled_from([1, 2, 3]),
        capacity=st.sampled_from([None, 3, 10]),
    )
    def test_shard_relay_continues_stride_and_capacity(
        self, events, rate, capacity
    ):
        # Sampled or capped shards materialize their rows (local seqs)
        # and the parent relays them in shard order: the running stride
        # rank and keep-first cursors must carry across shard
        # boundaries exactly as over the concatenated trace.
        shards = _shards(events)
        bank = full_plan(LINE_SIZE).create_bank()
        sink = FusedSink(
            bank, ColumnarMemoryBuffer(), ColumnarBlockBuffer(),
            ColumnarArithBuffer(), 8, rate, capacity,
        )
        for shard in shards:
            mem, block, arith = _build_buffers(shard)
            sink.relay({
                "memory": mem.detach_rows(),
                "block": block.detach_rows(),
                "arith": arith.detach_rows(),
            })
        sink.flush()
        kept, clipped = _batch_sampled(shards[0] + shards[1], rate, capacity)
        _assert_bank_matches_batch(bank, kept)
        assert sink.clipped == clipped


# -- app-level equivalence ------------------------------------------------------


def _session(app, fused=False, workers=None, backend=None, sample_rate=1,
             capacity=None, spill_dir=None, spill_rows=64, configure=None):
    app_name, app_kwargs = app
    program = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(program.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession(
        buffer_capacity=capacity,
        sample_rate=sample_rate,
        spill_dir=spill_dir,
        spill_rows=spill_rows,
        fused=full_plan(LINE_SIZE) if fused else None,
    )
    device = Device(KEPLER_K40C)
    if workers is not None:
        device.parallel_workers = workers
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
    def test_serial_never_spills(self, app, tmp_path):
        in_ram, _ = _session(app)
        fused, _ = _session(
            app, fused=True, spill_dir=str(tmp_path), spill_rows=32
        )
        _assert_sessions_match(in_ram, fused)
        # The whole point: analysis in flight, zero trace I/O -- even
        # with a spill config, which only sets the flush granularity.
        assert not os.path.exists(tmp_path) or not os.listdir(tmp_path)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_batched_backend(self, app):
        in_ram, _ = _session(app, backend="batched")
        fused, _ = _session(app, fused=True, backend="batched")
        _assert_sessions_match(in_ram, fused)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_fork_parallel_bank_ship(self, app):
        # No sampling/capacity: each shard runs its own fused bank and
        # ships it; the parent merges bank-to-bank in SM order.
        in_ram, _ = _session(app, workers=4)
        fused, _ = _session(app, fused=True, workers=4)
        _assert_sessions_match(in_ram, fused)

    def test_fork_parallel_sampled_relays(self):
        # Sampling needs the global stride phase, so shards fall back
        # to relaying their rows for the parent's running cursors.
        app = APPS[0]
        in_ram, _ = _session(app, workers=4, sample_rate=3)
        fused, _ = _session(app, fused=True, workers=4, sample_rate=3)
        _assert_sessions_match(in_ram, fused)

    def test_fork_parallel_capacity_relays(self):
        app = APPS[1]
        in_ram, _ = _session(app, workers=4, capacity=60)
        fused, _ = _session(app, fused=True, workers=4, capacity=60)
        _assert_sessions_match(in_ram, fused)

    def test_sampled_and_capped_serial(self):
        app = APPS[1]
        in_ram, _ = _session(app, sample_rate=2, capacity=40)
        fused, _ = _session(app, fused=True, sample_rate=2, capacity=40)
        _assert_sessions_match(in_ram, fused)

    def test_corrupt_spill_fault_has_nothing_to_corrupt(self):
        # The buffer_overflow injection shrinks the flush size, but a
        # fused launch never writes a segment, so corrupt_spill never
        # fires: no degradation, no lost rows.
        def corrupting(device):
            device.fault_injector = (
                FaultInjector()
                .inject("buffer_overflow", segment_rows=128)
                .inject("corrupt_spill", when={"kind": "memory"})
            )

        in_ram, _ = _session(APPS[1])
        fused, device = _session(APPS[1], fused=True, configure=corrupting)
        _assert_sessions_match(in_ram, fused)
        assert not device.supervisor.events
        assert sum(p.corrupt_records for p in fused.profiles) == 0


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

    def test_stream_stats_attached(self, tmp_path):
        session, _ = _session(
            APPS[0], fused=True, spill_dir=str(tmp_path), spill_rows=32
        )
        stats = session.profiles[0].stream_stats
        assert stats["segments_streamed"] >= 3
        total = (
            stats["memory_rows"] + stats["block_rows"] + stats["arith_rows"]
        )
        # O(segment) guarantee: never close to the full trace.
        assert 0 < stats["peak_resident_rows"] < total


# -- degradation: launches that need raw records --------------------------------


class TestFusedDegradation:
    def _instrumented(self):
        module = compile_kernels([KERNELS["strided_sum"]], "m")
        optimization_pipeline().run(module)
        instrumentation_pipeline(["memory"]).run(module)
        return module

    def test_pc_sampling_disables_fused(self):
        module = self._instrumented()
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        hooks = HookRuntime(img, "strided_sum", (), "x",
                            fused=full_plan(LINE_SIZE))
        assert hooks.fused
        sampler = PCSampler(period=16)
        data = np.arange(256, dtype=np.float32)
        dx = dev.malloc(data.nbytes)
        do = dev.malloc(4 * 64)
        dev.memcpy_htod(dx, data)
        with pytest.warns(LaunchDegradedWarning, match="pc sampling"):
            dev.launch(img, "strided_sum", 1, 64, [dx, do, 256, 3],
                       hooks=hooks, pc_sampler=sampler)
        # The launch materialized a classic trace: real records, no
        # fused bank, and the sampler got its PCs.
        assert not hooks.fused
        assert hooks.profile.aggregates is None
        assert len(hooks.profile.memory_records) > 0
        assert sampler.profile.total_samples > 0
        events = dev.supervisor.events_for(FUSED_RECORDS_UNAVAILABLE)
        assert len(events) == 1
