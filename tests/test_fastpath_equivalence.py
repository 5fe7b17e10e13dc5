"""Fast-path equivalence: the columnar trace buffers and the
batched-warp backend must be invisible to every consumer.

Three properties are pinned here:

* **Columnar vs. record analyses** -- running the analyzers over the
  drained column views must give numerically identical results to the
  per-record reference analyses (``tests/analysis_oracle.py``) over the
  same trace materialized as classic records.
* **Batched vs. interpreter backend** -- with ``device.backend =
  "batched"``, drained traces, call-path registries, and hardware
  statistics must be byte-identical to an interpreter run.
* **Stride sampling** -- a ``sample_rate=k`` trace must be exactly
  every k-th record of the full memory+arith stream (same seqs, same
  bytes), whichever backend produced it and however often the trace
  buffers flush mid-launch.
* **Overlapped baseline** -- a ``CUDAAdvisor`` profile whose overhead
  baseline runs in a forked child, in parallel with the instrumented
  launches, must give the same traces and launch statistics as one
  that runs the baseline first, in-process.
"""

import numpy as np
import pytest

from repro.analysis.cache_model import profile_stack_distances
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
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import ProfilingSession
from repro.optim import CUDAAdvisor
from repro.optim import advisor as advisor_mod
from repro.profiler.buffers import MemoryColumns
from tests import analysis_oracle as oracle


APPS = [
    ("bfs", {"num_nodes": 128}),
    ("hotspot", {"n": 32, "steps": 2}),
    ("syrk", {"n": 24, "m": 24}),
]


def _profile_session(app_name, app_kwargs, backend=None, sample_rate=1,
                     flush_rows=None):
    app = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(app.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    flush = {} if flush_rows is None else {"flush_rows": flush_rows}
    session = ProfilingSession(sample_rate=sample_rate, **flush)
    device = Device(KEPLER_K40C)
    if backend is not None:
        device.backend = backend
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = app.prepare(runtime)
    app.run(runtime, image, state)
    return session


def _memory_record_equal(a, b):
    return (
        a.seq == b.seq
        and a.cta == b.cta
        and a.warp_in_cta == b.warp_in_cta
        and np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.mask, b.mask)
        and a.bits == b.bits
        and a.line == b.line
        and a.col == b.col
        and a.op == b.op
        and a.call_path_id == b.call_path_id
    )


@pytest.mark.parametrize("app_name,app_kwargs", APPS)
class TestColumnarVsRecordAnalyses:
    def test_reuse_histograms_identical(self, app_name, app_kwargs):
        for profile in _profile_session(app_name, app_kwargs).profiles:
            assert isinstance(profile.memory_records, MemoryColumns)
            records = list(profile.memory_records)
            for model in ReuseDistanceModel:
                oracle.assert_hist_equal(
                    oracle.reuse_histogram(records, model),
                    reuse_distance_analysis(profile, model=model),
                )
                oracle.assert_sites_equal(
                    oracle.site_reuse(records, model),
                    site_reuse_analysis(profile, model=model),
                )

    def test_divergence_distributions_identical(self, app_name, app_kwargs):
        for profile in _profile_session(app_name, app_kwargs).profiles:
            records = list(profile.memory_records)
            for line_size in (128, 32):
                fast = memory_divergence_analysis(profile, line_size)
                slow = oracle.memory_divergence(records, line_size)
                assert fast.distribution == slow.distribution
                assert fast.divergence_degree == slow.divergence_degree
                assert divergent_sites(profile, line_size) == (
                    oracle.divergent_sites(records, line_size)
                )

    def test_stack_distances_identical(self, app_name, app_kwargs):
        for profile in _profile_session(app_name, app_kwargs).profiles:
            summary = profile_stack_distances(profile)
            counts, infinite = oracle.stack_counts(
                oracle.stack_distance_samples(list(profile.memory_records))
            )
            assert (dict(summary.counts), summary.infinite) == (
                dict(counts), infinite
            )


def _assert_profiles_match(serial, other):
    assert len(serial) == len(other)
    for pa, pb in zip(serial, other):
        assert len(pa.memory_records) == len(pb.memory_records)
        assert all(
            _memory_record_equal(a, b)
            for a, b in zip(pa.memory_records, pb.memory_records)
        )
        assert list(pa.block_records) == list(pb.block_records)
        assert list(pa.arith_records) == list(pb.arith_records)
        assert len(pa.call_paths) == len(pb.call_paths)
        assert all(
            pa.call_paths.path(i) == pb.call_paths.path(i)
            for i in range(len(pa.call_paths))
        )
        assert pa.dropped_records == pb.dropped_records
        _assert_launch_match(pa.launch_result, pb.launch_result)


def _assert_launch_match(la, lb):
    assert la.kernel == lb.kernel
    assert la.cycles == lb.cycles
    assert la.instructions == lb.instructions
    assert la.transactions == lb.transactions
    assert la.branches == lb.branches
    assert la.divergent_branches == lb.divergent_branches
    assert la.cache == lb.cache


def _advisor_report(app_name, app_kwargs, monkeypatch, overlap,
                    backend=None):
    """A kept-records advisor profile with its overhead baseline run in
    a forked child beside the instrumented launches (``overlap``) or
    first, in this process. An overlapped run must really use the
    child: one is started and delivers its results."""
    delivered = []
    collect = advisor_mod._BaselineChild.collect

    def spy(child):
        result = collect(child)
        delivered.append(result is not None)
        return result

    monkeypatch.setattr(advisor_mod._BaselineChild, "collect", spy)
    monkeypatch.setattr(advisor_mod, "_overlap_available", lambda: overlap)
    advisor = CUDAAdvisor(
        modes=("memory", "blocks", "arith"), backend=backend,
        fused_drain=False,
    )
    report = advisor.profile(build_app(app_name, **app_kwargs))
    assert delivered == [True] * overlap
    return report


def _assert_reports_match(serial, other):
    _assert_profiles_match(serial.session.profiles, other.session.profiles)
    for results in ("baseline_results", "instrumented_results"):
        a, b = getattr(serial, results), getattr(other, results)
        assert a and len(a) == len(b)
        for la, lb in zip(a, b):
            _assert_launch_match(la, lb)
    def counts(overhead):  # wall times differ run to run
        return (overhead.baseline_cycles, overhead.instrumented_cycles,
                overhead.baseline_instructions,
                overhead.instrumented_instructions)

    assert counts(serial.overhead) == counts(other.overhead)


@pytest.mark.parametrize("app_name,app_kwargs", APPS)
def test_parallel_launch_matches_serial(app_name, app_kwargs, monkeypatch):
    """The baseline launches running in a child, in parallel with the
    instrumented ones, change no trace and no launch statistic."""
    serial = _advisor_report(app_name, app_kwargs, monkeypatch, False)
    parallel = _advisor_report(app_name, app_kwargs, monkeypatch, True)
    _assert_reports_match(serial, parallel)


@pytest.mark.parametrize("app_name,app_kwargs", APPS)
def test_batched_backend_matches_interpreter(app_name, app_kwargs):
    serial = _profile_session(app_name, app_kwargs).profiles
    batched = _profile_session(app_name, app_kwargs, backend="batched")
    _assert_profiles_match(serial, batched.profiles)


@pytest.mark.parametrize("app_name,app_kwargs", APPS)
def test_batched_parallel_matches_serial_interpreter(
    app_name, app_kwargs, monkeypatch
):
    serial = _advisor_report(app_name, app_kwargs, monkeypatch, False)
    combined = _advisor_report(
        app_name, app_kwargs, monkeypatch, True, backend="batched"
    )
    _assert_reports_match(serial, combined)


@pytest.mark.parametrize("rate", [2, 3, 5])
@pytest.mark.parametrize(
    "backend,flush_rows",
    [("interpreter", None), ("batched", None), ("interpreter", 4),
     ("batched", 4)],
)
def test_stride_sampling_is_exact_subset(rate, backend, flush_rows):
    """sample_rate=k keeps exactly every k-th event of the merged
    memory+arith stream of a full trace -- same seqs, same rows --
    regardless of backend, also when the buffers flush every few rows
    (the stride continues across flush windows), and block records are
    never sampled."""
    app_name, app_kwargs = APPS[0]
    full = _profile_session(app_name, app_kwargs).profiles
    sampled = _profile_session(
        app_name, app_kwargs, backend=backend, sample_rate=rate,
        flush_rows=flush_rows,
    ).profiles
    assert len(full) == len(sampled)
    for pf, ps in zip(full, sampled):
        merged = {}
        for record in pf.memory_records:
            merged[record.seq] = ("mem", record)
        for record in pf.arith_records:
            merged[record.seq] = ("arith", record)
        kept_seqs = sorted(merged)[::rate]
        expect_mem = [merged[s][1] for s in kept_seqs if merged[s][0] == "mem"]
        expect_arith = [
            merged[s][1] for s in kept_seqs if merged[s][0] == "arith"
        ]
        assert len(ps.memory_records) == len(expect_mem)
        assert all(
            _memory_record_equal(a, b)
            for a, b in zip(expect_mem, ps.memory_records)
        )
        assert list(ps.arith_records) == expect_arith
        assert list(ps.block_records) == list(pf.block_records)
