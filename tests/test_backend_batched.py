"""The batched-warp backend must be invisible: byte-identical traces,
statistics, and memory to the per-warp interpreter, on every kernel
shape -- uniform, device-function calls, divergent (de-batch fallback),
barriers/shared/atomics, and partial warps -- plus loud degradation
when a requested fast path cannot be honoured."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.config import BACKENDS
from repro.errors import LaunchDegradedWarning, LaunchError
from repro.export import export_json, profile_export
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.gpu.vecops import _bank_conflict_degree, _bank_conflict_degrees
from repro.host import CudaRuntime
from repro.optim.advisor import CUDAAdvisor
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import ProfilingSession
from repro.profiler.pc_sampling import PCSampler
from tests.conftest import KERNELS

#: kernel -> (grid, block, launch-arg builder). Block sizes are chosen
#: to put several warps in a CTA (so batching engages) and to include a
#: partially-resident warp (block 48 -> 16 live lanes in warp 1).
LAUNCHES = {
    "saxpy": (4, 64, 200),
    "saxpy_clamped": (2, 96, 150),
    "strided_sum": (2, 64, 256),
    "block_reduce": (4, 64, 512),
    "divergent_kernel": (2, 64, 100),
}


def _run(kernel_name, backend, block=None, instrument=True):
    grid, default_block, n = LAUNCHES[kernel_name]
    block = block or default_block
    module = compile_kernels([KERNELS[kernel_name]], "m")
    optimization_pipeline().run(module)
    if instrument:
        instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession() if instrument else None
    device = Device(KEPLER_K40C)
    device.backend = backend
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)

    if kernel_name == "divergent_kernel":
        data = (np.arange(n, dtype=np.int32) * 7919) % 101
        out_host = np.zeros(n, dtype=np.int32)
    else:
        data = np.linspace(-3.0, 3.0, n, dtype=np.float32)
        out_host = np.zeros(n, dtype=np.float32)
    d_in = runtime.cuda_malloc(data.nbytes, "in")
    d_out = runtime.cuda_malloc(out_host.nbytes, "out")
    runtime.cuda_memcpy_htod(d_in, data)
    runtime.cuda_memcpy_htod(d_out, out_host)
    if kernel_name in ("saxpy", "saxpy_clamped"):
        args = [d_in, d_out, np.float32(2.5), n]
    else:
        args = [d_in, d_out, n] + ([3] if kernel_name == "strided_sum" else [])
    result = runtime.launch_kernel(image, kernel_name, grid, block, args)
    runtime.cuda_memcpy_dtoh(out_host, d_out)
    profile = session.last_profile if instrument else None
    return result, out_host, profile


def _assert_profiles_identical(pa, pb):
    ma, mb = pa.memory_records, pb.memory_records
    assert len(ma) == len(mb)
    assert np.array_equal(ma.seq, mb.seq)
    assert np.array_equal(ma.addresses, mb.addresses)
    assert np.array_equal(ma.mask, mb.mask)
    for field in ("cta", "warp_in_cta", "bits", "line", "col", "op",
                  "call_path_id"):
        assert np.array_equal(getattr(ma, field), getattr(mb, field))
    assert list(pa.block_records) == list(pb.block_records)
    assert list(pa.arith_records) == list(pb.arith_records)
    assert len(pa.call_paths) == len(pb.call_paths)
    assert all(
        pa.call_paths.path(i) == pb.call_paths.path(i)
        for i in range(len(pa.call_paths))
    )
    assert pa.dropped_records == pb.dropped_records


def _assert_results_identical(la, lb):
    assert la.cycles == lb.cycles
    assert la.instructions == lb.instructions
    assert la.transactions == lb.transactions
    assert la.branches == lb.branches
    assert la.divergent_branches == lb.divergent_branches
    assert la.cache == lb.cache


@pytest.mark.parametrize("kernel_name", sorted(LAUNCHES))
def test_batched_matches_interpreter(kernel_name):
    ra, oa, pa = _run(kernel_name, "interpreter")
    rb, ob, pb = _run(kernel_name, "batched")
    assert np.array_equal(oa, ob)
    _assert_results_identical(ra, rb)
    _assert_profiles_identical(pa, pb)


@pytest.mark.parametrize("kernel_name", ["saxpy", "block_reduce"])
def test_batched_partial_warp(kernel_name):
    """A block of 48 threads leaves warp 1 half-resident."""
    ra, oa, pa = _run(kernel_name, "interpreter", block=48)
    rb, ob, pb = _run(kernel_name, "batched", block=48)
    assert np.array_equal(oa, ob)
    _assert_results_identical(ra, rb)
    _assert_profiles_identical(pa, pb)


def test_batched_uninstrumented_numerics():
    for kernel_name in sorted(LAUNCHES):
        ra, oa, _ = _run(kernel_name, "interpreter", instrument=False)
        rb, ob, _ = _run(kernel_name, "batched", instrument=False)
        assert np.array_equal(oa, ob), kernel_name
        _assert_results_identical(ra, rb)


def test_unknown_backend_rejected():
    module = compile_kernels([KERNELS["saxpy"]], "m")
    optimization_pipeline().run(module)
    device = Device(KEPLER_K40C)
    device.backend = "warp-speed"
    runtime = CudaRuntime(device)
    image = device.load_module(module)
    d = runtime.cuda_malloc(4 * 32, "d")
    with pytest.raises(LaunchError, match="unknown execution backend"):
        runtime.launch_kernel(
            image, "saxpy", 1, 32, [d, d, np.float32(1.0), 32]
        )


def test_pc_sampling_degrades_batched_with_warning():
    module = compile_kernels([KERNELS["saxpy"]], "m")
    optimization_pipeline().run(module)
    device = Device(KEPLER_K40C)
    device.backend = "batched"
    runtime = CudaRuntime(device)
    image = device.load_module(module)
    d = runtime.cuda_malloc(4 * 64, "d")
    sampler = PCSampler(period=5)
    with pytest.warns(LaunchDegradedWarning, match="pc sampling"):
        device.launch(image, "saxpy", 2, 32, [d, d, np.float32(1.0), 64],
                      pc_sampler=sampler)


def test_no_warning_on_clean_launches():
    with warnings.catch_warnings():
        warnings.simplefilter("error", LaunchDegradedWarning)
        _run("saxpy", "batched")
        _run("divergent_kernel", "batched")  # de-batch is by design: quiet


def _numpy_bank_conflict_degree(addrs, mask):
    """The former two-``np.unique`` scalar formula, kept as a reference."""
    if not mask.any():
        return 1
    unique_words = np.unique(addrs[mask] // 4)
    if len(unique_words) <= 1:
        return 1
    _, counts = np.unique(unique_words % 32, return_counts=True)
    return int(counts.max())


_LANES = st.lists(st.integers(-4096, 4096), min_size=32, max_size=32)
_MASKS = st.one_of(
    st.just([False] * 32),
    st.lists(st.booleans(), min_size=32, max_size=32),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_LANES, _MASKS), min_size=1, max_size=6))
def test_bank_conflict_degree_matches_batched_and_reference(rows):
    """The scalar degree (interpreter) equals the batched backend's
    per-row degrees and the numpy reference, negative words included."""
    addrs = np.array([a for a, _ in rows], dtype=np.int64)
    masks = np.array([m for _, m in rows], dtype=bool)
    batched = _bank_conflict_degrees(addrs, masks)
    for row in range(len(rows)):
        degree = _bank_conflict_degree(addrs[row], masks[row])
        assert degree == batched[row]
        assert degree == _numpy_bank_conflict_degree(addrs[row], masks[row])


def test_staging_after_fallback_limit_skips_batching():
    """lavaMD has 8 CTAs and this device 4 resident slots: the first 4
    CTAs' machines all fall back, so the 4 staged at refills come after
    the per-kernel count has passed the limit and run unbatched."""
    arch = replace(KEPLER_K40C, num_sms=2, max_ctas_per_sm=2)
    reports = {
        backend: CUDAAdvisor(
            arch=arch, backend=backend, measure_overhead=False,
            modes=("memory", "blocks", "arith"),
        ).profile(build_app("lavaMD", boxes1d=2, par_per_box=16))
        for backend in BACKENDS
    }
    device = reports["batched"].session.runtime.device
    assert device._batch_fallbacks == {"lavamd_kernel": 4}
    batched = profile_export(reports["batched"])
    del batched["jit_cache"]
    assert export_json(batched) == export_json(
        profile_export(reports["interpreter"])
    )
