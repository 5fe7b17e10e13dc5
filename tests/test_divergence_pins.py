"""Pins of the interpreter on divergent control flow, barriers and staging.

A fixed table of launches covers nested if/else chains, per-lane loop
trip counts, partial warps, forty single-warp CTAs, device calls,
shared-memory reductions with atomics, and a lavaMD launch on a 2-SM
device whose later CTAs are staged in as earlier ones retire. For every
launch the output bytes, simulated cycles and instructions, the
instrumented trace columns and the L1 ``CacheStats`` are literals
recorded on the interpreter, so any change to reconvergence, warp
scheduling, staging, timing or hook emission shows up here. The exact
texts of a barrier only part of a warp reaches and of a divergent
out-of-range store are pinned too.

Inputs are seeded, so every launch is the same on every run.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.apps import build_app
from repro.errors import (
    ExecutionError,
    LaunchDegradedWarning,
    LaunchError,
    MemoryError_,
)
from repro.export import export_json, profile_export
from repro.frontend import compile_kernels, i32, kernel, ptr_i32
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime
from repro.optim.advisor import CUDAAdvisor
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import ProfilingSession
from tests.conftest import KERNELS

# The trace digests include these kernels' source lines: an edit above
# this comment that moves them changes every instrumented pin.


@kernel
def k_nested_ifelse(data: ptr_i32, out: ptr_i32, n: i32):
    gid = ctaid_x * ntid_x + tid_x
    if gid < n:
        v = data[gid]
        acc = 0
        if v % 4 == 0:
            if v % 8 == 0:
                acc = v * 3
            else:
                acc = v + 7
        else:
            if v % 2 == 0:
                acc = v - 9
            else:
                if v % 3 == 0:
                    acc = -v
                else:
                    acc = v * v
        out[gid] = acc


@kernel
def k_lane_loops(data: ptr_i32, out: ptr_i32, n: i32):
    gid = ctaid_x * ntid_x + tid_x
    if gid < n:
        v = data[gid]
        acc = 0
        i = 0
        while i < v % 11:  # per-lane trip count: lanes retire one by one
            if i % 3 == 0:
                j = 0
                while j < i % 5:  # nested, also per-lane
                    acc += j
                    j += 1
            else:
                acc -= i
            i += 1
        out[gid] = acc


@kernel
def k_gated_barrier(out: ptr_i32, k: i32):
    t = tid_x
    if t < k:
        syncthreads()
    out[t] = t


@kernel
def k_divergent_oob(data: ptr_i32, out: ptr_i32, n: i32):
    gid = ctaid_x * ntid_x + tid_x
    if gid % 3 == 1:
        out[gid * 64] = data[gid]  # lanes past n // 64 run off the end


_DSL = {k.name: k for k in (k_nested_ifelse, k_lane_loops, k_gated_barrier,
                            k_divergent_oob)}


def _compile(name, instrument):
    module = compile_kernels([_DSL.get(name) or KERNELS[name]], "m")
    optimization_pipeline().run(module)
    if instrument:
        instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    return module


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _trace_digest(profile) -> str:
    """One digest over every trace column and the call-path table."""
    h = hashlib.sha256()
    for stream in ("memory_records", "block_records", "arith_records"):
        records = getattr(profile, stream)
        for name in records.__slots__:
            col = getattr(records, name)
            h.update(f"{stream}.{name}:".encode())
            if isinstance(col, list):
                h.update(repr(col).encode())
            else:
                h.update(col.dtype.str.encode() + col.tobytes())
    for i in range(len(profile.call_paths)):
        h.update(repr(profile.call_paths.path(i)).encode())
    h.update(str(profile.dropped_records).encode())
    return h.hexdigest()[:16]


def _inputs(name, n):
    rng = np.random.default_rng(n)
    if name == "k_nested_ifelse":
        return rng.integers(-1000, 1001, n).astype(np.int32)
    if name in ("k_lane_loops", "divergent_kernel"):
        return rng.integers(0, 1001, n).astype(np.int32)
    return np.linspace(-3.0, 3.0, n, dtype=np.float32)


def _launch(name, grid, block, n, instrument=True):
    """Launch one table kernel; returns (result, output digest, trace
    digest or None)."""
    data = _inputs(name, n)
    session = ProfilingSession() if instrument else None
    device = Device(KEPLER_K40C)
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(_compile(name, instrument))
    out_host = np.zeros(n, dtype=data.dtype)
    d_in = runtime.cuda_malloc(data.nbytes, "in")
    d_out = runtime.cuda_malloc(out_host.nbytes, "out")
    runtime.cuda_memcpy_htod(d_in, data)
    runtime.cuda_memcpy_htod(d_out, out_host)
    if name in ("saxpy", "saxpy_clamped"):
        args = [d_in, d_out, np.float32(2.5), n]
    else:
        args = [d_in, d_out, n] + ([3] if name == "strided_sum" else [])
    result = runtime.launch_kernel(image, name, grid, block, args)
    runtime.cuda_memcpy_dtoh(out_host, d_out)
    trace = _trace_digest(session.last_profile) if instrument else None
    return result, _digest(out_host.tobytes()), trace


#: case -> (kernel, grid, block, n, instrumented)
LAUNCHES = {
    "nested_ifelse": ("k_nested_ifelse", 2, 64, 120, True),
    "lane_loops": ("k_lane_loops", 2, 64, 120, True),
    "lane_loops_partial_warp": ("k_lane_loops", 2, 48, 90, True),
    "nested_ifelse_single_warp_ctas": ("k_nested_ifelse", 40, 16, 600, True),
    "saxpy": ("saxpy", 4, 64, 200, True),
    "saxpy_partial_warp": ("saxpy", 4, 48, 200, True),
    "saxpy_clamped": ("saxpy_clamped", 2, 96, 150, True),
    "strided_sum": ("strided_sum", 2, 64, 256, True),
    "block_reduce": ("block_reduce", 4, 64, 512, True),
    "block_reduce_partial_warp": ("block_reduce", 4, 48, 512, True),
    "divergent_kernel": ("divergent_kernel", 2, 64, 100, True),
    "saxpy_plain": ("saxpy", 4, 64, 200, False),
    "saxpy_clamped_plain": ("saxpy_clamped", 2, 96, 150, False),
    "strided_sum_plain": ("strided_sum", 2, 64, 256, False),
    "block_reduce_plain": ("block_reduce", 4, 64, 512, False),
    "divergent_kernel_plain": ("divergent_kernel", 2, 64, 100, False),
}


def test_no_warning_on_clean_launches():
    with warnings.catch_warnings():
        warnings.simplefilter("error", LaunchDegradedWarning)
        _launch("saxpy", 4, 64, 200)
        _launch("divergent_kernel", 2, 64, 100)


def test_unknown_backend_rejected():
    device = Device(KEPLER_K40C)
    device.backend = "warp-speed"
    image = device.load_module(_compile("saxpy", False))
    d = device.malloc(4 * 32)
    with pytest.raises(LaunchError, match="unknown execution backend"):
        device.launch(image, "saxpy", 1, 32, [d, d, np.float32(1.0), 32])


#: case -> (output digest, cycles, instructions, trace digest,
#: (read_hits, read_misses, write_hits, write_misses, bypassed, evictions))
PINS = {
    'block_reduce':
        ('e5a00aa9991ac8a5', 51582.0, 1256, '0ec31ded36d0d8fd',
         (0, 16, 0, 0, 4, 0)),
    'block_reduce_partial_warp':
        ('e6c3b9cefb258bea', 40479.368421052626, 1193, '5a6272f4d576da0b',
         (5, 21, 0, 0, 4, 0)),
    'block_reduce_plain':
        ('e5a00aa9991ac8a5', 765.0, 804, None,
         (0, 16, 0, 0, 4, 0)),
    'divergent_kernel':
        ('bdf2c0bff1a5fa15', 24534.0, 345, '4cca2d1c0e8af661',
         (0, 4, 0, 11, 0, 0)),
    'divergent_kernel_plain':
        ('bdf2c0bff1a5fa15', 900.0, 190, None,
         (0, 4, 0, 11, 0, 0)),
    'lane_loops':
        ('176e005d3f98905a', 92458.0, 1524, 'a87cefa2f83e9922',
         (0, 4, 0, 36, 0, 0)),
    'lane_loops_partial_warp':
        ('1b39173b43dbc289', 63138.0, 1417, '120c9eafe9e8b3a6',
         (1, 4, 0, 39, 0, 0)),
    'nested_ifelse':
        ('099bfcae71ebc0cb', 17608.0, 272, '64ee5de0ab818042',
         (0, 4, 0, 4, 0, 0)),
    'nested_ifelse_single_warp_ctas':
        ('13a323f8cf7d5dc9', 14723.142857142859, 2550, '04c3d7f1878973be',
         (0, 38, 0, 38, 0, 0)),
    'saxpy':
        ('1c15b533006d8ee2', 11211.57894736842, 222, '3e12ae37f4f2779f',
         (0, 14, 7, 0, 0, 0)),
    'saxpy_clamped':
        ('d8404b3d14f8b1fc', 24682.285714285717, 217, 'd4ec23b03bb344aa',
         (0, 10, 5, 0, 0, 0)),
    'saxpy_clamped_plain':
        ('d8404b3d14f8b1fc', 508.2857142857144, 123, None,
         (0, 10, 5, 0, 0, 0)),
    'saxpy_partial_warp':
        ('ac89f2cca982fe14', 8783.157894736843, 240, '6d285757c6e938f7',
         (4, 16, 8, 2, 0, 0)),
    'saxpy_plain':
        ('1c15b533006d8ee2', 465.57894736842104, 127, None,
         (0, 14, 7, 0, 0, 0)),
    'strided_sum':
        ('4e6f5550b3a05266', 23687.15789473684, 224, '5c278c8ecec482a3',
         (8, 16, 0, 4, 0, 0)),
    'strided_sum_plain':
        ('4e6f5550b3a05266', 1127.157894736842, 128, None,
         (8, 16, 0, 4, 0, 0)),
}


@pytest.mark.parametrize("case", sorted(LAUNCHES))
def test_launch_pins(case):
    name, grid, block, n, instrument = LAUNCHES[case]
    result, out, trace = _launch(name, grid, block, n, instrument)
    got = (out, result.cycles, result.instructions, trace,
           astuple(result.cache))
    assert got == PINS[case]


def _launch_barrier(k, block=64):
    device = Device(KEPLER_K40C)
    runtime = CudaRuntime(device)
    image = device.load_module(_compile("k_gated_barrier", False))
    d_out = runtime.cuda_malloc(4 * block, "out")
    result = runtime.launch_kernel(image, "k_gated_barrier", 1, block,
                                   [d_out, int(k)])
    out = runtime.cuda_memcpy_dtoh(np.zeros(block, np.int32), d_out)
    return result, out


#: the one diagnostic of a barrier that only part of a warp reaches
BARRIER_TEXT = (
    "__syncthreads() reached under divergent control flow in "
    "@k_gated_barrier (undefined in CUDA)"
)


@pytest.mark.parametrize("k", [1, 5, 31, 33, 47, 63])
def test_gated_barrier_text(k):
    with pytest.raises(ExecutionError) as err:
        _launch_barrier(k)
    assert str(err.value) == BARRIER_TEXT


#: k -> (cycles, instructions)
UNIFORM_BARRIER_PINS = {32: (214.0, 13), 64: (216.0, 14)}


@pytest.mark.parametrize("k", [32, 64])
def test_warp_uniform_barrier(k):
    """Gating whole warps (k = 32) and no gating (k = 64) are legal."""
    result, out = _launch_barrier(k)
    assert np.array_equal(out, np.arange(64, dtype=np.int32))
    assert (result.cycles, result.instructions) == UNIFORM_BARRIER_PINS[k]


FAULT_TEXT = (
    "global memory access at 0x3100 beyond the last allocation "
    "(heap ends at 0x1390)"
)


def test_divergent_fault_text():
    with pytest.raises(MemoryError_) as err:
        _launch("k_divergent_oob", 2, 64, 100, instrument=False)
    assert str(err.value) == FAULT_TEXT


#: per launch: (cycles, instructions, trace digest, cache stats); then
#: the digests of device memory and of the canonical export
STAGING_PINS = (
    [(6675157.698630177, 106368, "684ae9aab8865508", (876, 564, 512, 0, 0, 0))],
    "2a2195e31edaef19",
    "2cbb8dc4bb68d1f7",
)


def test_two_sm_staging_launch():
    """lavaMD has 8 CTAs and this device 4 resident slots: the last 4
    CTAs are staged in as the first ones retire."""
    arch = replace(KEPLER_K40C, num_sms=2, max_ctas_per_sm=2)
    report = CUDAAdvisor(
        arch=arch, measure_overhead=False, fused_drain=False,
        modes=("memory", "blocks", "arith"),
    ).profile(build_app("lavaMD", boxes1d=2, par_per_box=16))
    launches = [
        (r.cycles, r.instructions, _trace_digest(p), astuple(r.cache))
        for r, p in zip(report.instrumented_results, report.session.profiles)
    ]
    memory = report.session.runtime.device.memory
    got = (launches, _digest(memory._buf.tobytes()),
           _digest(export_json(profile_export(report)).encode()))
    assert got == STAGING_PINS
