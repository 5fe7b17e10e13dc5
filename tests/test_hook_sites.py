"""Instrumented call sites: error paths and call-path attribution.

Every hook call an instrumentation pass inserts (``Record``,
``passBasicBlock``, ``RecordArith``, ``cupr.push``/``cupr.pop``) reaches
the launch's hook runtime. These tests pin what a broken call site or a
missing runtime raises, and that a device call's rows carry its call
path.
"""

import numpy as np
import pytest

from repro.config import BACKENDS
from repro.errors import ExecutionError, LaunchError, ProfilerError
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime
from repro.ir import I32, IRBuilder, Module, VOID, ptr
from repro.ir.types import AddressSpace, I8
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.passes.instrument_blocks import declare_block_hook
from repro.passes.instrument_memory import declare_record_hook
from repro.profiler import HookRuntime, ProfilingSession
from tests.conftest import KERNELS


def _launch(module, backend):
    """Load ``module`` and launch its kernel ``k`` (two CTAs of 64
    threads) with a hook runtime attached."""
    device = Device(KEPLER_K40C)
    device.backend = backend
    image = device.load_module(module)
    out = device.malloc(4 * 2 * 64)
    hooks = HookRuntime(image, "k", (), "t")
    device.launch(image, "k", 2, 64, [out], hooks=hooks)


def _kernel_module(emit_hook):
    """``kernel k(out*) { emit_hook(...); out[tid] = tid }``."""
    m = Module("hooks", target="nvptx")
    fn = m.add_function("k", VOID, [(ptr(I32), "out")], kind="kernel")
    b = IRBuilder.at_end(fn.add_block("entry"))
    tid = m.declare_function("nvvm.tid.x", I32, [], kind="intrinsic")
    lane = b.call(tid, [], "lane")
    emit_hook(m, fn, b)
    b.store(lane, b.gep(fn.args[0], lane))
    b.ret()
    return m


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_hook_raises_when_executed(backend):
    def emit(m, fn, b):
        mystery = m.declare_function("Mystery", VOID, [(I32, "x")],
                                     kind="hook")
        b.call(mystery, [b.i32(7)], "")

    with pytest.raises(ProfilerError) as err:
        _launch(_kernel_module(emit), backend)
    assert str(err.value) == "unknown hook @Mystery"


@pytest.mark.parametrize("backend", BACKENDS)
def test_undefined_record_address_register(backend):
    def emit(m, fn, b):
        # The address operand names another function's argument: it
        # has no definition in @k, so reading it is an undefined value.
        other = m.add_function(
            "elsewhere", VOID, [(ptr(I8, AddressSpace.GLOBAL), "stray")]
        )
        IRBuilder.at_end(other.add_block("entry")).ret()
        record = declare_record_hook(m)
        b.call(record, [other.args[0], b.i32(32), b.i32(3), b.i32(1),
                        b.i32(1)], "")

    with pytest.raises(ExecutionError) as err:
        _launch(_kernel_module(emit), backend)
    assert str(err.value) == "read of undefined value %stray in @k"


@pytest.mark.parametrize("backend", BACKENDS)
def test_instrumented_launch_without_hook_runtime(backend):
    module = compile_kernels([KERNELS["saxpy"]], "m")
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory"]).run(module)
    device = Device(KEPLER_K40C)
    device.backend = backend
    image = device.load_module(module)
    x = device.malloc(4 * 64)
    y = device.malloc(4 * 64)
    with pytest.raises(ExecutionError) as err:
        device.launch(image, "saxpy", 2, 32, [x, y, np.float32(2.0), 64])
    assert str(err.value) == (
        "instrumented code called hook @Record but no hook runtime was "
        "attached to the launch (pass hooks=... to Device.launch)"
    )


def test_non_constant_site_operand_fails_at_load():
    # A call-site operand (here passBasicBlock's line) must be an
    # immediate: the module is rejected when it is decoded.
    m = _kernel_module(lambda m, fn, b: None)
    fn = m.get_function("k")
    block = fn.entry
    lane = block.instructions[0]
    b = IRBuilder.before(block.instructions[1])
    b.call(declare_block_hook(m), [m.add_string("k:entry"), lane, b.i32(0)],
           "")
    with pytest.raises(LaunchError) as err:
        Device(KEPLER_K40C).load_module(m)
    assert str(err.value) == (
        "hook @passBasicBlock: operand 1 (%lane) is not a call-site constant"
    )


def test_device_call_rows_carry_their_call_path():
    """saxpy_clamped (a device call, so cupr.push/pop fire) with every
    instrumentation mode, at a block size that leaves a partial warp."""
    module = compile_kernels([KERNELS["saxpy_clamped"]], "m")
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession()
    runtime = CudaRuntime(Device(KEPLER_K40C), profiler=session)
    image = runtime.device.load_module(module)
    n = 150
    data = np.linspace(-3.0, 3.0, n, dtype=np.float32)
    d_in = runtime.cuda_malloc(data.nbytes, "in")
    d_out = runtime.cuda_malloc(data.nbytes, "out")
    runtime.cuda_memcpy_htod(d_in, data)
    runtime.launch_kernel(image, "saxpy_clamped", 2, 96,
                          [d_in, d_out, np.float32(2.5), n])
    profile = session.last_profile
    # The device call puts a second path next to the kernel root.
    assert len(profile.call_paths) >= 2
    seen = set()
    for stream in (profile.memory_records, profile.block_records,
                   profile.arith_records):
        assert len(stream.seq)
        seen.update(stream.call_path_id.tolist())
    assert seen == set(range(len(profile.call_paths)))
