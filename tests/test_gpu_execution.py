"""Tests for the SIMT engine: divergence, reconvergence, barriers,
partial warps, atomics, launch plumbing and failure modes."""

import numpy as np
import pytest

from repro.config import BACKENDS
from repro.errors import ExecutionError, LaunchError
from repro.frontend import (
    compile_kernels,
    device,
    f32,
    i32,
    kernel,
    ptr_f32,
    ptr_i32,
)
from repro.gpu import Device, KEPLER_K40C, PASCAL_P100
from repro.passes import optimization_pipeline
from tests.conftest import KERNELS


def _run(k, grid, block, builders, optimize=False, arch=KEPLER_K40C):
    module = compile_kernels([k], k.name)
    if optimize:
        optimization_pipeline().run(module)
    dev = Device(arch)
    img = dev.load_module(module)
    args = builders(dev)
    result = dev.launch(img, k.name, grid, block, args)
    return dev, args, result


@kernel
def k_divergent_sum(out: ptr_i32, n: i32):
    t = ctaid_x * ntid_x + tid_x
    v = 0
    if t % 2 == 0:
        v = t * 10
    else:
        if t % 3 == 0:
            v = t * 100
        else:
            v = t
    out[t] = v


class TestDivergence:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_nested_divergence_results(self, optimize):
        def build(dev):
            return [dev.malloc(4 * 64), 64]

        dev, args, result = _run(k_divergent_sum, 2, 32, build,
                                 optimize=optimize)
        out = dev.memcpy_dtoh(args[0], np.int32, 64)
        expected = [
            t * 10 if t % 2 == 0 else (t * 100 if t % 3 == 0 else t)
            for t in range(64)
        ]
        assert list(out) == expected

    def test_divergent_branches_counted(self):
        def build(dev):
            return [dev.malloc(4 * 64), 64]

        _, _, result = _run(k_divergent_sum, 2, 32, build)
        assert result.divergent_branches > 0
        assert result.branches >= result.divergent_branches

    def test_uniform_kernel_has_no_divergence(self):
        module = compile_kernels([KERNELS["saxpy"]], "m")
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        dx = dev.malloc(4 * 64)
        dy = dev.malloc(4 * 64)
        # n == total threads: the bounds check never splits a warp.
        result = dev.launch(img, "saxpy", 2, 32, [dx, dy, 1.0, 64])
        assert result.divergent_branches == 0


@kernel
def k_loop_divergence(out: ptr_i32):
    t = tid_x
    acc = 0
    i = 0
    while i < t % 5:
        acc += 10
        i += 1
    out[t] = acc


class TestLoopDivergence:
    def test_data_dependent_trip_counts(self):
        def build(dev):
            return [dev.malloc(4 * 32)]

        dev, args, _ = _run(k_loop_divergence, 1, 32, build)
        out = dev.memcpy_dtoh(args[0], np.int32, 32)
        assert list(out) == [(t % 5) * 10 for t in range(32)]


@kernel
def k_early_return(out: ptr_i32, n: i32):
    t = tid_x
    if t >= n:
        return
    out[t] = t + 1


class TestReturns:
    def test_divergent_early_return(self):
        def build(dev):
            return [dev.malloc(4 * 32), 10]

        dev, args, _ = _run(k_early_return, 1, 32, build)
        out = dev.memcpy_dtoh(args[0], np.int32, 32)
        assert list(out[:10]) == list(range(1, 11))
        assert list(out[10:]) == [0] * 22


@device
def collatz_len(x0: i32) -> i32:
    x = x0
    steps = 0
    while x != 1:
        if x % 2 == 0:
            x = x // 2
        else:
            x = 3 * x + 1
        steps += 1
    return steps


@kernel
def k_device_divergent(out: ptr_i32):
    t = tid_x
    out[t] = collatz_len(t + 1)


class TestDeviceCalls:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_divergent_call_with_returns(self, optimize):
        def build(dev):
            return [dev.malloc(4 * 32)]

        dev, args, _ = _run(k_device_divergent, 1, 32, build,
                            optimize=optimize)
        out = dev.memcpy_dtoh(args[0], np.int32, 32)

        def ref(n):
            steps = 0
            while n != 1:
                n = n // 2 if n % 2 == 0 else 3 * n + 1
                steps += 1
            return steps

        assert list(out) == [ref(t + 1) for t in range(32)]


class TestBarriers:
    def test_shared_reduction(self):
        module = compile_kernels([KERNELS["block_reduce"]], "m")
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        n = 256
        data = np.arange(n, dtype=np.float32)
        dx = dev.malloc(data.nbytes)
        do = dev.malloc(4)
        dev.memcpy_htod(dx, data)
        dev.memcpy_htod(do, np.zeros(1, dtype=np.float32))
        dev.launch(img, "block_reduce", 4, 64, [dx, do, n])
        total = dev.memcpy_dtoh(do, np.float32, 1)[0]
        assert total == pytest.approx(data.sum())

    def test_divergent_barrier_rejected(self):
        @kernel
        def bad_barrier(out: ptr_i32):
            t = tid_x
            if t < 16:
                syncthreads()
            out[t] = t

        module = compile_kernels([bad_barrier], "m")
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        do = dev.malloc(4 * 32)
        with pytest.raises(ExecutionError, match="divergent"):
            dev.launch(img, "bad_barrier", 1, 32, [do])


class TestPartialWarps:
    def test_block_smaller_than_warp(self):
        def build(dev):
            return [dev.malloc(4 * 32), 100]

        dev, args, result = _run(k_early_return, 1, 16, build)
        out = dev.memcpy_dtoh(args[0], np.int32, 16)
        assert list(out) == list(range(1, 17))
        assert result.warps_per_cta == 1

    def test_2d_blocks(self):
        @kernel
        def k2d(out: ptr_i32, w: i32):
            x = ctaid_x * ntid_x + tid_x
            y = ctaid_y * ntid_y + tid_y
            out[y * w + x] = x + 100 * y

        module = compile_kernels([k2d], "m")
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        do = dev.malloc(4 * 16 * 16)
        dev.launch(img, "k2d", (2, 2), (8, 8), [do, 16])
        out = dev.memcpy_dtoh(do, np.int32, 256).reshape(16, 16)
        xs, ys = np.meshgrid(np.arange(16), np.arange(16))
        assert np.array_equal(out, xs + 100 * ys)


class TestAtomics:
    def test_atomic_add_no_lost_updates(self):
        @kernel
        def bump(counter: ptr_i32):
            atomic_add(counter, 0, 1)

        module = compile_kernels([bump], "m")
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        dc = dev.malloc(4)
        dev.memcpy_htod(dc, np.zeros(1, dtype=np.int32))
        dev.launch(img, "bump", 4, 64, [dc])
        assert dev.memcpy_dtoh(dc, np.int32, 1)[0] == 256

    def test_atomic_returns_old_value(self):
        @kernel
        def claim(counter: ptr_i32, slots: ptr_i32):
            t = ctaid_x * ntid_x + tid_x
            old = atomic_add(counter, 0, 1)
            slots[t] = old

        module = compile_kernels([claim], "m")
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        dc = dev.malloc(4)
        ds = dev.malloc(4 * 64)
        dev.memcpy_htod(dc, np.zeros(1, dtype=np.int32))
        dev.launch(img, "claim", 2, 32, [dc, ds])
        out = dev.memcpy_dtoh(ds, np.int32, 64)
        assert sorted(out) == list(range(64))  # unique tickets


class TestLaunchValidation:
    def test_wrong_arity(self, fresh_module, kepler_device):
        img = kepler_device.load_module(fresh_module)
        with pytest.raises(LaunchError, match="arguments"):
            kepler_device.launch(img, "saxpy", 1, 32, [1, 2])

    def test_non_kernel_rejected(self, fresh_module, kepler_device):
        img = kepler_device.load_module(fresh_module)
        with pytest.raises(LaunchError, match="not a kernel"):
            kepler_device.launch(img, "clampf", 1, 32, [1.0, 2.0, 3.0])

    def test_pointer_arg_type_checked(self, fresh_module, kepler_device):
        img = kepler_device.load_module(fresh_module)
        with pytest.raises(LaunchError, match="device pointer"):
            kepler_device.launch(
                img, "saxpy", 1, 32, [1.5, kepler_device.malloc(128), 1.0, 8]
            )

    def test_oversized_block_rejected(self, fresh_module, kepler_device):
        img = kepler_device.load_module(fresh_module)
        dx = kepler_device.malloc(4096)
        with pytest.raises(LaunchError, match="too large"):
            kepler_device.launch(img, "saxpy", 1, 2048, [dx, dx, 1.0, 8])

    # One warp; multi-warp CTAs; more single-warp CTAs than SMs.
    @pytest.mark.parametrize("grid,block", [(1, 32), (2, 64), (40, 32)])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinite_loop_detected(self, backend, grid, block):
        @kernel
        def spin(out: ptr_i32):
            x = 1
            while x > 0:
                x = 2
            out[0] = x

        module = compile_kernels([spin], "m")
        dev = Device(KEPLER_K40C)
        dev.backend = backend
        dev.max_steps = 10_000
        img = dev.load_module(module)
        with pytest.raises(
            ExecutionError,
            match=r"kernel exceeded the step budget \(infinite loop\?\)",
        ):
            dev.launch(img, "spin", grid, block, [dev.malloc(4)])

    # One CTA per SM on Kepler's 15 SMs: multi-warp and single-warp CTAs.
    @pytest.mark.parametrize("grid,block", [(15, 64), (15, 32)])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step_budget_bounds_the_launch(self, backend, grid, block):
        @kernel
        def count_up(out: ptr_i32, n: i32):
            acc = 0
            for i in range(n):
                acc += i
            out[ctaid_x * ntid_x + tid_x] = acc

        module = compile_kernels([count_up], "m")
        dev = Device(KEPLER_K40C)
        dev.backend = backend
        img = dev.load_module(module)
        out = dev.malloc(4 * grid * block)
        result = dev.launch(img, "count_up", grid, block, [out, 40])
        steps = result.instructions
        # Every SM alone stays under a tenth of the launch's steps; the
        # launch as a whole does not.
        dev.max_steps = steps // 10
        with pytest.raises(
            ExecutionError,
            match=r"kernel exceeded the step budget \(infinite loop\?\)",
        ):
            dev.launch(img, "count_up", grid, block, [out, 40])


class TestSchedulers:
    @pytest.mark.parametrize("policy", ["rr", "gto"])
    def test_policies_agree_on_results(self, policy):
        module = compile_kernels([KERNELS["divergent_kernel"]], "m")
        dev = Device(KEPLER_K40C)
        dev.scheduler = policy
        img = dev.load_module(module)
        data = np.arange(64, dtype=np.int32)
        di = dev.malloc(data.nbytes)
        do = dev.malloc(data.nbytes)
        dev.memcpy_htod(di, data)
        dev.launch(img, "divergent_kernel", 2, 32, [di, do, 64])
        out = dev.memcpy_dtoh(do, np.int32, 64)
        expected = []
        for v in data:
            r = v * 3 if v % 2 == 0 else v - 7
            r += sum(range(v % 4))
            expected.append(r)
        assert list(out) == expected


class TestArchitectures:
    def test_pascal_line_size_changes_transactions(self):
        module = compile_kernels([KERNELS["saxpy"]], "m")
        results = {}
        for arch in (KEPLER_K40C, PASCAL_P100):
            dev = Device(arch)
            img = dev.load_module(module)
            dx = dev.malloc(4 * 256)
            dy = dev.malloc(4 * 256)
            results[arch.name] = dev.launch(
                img, "saxpy", 4, 64, [dx, dy, 2.0, 256]
            )
        # 32B lines split each 128B warp access into 4 transactions.
        assert results["Pascal"].transactions > results["Kepler"].transactions
