"""Threshold-sweep launches against one live launch per threshold.

``CUDAAdvisor.evaluate_bypass`` executes a program once with a tuple of
``l1_warps_per_cta`` thresholds: each SM records its timing events on a
tape and replays them through a fresh L1, MSHR file and timing model per
threshold. That is exact only because timing never feeds back into
execution. The reference here is the loop the sweep replaced: a fresh
device and one full run per threshold, each passing the program's own
``check``. Cycles are compared with ``==``: the replay must make the
same float operations in the same order as a live launch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_app
from repro.frontend import compile_kernels
from repro.gpu import Device
from repro.gpu.arch import KEPLER_K40C, PASCAL_P100
from repro.gpu.cache import MSHRFile, SetAssociativeCache
from repro.gpu.timing import SMTimingModel, TimingTape, model_global_lines
from repro.host import CudaRuntime
from repro.optim.advisor import CUDAAdvisor
from repro.passes.bypass import HorizontalBypassPass
from repro.passes.manager import PassManager
from repro.passes.pipeline import optimization_pipeline

MANIFEST = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "manifest.json").read_text()
)
ARCHES = {"kepler": KEPLER_K40C, "pascal": PASCAL_P100}
#: every registry app with a threshold to search, at the golden inputs
SWEPT = [
    app for app, inputs in MANIFEST["inputs"].items()
    if build_app(app, **inputs).warps_per_cta >= 2
]
CASES = [
    (app, arch, backend)
    for app in SWEPT
    for arch in ARCHES
    for backend in ("interpreter", "batched")
]


def _bypass_module(program):
    module = compile_kernels(list(program.kernels), program.name)
    optimization_pipeline().run(module)
    PassManager([HorizontalBypassPass()]).run(module)
    return module


def _run(program, module, arch, backend, l1_warps_per_cta):
    """One full run on a fresh device; the program's check must pass."""
    device = Device(arch)
    device.backend = backend
    rt = CudaRuntime(device)
    image = device.load_module(module)
    state = program.prepare(rt)
    results = program.run(rt, image, state, l1_warps_per_cta=l1_warps_per_cta)
    assert program.check(rt, state)
    return results


@pytest.mark.parametrize(
    "app,arch,backend", CASES, ids=["-".join(case) for case in CASES]
)
def test_sweep_matches_one_live_run_per_threshold(app, arch, backend):
    program = build_app(app, **MANIFEST["inputs"][app])
    module = _bypass_module(program)
    thresholds = tuple(range(1, program.warps_per_cta + 1))
    live = {
        k: _run(program, module, ARCHES[arch], backend, k) for k in thresholds
    }
    last = live[thresholds[-1]]
    sweep = _run(program, module, ARCHES[arch], backend, thresholds)
    assert len(sweep) == len(last)
    for i, launch in enumerate(sweep):
        assert launch.cycles_by_threshold == {
            k: live[k][i].cycles for k in thresholds
        }
        # the sweep launch reports the last threshold's launch
        assert launch.cycles == last[i].cycles
        assert launch.cache == last[i].cache
        assert launch.transactions == last[i].transactions
        assert launch.instructions == last[i].instructions
        assert last[i].cycles_by_threshold is None

    search, _ = CUDAAdvisor(
        arch=ARCHES[arch], backend=backend
    ).evaluate_bypass(program, prediction=object())
    assert search.cycles_by_warps == {
        k: sum(r.cycles for r in live[k]) for k in thresholds
    }


def _fresh_sm(arch=KEPLER_K40C):
    return (
        SMTimingModel(arch),
        SetAssociativeCache(arch.l1_size, arch.l1_line_size, arch.l1_assoc),
        MSHRFile(arch.mshr_entries),
    )


def _script(timing, access):
    """A fixed SM event sequence; ``access(warp_in_cta, lines, mode,
    is_write)`` is one global-memory warp instruction."""
    timing.set_resident_warps(9)
    access(0, [5], 2, False)  # miss
    access(0, [5], 2, False)  # hit: cycles now carry a small fraction
    for _ in range(102):
        timing.issue()
    access(3, [6, 7], 2, False)  # dyn: bypasses at thresholds <= 3
    access(1, [8], 1, True)  # .cg write
    timing.issue(4)
    timing.shared_access(2)
    timing.atomic(3)
    timing.hook_call(5)
    timing.set_resident_warps(4)
    access(2, [5, 9], 0, True)  # .ca write: evicts line 5


@pytest.mark.parametrize("threshold", [1, 3, 4, None])
def test_tape_replay_repeats_the_live_float_operations(threshold):
    """Above all, a run of single issues must not be merged: here the
    102 issues after the hit give different bits as one ``issue(102)``."""
    live, l1, mshr = _fresh_sm()

    def live_access(warp_in_cta, lines, mode, is_write):
        bypass = mode == 1 or (
            mode == 2 and threshold is not None and warp_in_cta >= threshold
        )
        model_global_lines(l1, mshr, live, lines, bypass, is_write)

    _script(live, live_access)
    tape = TimingTape()
    _script(tape, tape.global_lines)
    replayed, rl1, rmshr = _fresh_sm()
    tape.replay(replayed, rl1, rmshr, threshold)
    assert replayed.cycles == live.cycles
    assert rl1.stats == l1.stats
    assert (rmshr.requests, rmshr.merges, rmshr.allocation_failures) == (
        mshr.requests, mshr.merges, mshr.allocation_failures
    )

    merged = TimingTape()
    merged.set_resident_warps(9)
    merged.global_lines(0, [5], 2, False)
    merged.global_lines(0, [5], 2, False)
    timing, l1, mshr = _fresh_sm()
    merged.replay(timing, l1, mshr, threshold)
    one_by_one = timing.cycles
    for _ in range(102):
        one_by_one += 1
    assert timing.cycles + 102 != one_by_one  # the script is sensitive
