"""The warp-level micro-op interpreter.

Executes pre-decoded micro-ops for a whole warp: every value is a
32-lane numpy vector and every operation applies to all lanes at once,
which is both the literal SIMT execution model and the reason the
simulator is fast enough to run the paper's benchmark suite.

All per-instruction decode work (type dispatch, operand resolution,
constant materialization, branch-target/phi-move lookup) happens once at
module load time in :mod:`repro.gpu.decode`. The step loop
(``Device._visit_warp``) just indexes the current micro-op and calls its
bound handler with the CTA's :class:`WarpInterpreter`, which caches the
per-CTA resources the handlers read. Instrumentation hooks (functions
with kind ``"hook"``) inserted by the engine's passes were decoded into
per-kind micro-ops with their call-site constants resolved; each calls
its entry point on the launch's
:class:`~repro.profiler.profiler.HookRuntime`. The interpreter itself
collects nothing beyond hardware-level cache/timing statistics -- all
profiling data flows through the instrumented calls, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.gpu.simt import Warp, WarpStatus


class WarpInterpreter:
    """Per-CTA execution context of the micro-op handlers."""

    def __init__(self, exec_ctx):
        """``exec_ctx`` is a :class:`repro.gpu.device._CTAContext`."""
        self.ctx = exec_ctx
        self.image = exec_ctx.image
        arch = exec_ctx.arch
        self.arch = arch
        # Hot-loop caches: attribute chains resolved once per CTA.
        self.warp_size = arch.warp_size
        self.line_size = arch.l1_line_size
        self.timing = exec_ctx.timing
        self.hooks = exec_ctx.hooks
        self.pc_sampler = exec_ctx.pc_sampler

    def _pop_frame(self, warp: Warp) -> None:
        frame = warp.frames.pop()
        if not warp.frames:
            warp.status = WarpStatus.DONE
            return
        caller = warp.frames[-1]
        if frame.ret_slot is not None:
            result = frame.ret_values
            if result is None:
                raise ExecutionError(
                    f"@{frame.function.name} returned no value"
                )
            previous = caller.regs[frame.ret_slot]
            if previous is not None:
                result = np.where(frame.returned_mask, result, previous)
            caller.regs[frame.ret_slot] = result
        caller.sp = frame.base_sp  # rewind the local stack
