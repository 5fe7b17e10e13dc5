"""The warp-level micro-op interpreter.

Executes one pre-decoded micro-op per call for a whole warp: every value
is a 32-lane numpy vector and every operation applies to all lanes at
once, which is both the literal SIMT execution model and the reason the
simulator is fast enough to run the paper's benchmark suite.

All per-instruction decode work (type dispatch, operand resolution,
constant materialization, branch-target/phi-move lookup) happens once at
module load time in :mod:`repro.gpu.decode`; the step loop here just
indexes the current micro-op and calls its bound handler. Instrumentation
hooks (functions with kind ``"hook"``) inserted by the engine's passes
are dispatched to the launch's
:class:`~repro.profiler.profiler.HookRuntime`; the interpreter itself
collects nothing beyond hardware-level cache/timing statistics -- all
profiling data flows through the instrumented calls, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.gpu.decode import BarrierReached
from repro.gpu.simt import Frame, StackEntry, Warp, WarpStatus
from repro.gpu.vecops import (
    _active_and_nonzero,
    _apply_atomic,
    _apply_binop,
    _apply_cmp,
    _apply_math,
    _bank_conflict_degree,
)

__all__ = [
    "BarrierReached",
    "WarpInterpreter",
    "_active_and_nonzero",
    "_apply_atomic",
    "_apply_binop",
    "_apply_cmp",
    "_apply_math",
    "_bank_conflict_degree",
]


class WarpInterpreter:
    """Interprets pre-decoded micro-ops for warps of one CTA."""

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
        self.pc_sampler = exec_ctx.pc_sampler

    # -- main step ---------------------------------------------------------------
    def step(self, warp: Warp):
        """Execute one micro-op of ``warp``; updates its state.

        Returns ``"mem"`` when the instruction was a global-memory
        access (the scheduler's greedy-then-oldest policy rotates warps
        at these long-latency points), else ``None``.
        """
        frame = warp.frames[-1]
        stack = frame.stack
        if not stack:
            self._pop_frame(warp)
            return
        entry = stack[-1]
        block = entry.block
        if block is None:
            raise ExecutionError(
                f"unstructured control flow in @{frame.function.name}: lanes "
                f"waiting at a branch whose paths never reconverge or return"
            )
        mask = entry.amask
        if mask is None:
            mask = entry.mask & ~frame.returned_mask
            entry.amask = mask
            entry.nactive = int(mask.sum())
        if not entry.nactive:
            stack.pop()
            return None

        op = block.ops[entry.index]
        warp.instructions_executed += 1
        self.timing.issue()
        sampler = self.pc_sampler
        if sampler is not None:
            sampler.tick(warp, frame.function.name, op.loc)
        return op.run(op, self, warp, frame, entry, mask)

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
