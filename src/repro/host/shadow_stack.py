"""The host (CPU) shadow stack.

CUDAAdvisor mandatorily instruments CPU function calls and returns so it
can concatenate the CPU call path leading to a kernel launch with the
GPU-side call path (Section 3.2.1, Figure 8). The stand-in for that
instrumentation in a Python host program is the :func:`host_function`
decorator: wrapped functions push a frame (function name, source file,
definition line, call-site line) on entry and pop it on return.

The stack is per-thread (``threading.local``), like the per-thread CPU
shadow stacks in the paper.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class HostFrame:
    """One entry of the host shadow stack."""

    function: str
    filename: str
    line: int  # call-site line in the caller (0 for the root)

    def __str__(self) -> str:
        return f"{self.function}():: {self.filename}: {self.line}"


class HostShadowStack:
    """Per-thread stack of :class:`HostFrame`."""

    def __init__(self):
        self._local = threading.local()

    def _frames(self) -> List[HostFrame]:
        if not hasattr(self._local, "frames"):
            self._local.frames = [HostFrame("main", "<program>", 0)]
        return self._local.frames

    def push(self, frame: HostFrame) -> None:
        self._frames().append(frame)

    def pop(self) -> HostFrame:
        frames = self._frames()
        if len(frames) <= 1:
            raise RuntimeError("host shadow stack underflow")
        return frames.pop()

    def snapshot(self) -> Tuple[HostFrame, ...]:
        """The current call path, outermost first."""
        return tuple(self._frames())

    def depth(self) -> int:
        return len(self._frames())

    def reset(self) -> None:
        self._local.frames = [HostFrame("main", "<program>", 0)]


#: The process-wide host shadow stack (one per thread inside).
GLOBAL_HOST_STACK = HostShadowStack()


def host_function(fn: Callable) -> Callable:
    """Instrument a host function's calls and returns.

    Equivalent to the engine's mandatory CPU instrumentation: each call
    pushes the callee (with the *call site's* file/line, which is what
    the code-centric view prints) and each return pops it. A call made
    straight onto the root ``main()`` frame is the program's entry:
    its caller (a profiler, a test) lies outside the application, so
    it is recorded at ``<program>: 0`` like the root, and a call path
    names application code only.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if GLOBAL_HOST_STACK.depth() == 1:
            frame = HostFrame(fn.__name__, "<program>", 0)
        else:
            caller = sys._getframe(1)
            call_site_file = caller.f_code.co_filename.rsplit("/", 1)[-1]
            frame = HostFrame(fn.__name__, call_site_file, caller.f_lineno)
        GLOBAL_HOST_STACK.push(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            GLOBAL_HOST_STACK.pop()

    wrapper.__wrapped_host_function__ = True
    return wrapper
