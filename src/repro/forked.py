"""One forked child process with a duplex pipe to its parent.

Every process this package forks is a :class:`ForkedChild`: the
overhead baseline of :meth:`repro.optim.advisor.CUDAAdvisor.profile`
and the profiling service's pool workers. The child runs
``target(conn, *args)`` with its end of the pipe; the parent reads
messages with :meth:`ForkedChild.recv`, where ``None`` means the child
delivered nothing more (it exited, crashed or sent a torn message),
and ends it with :meth:`ForkedChild.stop`.

A child leaves through ``os._exit`` once its target returns or raises,
so no atexit handler or inherited stdio buffer of the parent runs
twice, and an exception ends it with code 1 silently: the parent sees
EOF. Every child is daemonic: multiprocessing terminates one still
running when the parent exits.
"""

from __future__ import annotations

import multiprocessing
import os


def fork_available() -> bool:
    """Whether this process may fork a child: the platform has ``fork``
    and this process is not daemonic (a daemonic process may have no
    children)."""
    return (hasattr(os, "fork")
            and not multiprocessing.current_process().daemon)


def _enter(target, conn, args) -> None:
    code = 1
    try:
        target(conn, *args)
        code = 0
    finally:
        os._exit(code)


class ForkedChild:
    """``target(conn, *args)`` running in a forked, daemonic child."""

    def __init__(self, target, *args):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_enter,
                                   args=(target, child_conn, args),
                                   daemon=True)
        self.process.start()
        child_conn.close()  # EOF reaches the parent once the child exits

    def recv(self):
        """The child's next message, or None on EOF or a torn message."""
        try:
            return self.conn.recv()
        except Exception:  # noqa: BLE001 -- EOF, OSError, unpickling
            return None

    def stop(self) -> None:
        """Kill the child if it is alive, join it and close the pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()
