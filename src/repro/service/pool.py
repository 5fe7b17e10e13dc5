"""The persistent worker pool behind the profiling service.

Pool workers are **long-lived**: each runs
:func:`repro.service.worker.worker_main`, accepting one whole profiling
job at a time over a duplex pipe.  The pool supervises them with three
primitives:

* **heartbeats** -- a busy worker beats every ``heartbeat_interval``
  seconds from a background thread; the hang deadline (``job_timeout``)
  is measured from the last beat, so a long but progressing job is
  never reaped while a stuck one is.
* **crash detection** -- EOF on a worker's pipe means the process died
  without delivering its result.
* **self-healing** -- a reaped worker is respawned up to
  ``max_respawns`` times pool-wide; past the budget the pool *shrinks*
  instead (the service then falls back to serial execution when no
  workers remain -- the job-scope rung of the ``failure_policy``
  ladder).

The pool is driven synchronously: the service calls :meth:`step` from
``poll``/``wait`` and reacts to the returned :class:`PoolEvent` list.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional

from repro.service.worker import HEARTBEAT_INTERVAL, worker_main

#: pool event kinds
OK = "ok"
ERR = "err"
CRASH = "crash"
TIMEOUT = "timeout"


@dataclass
class PoolEvent:
    """One thing the pool learned during :meth:`WorkerPool.step`."""

    kind: str  #: OK / ERR / CRASH / TIMEOUT
    worker: int
    job: Optional[str]  #: job the worker held (None for an idle death)
    payload: object = None  #: result dict (OK) or detail string (ERR)
    respawned: bool = False  #: a replacement worker was spawned
    shrunk: bool = False  #: respawn budget exhausted; pool lost a slot


@dataclass
class _PoolWorker:
    id: int
    proc: object
    conn: object
    job: Optional[str] = None
    last_beat: float = field(default_factory=time.monotonic)


def fork_available() -> bool:
    try:
        get_context("fork")
    except ValueError:  # pragma: no cover -- non-POSIX platforms
        return False
    return hasattr(os, "fork")


class WorkerPool:
    """A self-healing fleet of persistent job workers."""

    def __init__(
        self,
        size: int,
        injector=None,
        job_timeout: Optional[float] = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        max_respawns: Optional[int] = None,
    ):
        self.injector = injector
        self.job_timeout = job_timeout
        self.heartbeat_interval = heartbeat_interval
        #: total replacement spawns allowed before the pool shrinks.
        self.max_respawns = 2 * size if max_respawns is None else max_respawns
        self.respawns = 0
        self.workers: Dict[int, _PoolWorker] = {}
        #: events produced outside step() (e.g. a dispatch-time death),
        #: surfaced on the next step() so the service still sees them.
        self._pending: List[PoolEvent] = []
        self._next_id = 0
        self._ctx = get_context("fork") if fork_available() else None
        if self._ctx is not None:
            for _ in range(size):
                self._spawn()

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self) -> Optional[int]:
        if self._ctx is None:
            return None
        worker_id = self._next_id
        self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, self.injector,
                  self.heartbeat_interval),
        )
        proc.daemon = True
        proc.start()
        child_conn.close()  # parent's copy; EOF detection needs it closed
        self.workers[worker_id] = _PoolWorker(worker_id, proc, parent_conn)
        return worker_id

    def _reap(self, worker: _PoolWorker) -> None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        del self.workers[worker.id]
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join()

    def _heal(self, event: PoolEvent) -> PoolEvent:
        """Respawn a replacement, or shrink once the budget is spent."""
        if self.respawns < self.max_respawns:
            self.respawns += 1
            event.respawned = self._spawn() is not None
        event.shrunk = not event.respawned
        return event

    # -- scheduling ----------------------------------------------------------
    @property
    def live(self) -> int:
        return len(self.workers)

    def idle_workers(self) -> List[int]:
        return [w.id for w in self.workers.values() if w.job is None]

    def dispatch(self, worker_id: int, message: dict) -> bool:
        """Hand one job message to an idle worker; False if it just died."""
        worker = self.workers[worker_id]
        assert worker.job is None, "dispatch to a busy worker"
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            self._reap(worker)
            self._pending.append(self._heal(PoolEvent(CRASH, worker.id, None)))
            return False
        worker.job = message["id"]
        worker.last_beat = time.monotonic()
        return True

    def kill_worker(self, worker_id: int) -> Optional[str]:
        """Forcibly kill one worker (the service_pool_loss fault);
        returns the job it held, whose fate :meth:`step` will report."""
        worker = self.workers.get(worker_id)
        if worker is None:
            return None
        worker.proc.kill()
        return worker.job

    def step(self, timeout: float = 0.02) -> List[PoolEvent]:
        """Pump worker pipes once; reap crashes and hangs; self-heal."""
        events: List[PoolEvent] = list(self._pending)
        self._pending.clear()
        conns = {w.conn: w for w in self.workers.values()}
        if conns:
            for conn in _connection_wait(list(conns), timeout=timeout):
                worker = conns[conn]
                if worker.id not in self.workers:  # reaped this step
                    continue
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    event = PoolEvent(CRASH, worker.id, worker.job)
                    self._reap(worker)
                    events.append(self._heal(event))
                    continue
                if kind == "hb":
                    worker.last_beat = time.monotonic()
                elif kind == "ok":
                    job_id, result = payload
                    worker.job = None
                    events.append(PoolEvent(OK, worker.id, job_id, result))
                else:  # "err"
                    job_id, detail = payload
                    worker.job = None
                    events.append(PoolEvent(ERR, worker.id, job_id, detail))
        if self.job_timeout is not None:
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if worker.job is None:
                    continue
                if now - worker.last_beat > self.job_timeout:
                    event = PoolEvent(TIMEOUT, worker.id, worker.job)
                    self._reap(worker)
                    events.append(self._heal(event))
        return events

    def shutdown(self) -> None:
        """Orderly stop: ask idle workers to exit, kill the rest."""
        for worker in list(self.workers.values()):
            if worker.job is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in list(self.workers.values()):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            self._reap(worker)
