"""The persistent worker pool behind the profiling service.

Pool workers are **long-lived**: each is a
:class:`~repro.forked.ForkedChild` running
:func:`repro.service.worker.worker_main`, accepting one whole profiling
job at a time over its pipe.  The pool supervises them three ways:

* **a job deadline** -- a worker still holding a job ``job_timeout``
  seconds after its dispatch is reaped, so the deadline bounds one
  attempt; the service retries it, and its serial fallback has no
  deadline, so a slow job still finishes.
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

import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional

from repro.forked import ForkedChild
from repro.service.worker import worker_main

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
    child: ForkedChild
    job: Optional[str] = None
    dispatched: float = 0.0  #: monotonic time the job was handed over


class WorkerPool:
    """A self-healing fleet of persistent job workers; it forks, so its
    owner checks :func:`~repro.forked.fork_available` first."""

    def __init__(
        self,
        size: int,
        injector=None,
        job_timeout: Optional[float] = None,
        max_respawns: Optional[int] = None,
    ):
        self.injector = injector
        self.job_timeout = job_timeout
        #: total replacement spawns allowed before the pool shrinks.
        self.max_respawns = 2 * size if max_respawns is None else max_respawns
        self.respawns = 0
        self.workers: Dict[int, _PoolWorker] = {}
        #: events produced outside step() (e.g. a dispatch-time death),
        #: surfaced on the next step() so the service still sees them.
        self._pending: List[PoolEvent] = []
        self._next_id = 0
        for _ in range(size):
            self._spawn()

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self) -> None:
        worker_id = self._next_id
        self._next_id += 1
        child = ForkedChild(worker_main, worker_id, self.injector)
        self.workers[worker_id] = _PoolWorker(worker_id, child)

    def _reap(self, worker: _PoolWorker) -> None:
        del self.workers[worker.id]
        worker.child.stop()

    def _heal(self, event: PoolEvent) -> PoolEvent:
        """Respawn a replacement, or shrink once the budget is spent."""
        if self.respawns < self.max_respawns:
            self.respawns += 1
            self._spawn()
            event.respawned = True
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
            worker.child.conn.send(message)
        except (BrokenPipeError, OSError):
            self._reap(worker)
            self._pending.append(self._heal(PoolEvent(CRASH, worker.id, None)))
            return False
        worker.job = message["id"]
        worker.dispatched = time.monotonic()
        return True

    def kill_worker(self, worker_id: int) -> Optional[str]:
        """Forcibly kill one worker (the service_pool_loss fault);
        returns the job it held, whose fate :meth:`step` will report."""
        worker = self.workers.get(worker_id)
        if worker is None:
            return None
        worker.child.process.kill()
        return worker.job

    def step(self, timeout: float = 0.02) -> List[PoolEvent]:
        """Pump worker pipes once; reap crashes and hangs; self-heal."""
        events: List[PoolEvent] = list(self._pending)
        self._pending.clear()
        conns = {w.child.conn: w for w in self.workers.values()}
        if conns:
            for conn in _connection_wait(list(conns), timeout=timeout):
                worker = conns[conn]
                message = worker.child.recv()
                if message is None:
                    event = PoolEvent(CRASH, worker.id, worker.job)
                    self._reap(worker)
                    events.append(self._heal(event))
                    continue
                kind, (job_id, payload) = message  # kind: OK or ERR
                worker.job = None
                events.append(PoolEvent(kind, worker.id, job_id, payload))
        if self.job_timeout is not None:
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if worker.job is not None and (
                    now - worker.dispatched > self.job_timeout
                ):
                    event = PoolEvent(TIMEOUT, worker.id, worker.job)
                    self._reap(worker)
                    events.append(self._heal(event))
        return events

    def shutdown(self) -> None:
        """Orderly stop: ask idle workers to exit and wait for them;
        kill busy ones at once (their jobs stay un-run)."""
        leaving = []
        for worker in self.workers.values():
            if worker.job is None:
                try:
                    worker.child.conn.send(None)
                    leaving.append(worker)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in leaving:
            worker.child.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
        for worker in list(self.workers.values()):
            self._reap(worker)
