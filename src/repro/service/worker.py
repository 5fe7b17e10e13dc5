"""The pool worker: a persistent process running whole profiling jobs.

:func:`run_job` is the single definition of "execute one job" -- the
forked pool workers call it, and the service parent calls the very same
function for its serial fallback, which is what makes a degraded-serial
result byte-identical to a fresh pooled one. A job carries everything
it needs in its spec's :class:`~repro.config.ProfileConfig`: the
advisor is ``CUDAAdvisor(spec.config)``, and the export takes the
config's ``time_buckets`` and ``columnar``.

:func:`worker_main` is the long-lived loop a pool process runs: receive
a job message, acknowledge it, heartbeat from a background thread while
the job executes, send back ``("ok", ...)`` or ``("err", ...)``, repeat
until the parent sends ``None`` (shutdown) or closes the pipe.
"""

from __future__ import annotations

import os
import threading
import time

from repro.export import export_json, profile_export, validate
from repro.optim.advisor import CUDAAdvisor
from repro.service.jobs import JobSpec

#: heartbeat cadence of a busy worker (seconds); the service's job
#: timeout should be a small multiple of this.
HEARTBEAT_INTERVAL = 0.1


def run_job(spec: JobSpec) -> dict:
    """Execute one profiling job; returns ``{"payload", "launches"}``.

    The advisor runs the spec's :class:`~repro.config.ProfileConfig`
    as it stands: it was validated when the spec was built. Jobs
    analyze in flight (the advisor's default fused analysis): a job
    never needs raw records.
    """
    from repro.apps import build_app

    config = spec.config
    report = CUDAAdvisor(config).profile(
        build_app(spec.app, **dict(spec.app_kwargs))
    )
    doc = profile_export(
        report, time_buckets=config.time_buckets, columnar=config.columnar
    )
    # The emitter's own contract: a document that fails the bundled
    # schema is a bug caught in the worker, not at a cache consumer.
    validate(doc)
    return {
        "payload": export_json(doc),
        "launches": len(report.session.profiles),
    }


class _Heartbeat:
    """Background heartbeats while a job runs, so a long but healthy
    job is never confused with a hung one."""

    def __init__(self, conn, lock: threading.Lock, job_id: str,
                 interval: float):
        self._conn = conn
        self._lock = lock
        self._job_id = job_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    self._conn.send(("hb", self._job_id))
            except (BrokenPipeError, OSError):  # parent gone
                return


def worker_main(worker_id: int, conn, injector=None,
                heartbeat_interval: float = HEARTBEAT_INTERVAL) -> None:
    """The persistent pool-worker loop (runs in a forked process)."""
    lock = threading.Lock()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:  # orderly shutdown
            return
        job_id = message["id"]
        attempt = message["attempt"]
        spec: JobSpec = message["spec"]
        ctx = {
            "job": job_id, "app": spec.app,
            "attempt": attempt, "worker": worker_id,
        }
        if injector is not None and injector.fires(
            "service_worker_crash", **ctx
        ):
            os._exit(17)  # no result, no traceback: a true crash
        with lock:
            conn.send(("hb", job_id))
        if injector is not None and injector.fires("service_job_hang", **ctx):
            while True:  # no further heartbeats: the reaper must act
                time.sleep(3600)
        try:
            with _Heartbeat(conn, lock, job_id, heartbeat_interval):
                result = run_job(spec)
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            with lock:
                conn.send(("err", (job_id, f"{type(exc).__name__}: {exc}")))
        else:
            with lock:
                conn.send(("ok", (job_id, result)))
