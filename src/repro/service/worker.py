"""The pool worker: a persistent process running whole profiling jobs.

:func:`run_job` is the single definition of "execute one job" -- the
forked pool workers call it, and the service parent calls the very same
function for its serial fallback, which is what makes a degraded-serial
result byte-identical to a fresh pooled one.

:func:`worker_main` is the long-lived loop a pool process runs: receive
a job message, acknowledge it, heartbeat from a background thread while
the job executes, send back ``("ok", ...)`` or ``("err", ...)``, repeat
until the parent sends ``None`` (shutdown) or closes the pipe.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.errors import ReproError
from repro.export import export_json, profile_export, validate
from repro.gpu.arch import KEPLER_K40C, PASCAL_P100
from repro.optim.advisor import CUDAAdvisor
from repro.service.jobs import JobSpec

#: arch-name -> architecture resolution for picklable job specs.
SERVICE_ARCHES = {"kepler": KEPLER_K40C, "pascal": PASCAL_P100}

#: heartbeat cadence of a busy worker (seconds); the service's job
#: timeout should be a small multiple of this.
HEARTBEAT_INTERVAL = 0.1


def run_job(spec: JobSpec, hints: Optional[Dict[str, object]] = None) -> dict:
    """Execute one profiling job; returns ``{"payload", "launches"}``.

    ``hints`` carries execution knobs that may change *how* the job
    runs but never its payload bytes (the failure policy).
    Jobs run with the advisor's default fused analysis (in flight, no
    trace round-trip): a job never needs raw records.
    """
    hints = hints or {}
    if spec.arch not in SERVICE_ARCHES:
        raise ReproError(
            f"unknown arch {spec.arch!r}: expected one of "
            f"{', '.join(sorted(SERVICE_ARCHES))}"
        )
    from repro.apps import build_app

    kwargs: Dict[str, object] = {}
    if spec.heatmap_cell_rows is not None:
        kwargs["heatmap_cell_rows"] = spec.heatmap_cell_rows
    advisor = CUDAAdvisor(
        arch=SERVICE_ARCHES[spec.arch],
        modes=spec.modes,
        measure_overhead=spec.measure_overhead,
        buffer_capacity=spec.buffer_capacity,
        sample_rate=spec.sample_rate,
        heatmap=spec.heatmap,
        backend=spec.backend,
        failure_policy=hints.get("failure_policy"),
        **kwargs,
    )
    report = advisor.profile(build_app(spec.app, **dict(spec.app_kwargs)))
    doc = profile_export(
        report, time_buckets=spec.time_buckets, columnar=spec.columnar
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
                result = run_job(spec, hints=message.get("hints"))
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            with lock:
                conn.send(("err", (job_id, f"{type(exc).__name__}: {exc}")))
        else:
            with lock:
                conn.send(("ok", (job_id, result)))
