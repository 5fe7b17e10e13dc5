"""The pool worker: a persistent process running whole profiling jobs.

:func:`run_job` is the single definition of "execute one job" -- the
forked pool workers call it, and the service parent calls the very same
function for its serial fallback, which is what makes a degraded-serial
result byte-identical to a fresh pooled one. A job carries everything
it needs in its spec's :class:`~repro.config.ProfileConfig`: the
advisor is ``CUDAAdvisor(spec.config)``, and the export takes the
config's ``time_buckets``.

:func:`worker_main` is the long-lived loop a pool process (a
:class:`~repro.forked.ForkedChild`) runs: receive a job message, run
it, send back ``("ok", ...)`` or ``("err", ...)``, repeat until the
parent sends ``None`` (shutdown) or closes the pipe. A worker sends
nothing while a job runs: the pool's deadline counts from dispatch.
"""

from __future__ import annotations

import os
import time

from repro.export import export_json, profile_export, validate
from repro.optim.advisor import CUDAAdvisor
from repro.service.jobs import JobSpec

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
    doc = profile_export(report, time_buckets=config.time_buckets)
    # The emitter's own contract: a document that fails the bundled
    # schema is a bug caught in the worker, not at a cache consumer.
    validate(doc)
    return {
        "payload": export_json(doc),
        "launches": len(report.session.profiles),
    }


def worker_main(conn, worker_id: int, injector=None) -> None:
    """The persistent pool-worker loop (runs in a forked process)."""
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
        if injector is not None and injector.fires("service_job_hang", **ctx):
            while True:  # never answers: the job deadline must act
                time.sleep(3600)
        try:
            result = run_job(spec)
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            conn.send(("err", (job_id, f"{type(exc).__name__}: {exc}")))
        else:
            conn.send(("ok", (job_id, result)))
