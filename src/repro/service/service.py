"""The long-lived profiling service: submit / poll / result / wait.

A :class:`ProfilingService` schedules *whole profiling jobs* across a
persistent worker pool, memoizes results in a content-addressed
crash-safe cache, and survives worker crashes, job hangs, corrupted
cache entries and submit storms -- the profiling-as-a-service tier on
top of the PR-3 reliability layer (``docs/service.md``).

Client API::

    with ProfilingService(workers=2, cache_dir=".repro-cache") as svc:
        handle = svc.submit("bfs", {"modes": ("memory", "blocks")})
        while handle.poll() not in ("done", "failed"):
            ...                        # or: svc.stream(handle)
        result = handle.result()       # canonical export_json text

Robustness ladder (job scope; a launch has no fallback of its own, so
this is the one failure policy):

``"strict"``
    A job fault (worker crash, hang, error) fails the job immediately;
    no retry, no fallback.  ``result()`` raises :class:`ServiceError`.
``"degrade"`` (default)
    Faulted jobs retry with bounded exponential backoff on a healed
    pool; exhausted retries fall back to serial in-process execution.
    Each degradation emits one structured
    :class:`~repro.errors.LaunchDegradedWarning` per (reason, app).
``"best_effort"``
    As ``degrade`` but silent; reasons still land on the result.

Every result -- fresh, retried, degraded-serial or cache-hit -- carries
the same canonical payload bytes for the same :class:`JobSpec`; the
chaos suite (``tests/test_service_chaos.py``) pins that identity under
every injected fault.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import time
import warnings
from dataclasses import fields, replace
from typing import Dict, List, Iterator, Optional, Union

from repro.config import ConfigError, ProfileConfig
from repro.errors import LaunchDegradedWarning, ReproError
from repro.export import SCHEMA_VERSION
from repro.forked import fork_available
from repro.service import pool as poolmod
from repro.service.cache import ResultCache
from repro.service.jobs import (
    CACHE_ENTRY_CORRUPT,
    CACHE_HIT,
    DEGRADED_SERIAL,
    DONE,
    FAILED,
    FAILURE_POLICIES,
    FRESH,
    JOB_DEFAULTS,
    JOB_SERIAL_FALLBACK,
    JOB_TIMEOUT,
    JOB_WORKER_CRASH,
    JOB_WORKER_ERROR,
    POOL_SHRUNK,
    QUEUED,
    RETRIED,
    RETRYING,
    RUNNING,
    SERIAL,
    SERVICE_FORK_UNAVAILABLE,
    JobHandle,
    JobResult,
    JobSpec,
    ServiceError,
)
from repro.service.pool import WorkerPool
from repro.service.worker import run_job

#: source tag for a submit coalesced onto an identical in-flight job.
COALESCED = "coalesced"

_FAULT_REASONS = {
    poolmod.CRASH: JOB_WORKER_CRASH,
    poolmod.TIMEOUT: JOB_TIMEOUT,
    poolmod.ERR: JOB_WORKER_ERROR,
}

#: submit() config keys: every ProfileConfig setting but fused_drain
#: (a job never needs raw records, so it always analyzes in flight).
_JOB_SETTINGS = {f.name for f in fields(ProfileConfig)} - {"fused_drain"}


def _job_config(settings: dict) -> ProfileConfig:
    """A submit() config dict over the job defaults."""
    unknown = sorted(set(settings) - _JOB_SETTINGS)
    if unknown:
        raise ConfigError(
            unknown[0], "unknown submit() config keys: " + ", ".join(unknown)
        )
    return replace(JOB_DEFAULTS, **settings)


def _canonical_kwargs(app_kwargs: Optional[dict]) -> tuple:
    return tuple(sorted((app_kwargs or {}).items()))


_IR_NAME = re.compile(r"%[A-Za-z_][A-Za-z0-9_.]*")


def _canonical_ir(text: str) -> str:
    """Alpha-rename SSA values/labels to first-appearance order.

    Printed value names carry a process-global uniquing counter
    (``%k.45`` in one build, ``%k.46`` in the next), so the raw text is
    not a content address.  Renaming every ``%name`` to ``%vN`` in
    order of first appearance makes structurally identical modules hash
    identically across builds and across processes -- the property the
    persistent cache key relies on.
    """
    names: Dict[str, str] = {}

    def rename(match: "re.Match[str]") -> str:
        name = match.group(0)
        if name not in names:
            names[name] = f"%v{len(names)}"
        return names[name]

    return _IR_NAME.sub(rename, text)


class ProfilingService:
    """Async scheduler + result cache for whole profiling jobs."""

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        job_timeout: Optional[float] = None,
        max_attempts: int = 3,
        backoff: float = 0.05,
        failure_policy: str = "degrade",
        injector=None,
        max_respawns: Optional[int] = None,
    ):
        if failure_policy not in FAILURE_POLICIES:
            raise ServiceError(
                f"unknown failure policy {failure_policy!r}"
            )
        self.failure_policy = failure_policy
        self.max_attempts = max(1, max_attempts)
        self.backoff = backoff
        self.injector = injector
        self.cache = (
            ResultCache(cache_dir, injector=injector,
                        max_bytes=cache_max_bytes)
            if cache_dir is not None else None
        )
        self.counters: Dict[str, int] = {
            "submitted": 0, "cache_hits": 0, "cache_misses": 0,
            "coalesced": 0, "dispatched": 0, "completed": 0, "retries": 0,
            "worker_crashes": 0, "job_timeouts": 0, "worker_errors": 0,
            "serial_fallbacks": 0, "pool_shrinks": 0, "respawns": 0,
            "jobs_executed": 0, "launches_simulated": 0,
        }
        self.handles: Dict[str, JobHandle] = {}
        self._queue: List[str] = []  # job ids awaiting dispatch
        self._backlog: List[List[object]] = []  # [ready_time, job_id]
        self._running: Dict[str, int] = {}  # job id -> worker id
        self._coalesced: Dict[str, List[str]] = {}  # primary -> followers
        self._inflight_by_key: Dict[str, str] = {}  # cache key -> primary
        self._ids = itertools.count(1)
        self._ir_hash_memo: Dict[str, str] = {}
        self._warned = set()
        workers = max(0, workers)
        if workers and not fork_available():  # pragma: no cover
            self._degrade_warn(
                SERVICE_FORK_UNAVAILABLE, "*",
                "this platform cannot fork worker processes; the service "
                "runs every job serially in-process",
            )
            workers = 0
        self.pool = WorkerPool(
            workers,
            injector=injector,
            job_timeout=job_timeout,
            max_respawns=max_respawns,
        ) if workers else None

    # -- context management --------------------------------------------------
    def __enter__(self) -> "ProfilingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the pool; pending jobs stay un-run (resubmit elsewhere)."""
        if self.pool is not None:
            self.pool.shutdown()

    # -- submit --------------------------------------------------------------
    def submit(self, app: str,
               config: Union[ProfileConfig, dict, None] = None,
               app_kwargs: Optional[dict] = None) -> JobHandle:
        """Enqueue one profiling job; returns immediately with a handle.

        ``config`` is a :class:`~repro.config.ProfileConfig`, or a dict
        of its fields (all but ``fused_drain``) over
        :data:`~repro.service.jobs.JOB_DEFAULTS`. Its result-affecting
        settings (``modes``, ``arch``, ``sample_rate``, ``heatmap``...)
        feed the cache key. An unknown key or an invalid setting
        raises :class:`ServiceError` here, before the job gets an id.
        A cache hit resolves the handle before ``submit`` returns; an
        identical in-flight spec is coalesced instead of re-simulated.
        """
        try:
            if not isinstance(config, ProfileConfig):
                config = _job_config(config or {})
            spec = JobSpec(app, _canonical_kwargs(app_kwargs), config)
            key = spec.cache_key(self._module_ir_hash(app), SCHEMA_VERSION)
        except ConfigError as exc:
            raise ServiceError(str(exc)) from exc
        except ReproError as exc:
            raise ServiceError(f"cannot submit {app!r}: {exc}") from exc
        job_id = f"job-{next(self._ids)}"
        handle = JobHandle(job_id, spec, key, self)
        self.handles[job_id] = handle
        self.counters["submitted"] += 1
        handle.record("submitted", app=app, key=key)

        if self.cache is not None:
            payload = self.cache.get(key)
            quarantined = self.cache.stats["quarantined"]
            if payload is not None:
                self.counters["cache_hits"] += 1
                handle.record(DONE, source=CACHE_HIT)
                handle.result_value = JobResult(
                    payload=payload, source=CACHE_HIT, key=key
                )
                return handle
            self.counters["cache_misses"] += 1
            if quarantined and self.cache.quarantine_log and (
                self.cache.quarantine_log[-1]["key"] == key
            ):
                # this very submit found (and quarantined) a corrupt
                # entry: surface the reason on the eventual result
                handle.reasons.append(CACHE_ENTRY_CORRUPT)
                handle.record("cache-quarantined", key=key)

        primary = self._inflight_by_key.get(key)
        if primary is not None and primary in self.handles and (
            not self.handles[primary].done
        ):
            self.counters["coalesced"] += 1
            self._coalesced.setdefault(primary, []).append(job_id)
            handle.record("coalesced", with_job=primary)
            return handle

        self._inflight_by_key[key] = job_id
        self._queue.append(job_id)
        handle.record(QUEUED)
        self._fire_pool_loss(handle)
        return handle

    def _fire_pool_loss(self, handle: JobHandle) -> None:
        """The service_pool_loss injection point (worker loss at submit)."""
        if self.injector is None or self.pool is None:
            return
        params = self.injector.fire(
            "service_pool_loss", job=handle.id, app=handle.spec.app
        )
        if params is None:
            return
        live = sorted(self.pool.workers)
        if not live:
            return
        victim = int(params.get("worker", live[0]))
        if victim not in self.pool.workers:
            victim = live[0]
        self.pool.kill_worker(victim)

    def _module_ir_hash(self, app: str) -> str:
        """Optimized-module content hash, memoized per app name.

        The printed IR is alpha-renamed first (:func:`_canonical_ir`)
        so the hash -- and hence every cache key -- is stable across
        service restarts and CLI invocations.
        """
        cached = self._ir_hash_memo.get(app)
        if cached is not None:
            return cached
        from repro.apps import build_app
        from repro.frontend.dsl import compile_kernels
        from repro.ir import print_module
        from repro.passes import optimization_pipeline

        program = build_app(app)
        module = compile_kernels(list(program.kernels), app)
        optimization_pipeline().run(module)
        text = _canonical_ir(print_module(module))
        digest = hashlib.sha256(text.encode()).hexdigest()
        self._ir_hash_memo[app] = digest
        return digest

    # -- client-facing progress ----------------------------------------------
    def poll(self, handle: JobHandle) -> str:
        """One non-blocking scheduler step; returns the job's state."""
        if not handle.done:
            self._step(0.0)
        return handle.state

    def wait(self, handle: Optional[JobHandle] = None,
             timeout: Optional[float] = None) -> str:
        """Drive the scheduler until ``handle`` (or every job) finishes."""
        deadline = None if timeout is None else time.monotonic() + timeout

        def pending() -> bool:
            if handle is not None:
                return not handle.done
            return any(not h.done for h in self.handles.values())

        while pending():
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    "wait() timed out with jobs still pending"
                )
            self._step(0.02)
        return handle.state if handle is not None else DONE

    def result(self, handle: JobHandle,
               timeout: Optional[float] = None) -> JobResult:
        self.wait(handle, timeout=timeout)
        if handle.state == FAILED:
            raise ServiceError(
                f"{handle.id} ({handle.spec.app}) failed: {handle.error}"
            )
        assert handle.result_value is not None
        return handle.result_value

    def stream(self, handle: JobHandle) -> Iterator:
        """Yield the job's status events as they happen, until terminal."""
        seen = 0
        while True:
            while seen < len(handle.events):
                yield handle.events[seen]
                seen += 1
            if handle.done:
                return
            self._step(0.02)

    # -- the scheduler -------------------------------------------------------
    def _step(self, block: float) -> None:
        """One pump of the event loop: requeue, dispatch, reap, finish."""
        now = time.monotonic()
        for item in list(self._backlog):
            if item[0] <= now:
                self._backlog.remove(item)
                self._queue.append(item[1])

        if self.pool is not None and self.pool.live:
            self._dispatch_queued()
            for event in self.pool.step(timeout=block):
                self._handle_pool_event(event)
            self._dispatch_queued()
        # No live workers (workers=0, or the pool shrank to nothing):
        # run whatever is due right here, serially.
        if self.pool is None or not self.pool.live:
            for job_id in list(self._queue):
                self._queue.remove(job_id)
                handle = self.handles[job_id]
                if self.pool is not None:
                    # jobs routed here because the pool died are degraded
                    self._note_reason(handle, POOL_SHRUNK)
                self._run_serial(handle)
            if self._backlog and block:
                time.sleep(min(
                    block,
                    max(0.0, min(i[0] for i in self._backlog) - now),
                ))

    def _dispatch_queued(self) -> None:
        for worker_id in self.pool.idle_workers():
            if not self._queue:
                return
            job_id = self._queue[0]
            handle = self.handles[job_id]
            message = {
                "id": job_id,
                "attempt": handle.attempts,
                "spec": handle.spec,
            }
            if self.pool.dispatch(worker_id, message):
                self._queue.pop(0)
                handle.attempts += 1
                self._running[job_id] = worker_id
                self.counters["dispatched"] += 1
                handle.record(
                    RUNNING, worker=worker_id, attempt=handle.attempts
                )

    def _handle_pool_event(self, event) -> None:
        if event.respawned:
            self.counters["respawns"] += 1
        if event.shrunk:
            self.counters["pool_shrinks"] += 1
        if event.job is None:
            return  # an idle worker died; healing already handled
        handle = self.handles.get(event.job)
        if handle is None or handle.done:  # pragma: no cover -- stale
            return
        self._running.pop(event.job, None)
        if event.kind == poolmod.OK:
            result = event.payload
            self.counters["jobs_executed"] += 1
            self.counters["launches_simulated"] += result["launches"]
            source = RETRIED if handle.attempts > 1 else FRESH
            self._finish(handle, result["payload"], source,
                         worker=event.worker, launches=result["launches"])
            return
        # a fault: crash, timeout, or worker error
        reason = _FAULT_REASONS[event.kind]
        counter = {
            JOB_WORKER_CRASH: "worker_crashes",
            JOB_TIMEOUT: "job_timeouts",
            JOB_WORKER_ERROR: "worker_errors",
        }[reason]
        self.counters[counter] += 1
        self._note_reason(handle, reason)
        detail = event.payload if event.kind == poolmod.ERR else reason
        handle.record("fault", kind=reason, detail=str(detail))
        if self.failure_policy == "strict":
            handle.error = f"{reason}: {detail}"
            handle.record(FAILED, reason=reason)
            self._clear_inflight(handle)
            return
        if handle.attempts < self.max_attempts and (
            self.pool is not None and self.pool.live
        ):
            delay = self.backoff * (2 ** (handle.attempts - 1))
            self.counters["retries"] += 1
            self._backlog.append([time.monotonic() + delay, handle.id])
            handle.record(RETRYING, delay=delay, attempt=handle.attempts)
            return
        self._note_reason(handle, JOB_SERIAL_FALLBACK)
        self._run_serial(handle)

    def _run_serial(self, handle: JobHandle) -> None:
        """Execute a job in-process (fallback rung, or workers=0 mode)."""
        handle.record(SERIAL)
        handle.attempts += 1
        degraded = JOB_SERIAL_FALLBACK in handle.reasons or (
            POOL_SHRUNK in handle.reasons
        )
        if degraded:
            self.counters["serial_fallbacks"] += 1
            self._degrade_warn(
                JOB_SERIAL_FALLBACK, handle.spec.app,
                f"{handle.id} ({handle.spec.app}) exhausted its pool "
                "attempts and re-ran serially in the service process",
            )
        try:
            result = run_job(handle.spec)
        except Exception as exc:  # noqa: BLE001 -- job, not service, fails
            handle.error = f"{type(exc).__name__}: {exc}"
            handle.record(FAILED, error=handle.error)
            self._clear_inflight(handle)
            return
        self.counters["jobs_executed"] += 1
        self.counters["launches_simulated"] += result["launches"]
        self._finish(
            handle, result["payload"],
            DEGRADED_SERIAL if degraded else FRESH,
            launches=result["launches"],
        )

    def _finish(self, handle: JobHandle, payload: str, source: str,
                worker: Optional[int] = None, launches: int = 0) -> None:
        if self.cache is not None:
            self.cache.put(
                handle.key, payload,
                meta={"app": handle.spec.app, "job": handle.id},
            )
        handle.result_value = JobResult(
            payload=payload, source=source, key=handle.key,
            attempts=handle.attempts, reasons=list(handle.reasons),
            worker=worker, launches=launches,
        )
        handle.record(DONE, source=source)
        self.counters["completed"] += 1
        self._clear_inflight(handle)
        for follower_id in self._coalesced.pop(handle.id, []):
            follower = self.handles[follower_id]
            follower.result_value = JobResult(
                payload=payload, source=COALESCED, key=follower.key,
            )
            follower.record(DONE, source=COALESCED)
            self.counters["completed"] += 1

    def _clear_inflight(self, handle: JobHandle) -> None:
        if self._inflight_by_key.get(handle.key) == handle.id:
            del self._inflight_by_key[handle.key]
        # a failed primary fails its coalesced followers too
        if handle.state == FAILED:
            for follower_id in self._coalesced.pop(handle.id, []):
                follower = self.handles[follower_id]
                follower.error = handle.error
                follower.record(FAILED, via=handle.id)

    def _note_reason(self, handle: JobHandle, reason: str) -> None:
        if reason not in handle.reasons:
            handle.reasons.append(reason)

    def _degrade_warn(self, reason: str, app: str, message: str) -> None:
        if self.failure_policy != "degrade":
            return
        key = (reason, app)
        if key in self._warned:
            return
        self._warned.add(key)
        warnings.warn(
            LaunchDegradedWarning(
                message, reason=reason, context={"app": app}
            ),
            stacklevel=2,
        )
