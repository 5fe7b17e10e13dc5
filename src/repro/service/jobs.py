"""Job descriptions, handles and reason codes for the profiling service.

A **job** is one whole profiling request: "profile app X with config Y
and hand back the canonical export document".  :class:`JobSpec` pins
everything that *determines the result bytes* -- those fields (plus the
module IR hash and the export schema version) form the cache key.
Execution hints (the failure policy) change how a job runs,
never what it returns, so they ride along outside the key. The
execution ``backend`` is part of the spec: batched runs add a
``jit_cache`` section to the document, so the two backends' bytes
differ.

:class:`JobHandle` is the client's view of a submitted job: ``poll()``
for the current state, ``wait()``/``result()`` to block, ``events`` for
the per-job status stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.heatmap import DEFAULT_CELL_ROWS
from repro.errors import ReproError

# -- job states --------------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
RETRYING = "retrying"
SERIAL = "serial-fallback"
DONE = "done"
FAILED = "failed"

#: states from which a job never moves again
TERMINAL_STATES = (DONE, FAILED)

# -- result sources ----------------------------------------------------------
FRESH = "fresh"
RETRIED = "retried"
DEGRADED_SERIAL = "degraded-serial"
CACHE_HIT = "cache-hit"

# -- machine-readable reason codes (stable API, service scope) ---------------
#: a pool worker died (crash/OOM/kill) while holding the job.
JOB_WORKER_CRASH = "job-worker-crash"
#: a pool worker missed its heartbeat deadline and was reaped.
JOB_TIMEOUT = "job-timeout"
#: a pool worker raised an exception while running the job.
JOB_WORKER_ERROR = "job-worker-error"
#: retries exhausted (or no pool); the job ran serially in the parent.
JOB_SERIAL_FALLBACK = "job-serial-fallback"
#: a worker exceeded its respawn budget; the pool shrank by one slot.
POOL_SHRUNK = "pool-shrunk"
#: the platform cannot fork; the pool never started.
SERVICE_FORK_UNAVAILABLE = "service-fork-unavailable"
#: a cache entry failed its checksum and was quarantined.
CACHE_ENTRY_CORRUPT = "cache-entry-corrupt"

SERVICE_REASON_CODES = (
    JOB_WORKER_CRASH,
    JOB_TIMEOUT,
    JOB_WORKER_ERROR,
    JOB_SERIAL_FALLBACK,
    POOL_SHRUNK,
    SERVICE_FORK_UNAVAILABLE,
    CACHE_ENTRY_CORRUPT,
)


class ServiceError(ReproError):
    """A profiling-service failure (bad submit, failed job under strict)."""


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines a job's result bytes.

    ``app_kwargs`` is a canonicalized ``(key, value)`` tuple so specs
    stay hashable and pickle cleanly across the worker pipe.  All
    fields here feed :meth:`cache_key`; anything that must *not*
    affect the result (execution hints) lives outside this class.
    """

    app: str
    app_kwargs: Tuple[Tuple[str, object], ...] = ()
    arch: str = "kepler"
    modes: Tuple[str, ...] = ("memory", "blocks")
    sample_rate: int = 1
    buffer_capacity: Optional[int] = None
    measure_overhead: bool = False
    heatmap: bool = False
    heatmap_cell_rows: Optional[int] = None
    time_buckets: int = 64
    columnar: bool = False
    backend: str = "interpreter"

    def __post_init__(self):
        # spelling out the default binning is the same job as leaving
        # it unset: one spec, one cache key, one coalescing slot
        if self.heatmap_cell_rows == DEFAULT_CELL_ROWS:
            object.__setattr__(self, "heatmap_cell_rows", None)

    def cache_key(self, ir_hash: str, schema_version: str) -> str:
        """Content address: (module IR hash, app config, instrumentation
        knobs, export schema version) -> hex digest."""
        material = json.dumps(
            {
                "schema_version": schema_version,
                "ir_hash": ir_hash,
                "app": self.app,
                "app_kwargs": [[k, v] for k, v in self.app_kwargs],
                "arch": self.arch,
                "modes": list(self.modes),
                "sample_rate": self.sample_rate,
                "buffer_capacity": self.buffer_capacity,
                "measure_overhead": self.measure_overhead,
                "heatmap": self.heatmap,
                "heatmap_cell_rows": self.heatmap_cell_rows,
                "time_buckets": self.time_buckets,
                "columnar": self.columnar,
                "backend": self.backend,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class JobEvent:
    """One entry of a job's status stream (monotonic ``seq`` per job)."""

    seq: int
    state: str
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class JobResult:
    """A finished job: the canonical export payload plus provenance."""

    payload: str  #: canonical export_json text (byte-identity contract)
    source: str  #: FRESH / RETRIED / DEGRADED_SERIAL / CACHE_HIT
    key: str  #: content-address the payload is (or would be) cached under
    attempts: int = 0
    reasons: List[str] = field(default_factory=list)
    worker: Optional[int] = None
    launches: int = 0  #: kernel launches the producing run simulated


class JobHandle:
    """The client's handle on one submitted job."""

    def __init__(self, job_id: str, spec: JobSpec, key: str, service):
        self.id = job_id
        self.spec = spec
        self.key = key
        self.state = QUEUED
        self.attempts = 0
        self.reasons: List[str] = []
        self.events: List[JobEvent] = []
        self.result_value: Optional[JobResult] = None
        self.error: Optional[str] = None
        self._service = service

    # -- client API ----------------------------------------------------------
    def poll(self) -> str:
        """Advance the service without blocking; return current state."""
        return self._service.poll(self)

    def wait(self, timeout: Optional[float] = None) -> str:
        """Drive the service until this job is terminal (or timeout)."""
        return self._service.wait(self, timeout=timeout)

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block until done and return the result (raises on failure)."""
        return self._service.result(self, timeout=timeout)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    # -- service-side bookkeeping -------------------------------------------
    def record(self, state: str, **detail) -> JobEvent:
        """Append one status event and move to ``state``."""
        event = JobEvent(len(self.events), state, detail)
        self.events.append(event)
        self.state = state
        return event

    def __repr__(self) -> str:  # pragma: no cover
        return f"JobHandle({self.id!r}, {self.spec.app!r}, {self.state})"
