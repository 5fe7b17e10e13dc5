"""Profiling-as-a-service: job scheduler + crash-safe result cache.

The production tier on top of the reliability layer (docs/service.md):

* :mod:`repro.service.service` -- :class:`ProfilingService`, the
  long-lived scheduler with the async submit/poll/result/wait API.
* :mod:`repro.service.pool` -- the persistent, self-healing worker
  pool of :class:`~repro.forked.ForkedChild` workers (a per-attempt
  job deadline counted from dispatch, crash detection,
  respawn-or-shrink).
* :mod:`repro.service.cache` -- the content-addressed crash-safe
  on-disk result cache (atomic publication, checksum + quarantine).
* :mod:`repro.service.jobs` -- job specs, handles, status streaming
  and the service-scope machine-readable reason codes.
* :mod:`repro.service.worker` -- the worker loop and the single
  ``run_job`` definition shared by pool workers and serial fallback.
"""

from repro.service.cache import ResultCache
from repro.service.jobs import (
    CACHE_HIT,
    DEGRADED_SERIAL,
    FAILURE_POLICIES,
    FRESH,
    RETRIED,
    SERVICE_REASON_CODES,
    JobHandle,
    JobResult,
    JobSpec,
    ServiceError,
)
from repro.service.pool import WorkerPool
from repro.service.service import COALESCED, ProfilingService
from repro.service.worker import run_job

__all__ = [
    "CACHE_HIT",
    "COALESCED",
    "DEGRADED_SERIAL",
    "FAILURE_POLICIES",
    "FRESH",
    "RETRIED",
    "SERVICE_REASON_CODES",
    "JobHandle",
    "JobResult",
    "JobSpec",
    "ProfilingService",
    "ResultCache",
    "ServiceError",
    "WorkerPool",
    "run_job",
]
