"""The launch supervisor: policy-driven degradation ladder.

Every ``Device.launch`` resolves its execution plan through the
device's :class:`LaunchSupervisor`.  The **degradation ladder** orders
the execution modes from fastest to most conservative::

    batched backend  ->  fork-parallel interpreter  ->  serial interpreter

Any transition *down* the ladder -- and any recovery from a shard
fault -- goes through :meth:`LaunchSupervisor.degrade`, which applies
the device's ``failure_policy``:

``"strict"``
    Never degrade or recover: raise
    :class:`~repro.errors.LaunchDegradedError` carrying the reason code
    and context.  Shard faults are not retried.
``"degrade"`` (default)
    Degrade/recover and emit one structured
    :class:`~repro.errors.LaunchDegradedWarning` per (reason, kernel)
    on this device -- a session launching the same kernel a thousand
    times warns once, not a thousand times.
``"best_effort"``
    Degrade/recover silently; events are still recorded in
    ``supervisor.events`` for post-run inspection.

Reason codes are stable, machine-readable strings (``w.reason``); the
human-readable message stays ``str(w)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import LaunchDegradedError, LaunchDegradedWarning, LaunchError

#: The valid values of ``device.failure_policy``.
FAILURE_POLICIES = ("strict", "degrade", "best_effort")

# -- machine-readable reason codes (stable API for tooling) -----------------
#: pc sampling needs per-instruction stepping; batched backend dropped.
PC_SAMPLING_BATCHED = "pc-sampling-batched"
#: pc sampling keeps one global sample clock; parallel launch dropped.
PC_SAMPLING_PARALLEL = "pc-sampling-parallel"
#: the platform cannot fork worker processes; parallel launch dropped.
FORK_UNAVAILABLE = "fork-unavailable"
#: CTAs in different shards wrote overlapping memory; serial rerun.
SHARD_WRITE_CONFLICT = "shard-write-conflict"
#: a shard worker process died without delivering its result.
SHARD_WORKER_CRASH = "shard-worker-crash"
#: a shard worker missed its heartbeat deadline and was killed.
SHARD_TIMEOUT = "shard-timeout"
#: a shard worker raised an exception; re-executed serially.
SHARD_WORKER_ERROR = "shard-worker-error"

REASON_CODES = (
    PC_SAMPLING_BATCHED,
    PC_SAMPLING_PARALLEL,
    FORK_UNAVAILABLE,
    SHARD_WRITE_CONFLICT,
    SHARD_WORKER_CRASH,
    SHARD_TIMEOUT,
    SHARD_WORKER_ERROR,
)


@dataclass
class DegradationEvent:
    """One recorded drop down the ladder (or fault recovery)."""

    reason: str
    kernel: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)


class LaunchSupervisor:
    """Per-device policy enforcement and warning deduplication."""

    def __init__(self, device):
        self.device = device
        self.events: List[DegradationEvent] = []
        self._warned: Set[Tuple[str, str]] = set()

    @property
    def policy(self) -> str:
        policy = self.device.failure_policy
        if policy not in FAILURE_POLICIES:
            raise LaunchError(
                f"unknown failure policy {policy!r}: expected one of "
                f"{', '.join(FAILURE_POLICIES)}"
            )
        return policy

    def degrade(self, reason: str, kernel: str, message: str,
                stacklevel: int = 3, **context) -> None:
        """Record one ladder drop; raise/warn according to policy.

        ``strict`` raises :class:`LaunchDegradedError` (the launch must
        not proceed degraded); ``degrade`` warns once per (reason,
        kernel) on this device; ``best_effort`` only records the event.
        """
        context = dict(context, kernel=kernel)
        if self.policy == "strict":
            raise LaunchDegradedError(message, reason=reason, context=context)
        self.events.append(DegradationEvent(reason, kernel, message, context))
        key = (reason, kernel)
        if self.policy == "degrade" and key not in self._warned:
            self._warned.add(key)
            warnings.warn(
                LaunchDegradedWarning(message, reason=reason, context=context),
                stacklevel=stacklevel,
            )

    def events_for(self, reason: str) -> List[DegradationEvent]:
        return [e for e in self.events if e.reason == reason]
