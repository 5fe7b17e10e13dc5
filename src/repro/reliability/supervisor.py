"""The launch supervisor: policy-driven degradation ladder.

Every ``Device.launch`` checks the device's ``failure_policy`` through
its :class:`LaunchSupervisor`. A **degradation ladder** orders
execution modes from fastest to most conservative; a launch that has to
drop a rung reports it through :meth:`LaunchSupervisor.degrade`. The
launch scope currently has one execution mode, the interpreter, and so
no rung and no reason code; the policy is still validated on every
launch. :meth:`~LaunchSupervisor.degrade` applies the device's
``failure_policy``:

``"strict"``
    Never degrade: raise :class:`~repro.errors.LaunchDegradedError`
    carrying the reason code and context.
``"degrade"`` (default)
    Degrade and emit one structured
    :class:`~repro.errors.LaunchDegradedWarning` per (reason, kernel)
    on this device -- a session launching the same kernel a thousand
    times warns once, not a thousand times.
``"best_effort"``
    Degrade silently; events are still recorded in
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
#: every launch runs on the interpreter, so no launch can degrade yet
REASON_CODES: Tuple[str, ...] = ()


@dataclass
class DegradationEvent:
    """One recorded drop down the ladder."""

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
