"""Launch reliability: supervisor and fault injection.

The reliability layer turns scattered one-off fallbacks into an
explicit, policy-driven system (see ``docs/reliability.md``):

* :mod:`repro.reliability.supervisor` -- the degradation ladder
  (batched -> serial interpreter), failure policies, machine-readable
  reason codes, per-device warning deduplication.
* :mod:`repro.reliability.faultinject` -- the seedable fault-injection
  framework driving the chaos test suite.
"""

from repro.reliability.faultinject import INJECTION_POINTS, FaultInjector
from repro.reliability.supervisor import (
    FAILURE_POLICIES,
    REASON_CODES,
    DegradationEvent,
    LaunchSupervisor,
)

__all__ = [
    "FAILURE_POLICIES",
    "REASON_CODES",
    "INJECTION_POINTS",
    "DegradationEvent",
    "FaultInjector",
    "LaunchSupervisor",
]
