"""Launch reliability: fault injection.

* :mod:`repro.reliability.faultinject` -- the seedable fault-injection
  framework driving the chaos test suites (see ``docs/reliability.md``).

A launch has no fallback to supervise; the one failure policy is the
service's job-scope ladder (:mod:`repro.service`).
"""

from repro.reliability.faultinject import INJECTION_POINTS, FaultInjector

__all__ = [
    "INJECTION_POINTS",
    "FaultInjector",
]
