"""Seedable fault injection for the launch-reliability layer.

A :class:`FaultInjector` is attached to a device
(``device.fault_injector = FaultInjector(seed=...)``) and consulted at
a small set of named **injection points** inside the launch and trace
pipeline.  Each point fires only when an armed :class:`FaultSpec`
matches the call's context, so chaos tests can pin precise scenarios
("job 3 crashes on its first attempt", "every job hangs") and
probabilistic soak runs stay reproducible from a seed.

Injection points
----------------

``buffer_overflow``
    Fired once per instrumented launch when the hook runtime builds its
    trace buffers; forces a tiny flush size (param ``segment_rows``,
    default 256) so the columnar buffers flush many times mid-launch.
    Context: ``kernel``.

Service-scope points (the profiling-as-a-service tier;
``docs/service.md``):

``service_worker_crash``
    Fired in a persistent pool worker when it picks up a job, before
    any execution; the worker dies with ``os._exit`` -- the service
    sees a crashed worker holding a job.  Context: ``job``, ``app``,
    ``attempt``, ``worker``.
``service_job_hang``
    Fired in a persistent pool worker after it acknowledges a job; the
    worker sleeps forever without heartbeating -- the service's job
    timeout must reap it.  Context: ``job``, ``app``, ``attempt``,
    ``worker``.
``cache_corrupt_entry``
    Fired after a result-cache entry is published; flips bytes in the
    entry file so the next read fails its checksum and the entry is
    quarantined.  Context: ``key`` (cache key), ``app``.
``service_pool_loss``
    Fired in the service parent as a job is submitted; the service
    kills one live pool worker -- the "submit storm during worker
    loss" scenario.  Context: ``job``, ``app``.  Param ``worker``
    picks a specific worker id (default: the lowest live id).

Probabilistic specs are deterministic across processes: the decision
hashes ``(seed, point, context)`` instead of consuming shared RNG
state, so a forked worker reaches the same verdict its parent would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The valid injection-point names (typo guard for tests).
INJECTION_POINTS = (
    "buffer_overflow",
    "service_worker_crash",
    "service_job_hang",
    "cache_corrupt_entry",
    "service_pool_loss",
)


@dataclass
class FaultSpec:
    """One armed fault: where it fires, when, and with what params."""

    point: str
    when: Dict[str, object] = field(default_factory=dict)
    probability: float = 1.0
    count: Optional[int] = None  # max fires (per process); None = unbounded
    params: Dict[str, object] = field(default_factory=dict)
    fired: int = 0

    def matches(self, ctx: Dict[str, object]) -> bool:
        return all(ctx.get(k) == v for k, v in self.when.items())


class FaultInjector:
    """A seedable registry of armed faults, queried at injection points."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.specs: List[FaultSpec] = []
        #: process-local record of fired faults: (point, context) pairs.
        self.log: List[Tuple[str, Dict[str, object]]] = []

    def inject(
        self,
        point: str,
        when: Optional[Dict[str, object]] = None,
        probability: float = 1.0,
        count: Optional[int] = None,
        **params,
    ) -> "FaultInjector":
        """Arm a fault at ``point``; chainable.

        ``when`` is a context subset that must match for the fault to
        fire (e.g. ``{"job": 1, "attempt": 0}``); ``params`` are
        point-specific knobs handed back to the caller (e.g.
        ``segment_rows=64`` for ``buffer_overflow``).
        """
        if point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}: expected one of "
                f"{', '.join(INJECTION_POINTS)}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.specs.append(
            FaultSpec(point, dict(when or {}), probability, count, params)
        )
        return self

    def _decide(self, spec: FaultSpec, ctx: Dict[str, object]) -> bool:
        if spec.probability >= 1.0:
            return True
        # Stateless, fork-stable decision: hash seed + point + context.
        key = f"{self.seed}:{spec.point}:{sorted(ctx.items())!r}"
        return random.Random(key).random() < spec.probability

    def fire(self, point: str, **ctx) -> Optional[Dict[str, object]]:
        """Query an injection point; returns the matched spec's params
        (possibly an empty dict) when a fault fires, else ``None``."""
        for spec in self.specs:
            if spec.point != point or not spec.matches(ctx):
                continue
            if spec.count is not None and spec.fired >= spec.count:
                continue
            if not self._decide(spec, ctx):
                continue
            spec.fired += 1
            self.log.append((point, dict(ctx)))
            return dict(spec.params)
        return None

    def fires(self, point: str, **ctx) -> bool:
        """Boolean convenience over :meth:`fire`."""
        return self.fire(point, **ctx) is not None
