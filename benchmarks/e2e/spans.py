"""Layer spans for the end-to-end benchmark's traced run.

Nothing here is active unless the benchmark runs with tracing on.
:meth:`Tracer.install` rebinds the names each layer's callers actually
use -- module globals such as ``repro.optim.advisor.compile_kernels``
and class attributes such as ``Device.launch`` -- to thin wrappers that
record one span per call; :meth:`Tracer.uninstall` puts the originals
back. No file under ``src/`` is touched.

A span holds a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began (its parent), the request
it served (an app label or a service job) and a few counts read from
the call's arguments and result. Spans stay in memory; the benchmark
turns them into per-layer numbers with :func:`layer_metrics` and into a
Chrome trace-event file (loadable in Perfetto) with
:func:`chrome_trace`.

Self time is a span's duration minus the time its child spans cover, so
``gpu.launch_self_s`` excludes the analyzer updates a fused launch makes
and ``optim.oracle_self_s`` excludes the launches the oracle search
runs.

Service pool workers are forked from the traced process and inherit the
wrappers, but a span recorded in a worker never reaches the parent, so
the wrappers call straight through in any process other than the one
that installed them: service-side layer numbers come from parent-side
spans (submit, cache reads and writes) and job-handle observations only.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: (module, attribute, span name): module-level functions, rebound in
#: the module whose callers use them.
FUNCTION_SPANS = (
    ("repro.optim.advisor", "compile_kernels", "frontend.compile"),
    # the service hashes each app's optimized IR through this binding
    ("repro.frontend.dsl", "compile_kernels", "frontend.compile"),
    ("repro.optim.advisor", "reuse_distance_analysis", "analysis.reuse"),
    ("repro.optim.advisor", "memory_divergence_analysis", "analysis.batch"),
    ("repro.optim.advisor", "branch_divergence_analysis", "analysis.batch"),
    ("repro.optim.advisor", "arithmetic_analysis", "analysis.batch"),
    ("repro.optim.advisor", "heatmap_analysis", "analysis.batch"),
    ("repro.optim.advisor", "overhead_report", "analysis.batch"),
    ("repro.optim.advisor", "predict_optimal_warps", "optim.predict"),
    ("repro.optim.advisor", "oracle_bypass_search", "optim.oracle"),
    ("repro.export", "profile_export", "export.build"),
    ("repro.export", "export_json", "export.serialize"),
)

_JIT_KEYS = ("hits", "misses", "specializations")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "args")

    def __init__(self, name: str, start: float, parent: int,
                 request: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.args: Dict[str, object] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _pass_manager_span(args) -> str:
    """Name a ``PassManager.run`` span after the pipeline it runs."""
    names = [type(p).__name__ for p in args[0].passes]
    if any(n.endswith("InstrumentationPass") for n in names):
        return "passes.instrument"
    if "HorizontalBypassPass" in names:
        return "passes.bypass"
    return "passes.optimize"


def _ir_instructions(module) -> int:
    return sum(
        len(block)
        for fn in module.functions.values()
        if not fn.is_declaration
        for block in fn.blocks
    )


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        #: request id stamped on spans that do not name their own.
        self.request: Optional[str] = None
        self._open: List[int] = []
        self._pid = os.getpid()
        self._undo: List[tuple] = []
        #: per device: last JIT-cache snapshot and supervisor event count,
        #: so each launch span carries only its own deltas.
        self._device_seen = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------
    def _begin(self, name: str, request: Optional[str] = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent,
                               request or self.request))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around the benchmark's own code (a pass, an operation)."""
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._end(index)

    def wrap(self, fn: Callable, name, after: Optional[Callable] = None,
             request: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a span name or a function of the positional
        arguments; ``after(span, args, kwargs, result)`` adds counts;
        ``request(args, kwargs)`` names the request when the caller's
        context does not.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            index = tracer._begin(
                name(args) if callable(name) else name,
                request(args, kwargs) if request is not None else None,
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(index)
            if after is not None:
                after(tracer.spans[index], args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_host_method(self, cls, attr: str, name: str) -> None:
        """Span a program's host method without moving its call site.

        ``@host_function`` records the frame that calls it on the host
        shadow stack; wrapping the inner function and re-decorating keeps
        that frame the program's real caller.
        """
        from repro.host.shadow_stack import host_function

        original = cls.__dict__[attr]
        if getattr(original, "__wrapped_host_function__", False):
            replacement = host_function(
                self.wrap(original.__wrapped__, name)
            )
        else:
            replacement = self.wrap(original, name)
        self._patch(cls, attr, replacement)

    def install(self) -> None:
        from repro.analysis.aggregates import AnalyzerBank
        from repro.apps.registry import TABLE2
        from repro.gpu.device import Device
        from repro.optim.advisor import CUDAAdvisor, GPUProgram
        from repro.passes.manager import PassManager
        from repro.service.cache import ResultCache
        from repro.service.service import ProfilingService

        after = {"export.serialize": self._after_serialize,
                 "optim.oracle": self._after_oracle}
        for module_name, attr, name in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(getattr(module, attr), name,
                                                after.get(name)))
        self._patch(PassManager, "run", self.wrap(
            PassManager.run, _pass_manager_span, self._after_passes
        ))
        self._patch(Device, "load_module",
                    self.wrap(Device.load_module, "gpu.load"))
        self._patch(Device, "launch",
                    self.wrap(Device.launch, "gpu.launch", self._after_launch))
        for attr in ("update_memory", "update_block", "update_arith"):
            self._patch(AnalyzerBank, attr, self.wrap(
                getattr(AnalyzerBank, attr), "analysis.update"
            ))
        self._patch(AnalyzerBank, "result",
                    self.wrap(AnalyzerBank.result, "analysis.finalize"))
        self._patch(CUDAAdvisor, "profile", self.wrap(
            CUDAAdvisor.profile, "advisor.profile", self._after_profile
        ))
        self._patch(CUDAAdvisor, "evaluate_bypass", self.wrap(
            CUDAAdvisor.evaluate_bypass, "advisor.evaluate_bypass"
        ))
        self._patch(ProfilingService, "submit",
                    self.wrap(ProfilingService.submit, "service.submit"))
        self._patch(ResultCache, "get",
                    self.wrap(ResultCache.get, "service.cache_get"))
        self._patch(ResultCache, "put", self.wrap(
            ResultCache.put, "service.cache_put",
            request=lambda args, kwargs: (kwargs.get("meta") or {}).get("job"),
        ))
        for cls in {info.builder for info in TABLE2} | {GPUProgram}:
            for attr, name in (("prepare", "host.prepare"),
                               ("check", "host.check")):
                if attr in cls.__dict__:
                    self._wrap_host_method(cls, attr, name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counts read at the boundary -----------------------------------------
    def _after_launch(self, span: Span, args, kwargs, result) -> None:
        device = args[0]
        hooks = kwargs.get("hooks", args[6] if len(args) > 6 else None)
        span.args.update(
            kernel=args[2], instrumented=hooks is not None,
            insns=result.instructions, cycles=result.cycles,
        )
        seen = self._device_seen.setdefault(
            device, {"jit": dict.fromkeys(_JIT_KEYS, 0), "events": 0}
        )
        if device.backend == "batched":
            stats = device.jit_cache.stats.snapshot()
            span.args["jit"] = {
                k: stats[k] - seen["jit"][k] for k in _JIT_KEYS
            }
            seen["jit"] = {k: stats[k] for k in _JIT_KEYS}
        # read the private slot, as the exporter does, so tracing never
        # creates a supervisor the untraced run would not have
        supervisor = getattr(device, "_supervisor", None)
        events = len(supervisor.events) if supervisor is not None else 0
        span.args["degradations"] = events - seen["events"]
        seen["events"] = events

    def _after_passes(self, span: Span, args, kwargs, result) -> None:
        if span.name == "passes.instrument":
            span.args["ir_insns"] = _ir_instructions(args[1])

    def _after_profile(self, span: Span, args, kwargs, report) -> None:
        profiles = report.session.profiles
        span.args["rows"] = sum(
            len(p.memory_records) + len(p.block_records)
            + len(p.arith_records)
            for p in profiles
        )
        span.args["dropped_rows"] = sum(p.dropped_records for p in profiles)

    def _after_serialize(self, span: Span, args, kwargs, text) -> None:
        span.args["bytes"] = len(text.encode("utf-8"))

    def _after_oracle(self, span: Span, args, kwargs, search) -> None:
        span.args["runs"] = len(search.cycles_by_warps)


# -- turning spans into numbers ---------------------------------------------

def self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.seconds for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own


def nesting_errors(spans: Sequence[Span], slack: float = 1e-6) -> List[str]:
    """Children that start before, end after, or together outlast their
    parent; empty for a well-formed trace."""
    errors = []
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        covered[span.parent] += span.seconds
        if span.start < parent.start - slack or span.end > parent.end + slack:
            errors.append(f"span {i} ({span.name}) leaves parent "
                          f"{span.parent} ({parent.name})")
    for i, span in enumerate(spans):
        if covered[i] > span.seconds + slack:
            errors.append(f"children of span {i} ({span.name}) cover "
                          f"{covered[i]:.6f}s of its {span.seconds:.6f}s")
    return errors


def _ancestor(spans: Sequence[Span], index: int, name: str) -> int:
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def layer_metrics(spans: Sequence[Span], own: Sequence[float],
                  lo: int, hi: int) -> Dict[str, float]:
    """Per-layer numbers for the spans ``lo:hi`` (one benchmark pass).

    ``own`` is :func:`self_seconds` over the whole trace; spans of one
    pass only ever parent spans of the same pass.
    """
    self_s: Dict[str, float] = {}
    count: Dict[str, int] = {}
    total: Dict[str, float] = {}

    def add(key: str, value) -> None:
        total[key] = total.get(key, 0) + value

    hook = {}  # advisor.profile span -> [instrumented self, baseline self]
    for i in range(lo, hi):
        span = spans[i]
        self_s[span.name] = self_s.get(span.name, 0.0) + own[i]
        count[span.name] = count.get(span.name, 0) + 1
        args = span.args
        if span.name == "gpu.launch":
            add("insns", args["insns"])
            add("cycles", args["cycles"])
            add("degradations", args["degradations"])
            for key, value in args.get("jit", {}).items():
                add(f"jit_{key}", value)
            if args["instrumented"]:
                add("instrumented_launch_s", span.seconds)
            owner = _ancestor(spans, i, "advisor.profile")
            if owner >= 0:
                both = hook.setdefault(owner, [0.0, 0.0, 0, 0])
                slot = 0 if args["instrumented"] else 1
                both[slot] += own[i]
                both[slot + 2] += 1
        for key in ("ir_insns", "rows", "dropped_rows", "bytes", "runs"):
            if key in args:
                add(key, args[key])

    insns = total.get("insns", 0)
    launch_self = self_s.get("gpu.launch", 0.0)
    instrumented_s = total.get("instrumented_launch_s", 0.0)
    return {
        "frontend.compile_s": self_s.get("frontend.compile", 0.0),
        "passes.optimize_s": self_s.get("passes.optimize", 0.0),
        "passes.instrument_s": self_s.get("passes.instrument", 0.0),
        "passes.ir_insns": total.get("ir_insns", 0),
        "gpu.load_s": self_s.get("gpu.load", 0.0),
        "gpu.launch_self_s": launch_self,
        "gpu.launches": count.get("gpu.launch", 0),
        "gpu.dyn_insns": insns,
        "gpu.us_per_insn": 1e6 * launch_self / insns if insns else 0.0,
        "gpu.sim_cycles": total.get("cycles", 0),
        "gpu.jit_hits": total.get("jit_hits", 0),
        "gpu.jit_misses": total.get("jit_misses", 0),
        "gpu.jit_specializations": total.get("jit_specializations", 0),
        "host.prepare_s": self_s.get("host.prepare", 0.0),
        "host.check_s": self_s.get("host.check", 0.0),
        "profiler.rows": total.get("rows", 0),
        "profiler.dropped_rows": total.get("dropped_rows", 0),
        "profiler.rows_per_s": (
            total.get("rows", 0) / instrumented_s if instrumented_s else 0.0
        ),
        "profiler.hook_s": sum(
            instr - base for instr, base, n_instr, n_base in hook.values()
            if n_instr and n_base
        ),
        "analysis.batch_s": self_s.get("analysis.batch", 0.0),
        "analysis.reuse_s": self_s.get("analysis.reuse", 0.0),
        "analysis.update_s": self_s.get("analysis.update", 0.0),
        "analysis.updates": count.get("analysis.update", 0),
        "analysis.finalize_s": self_s.get("analysis.finalize", 0.0),
        "optim.predict_s": self_s.get("optim.predict", 0.0),
        "optim.oracle_self_s": self_s.get("optim.oracle", 0.0),
        "optim.bypass_runs": total.get("runs", 0),
        "export.build_s": self_s.get("export.build", 0.0),
        "export.serialize_s": self_s.get("export.serialize", 0.0),
        "export.bytes": total.get("bytes", 0),
        "service.submit_s": self_s.get("service.submit", 0.0),
        "service.cache_get_s": self_s.get("service.cache_get", 0.0),
        "service.cache_put_s": self_s.get("service.cache_put", 0.0),
        "reliability.degradations": total.get("degradations", 0),
        "trace.spans": hi - lo,
    }


def chrome_trace(spans: Sequence[Span], process: str) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    origin = min((s.start for s in spans), default=0.0)
    pid = os.getpid()
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
        "args": {"name": process},
    }]
    for i, span in enumerate(spans):
        args = {"id": i, "parent": span.parent, "request": span.request}
        args.update(span.args)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": pid,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
