"""The four workloads of the end-to-end benchmark.

Each workload is a fixed list of operations built from ``--seed``; one
*pass* runs every operation once. Seed 0 uses each app's registry data
seed; any other seed draws every app's ``seed=`` keyword (and the
service job order) from ``random.Random(seed)``. The program only ever
sees the generated inputs.

``advise-suite``
    The ten Table 2 apps through ``CUDAAdvisor()`` defaults (interpreter,
    in-RAM batch analysis, memory+blocks, overhead baseline on), then
    ``profile_export`` + ``export_json``: what ``repro export <app>``
    does, one caller after another.
``trace-heavy``
    Five apps at scaled-up inputs, memory+blocks+arith with heat maps,
    fused in-flight analysis and no baseline run: the service's job
    shape with row emission and aggregate updates dominating.
``bypass-sweep``
    The Figure 6 16 KB experiment (scaled 2-SM Kepler, 4 KB L1) on the
    batched backend: a memory-mode fused profile, then the oracle
    threshold search, with a fresh device per run.
``service-mix``
    A ``ProfilingService`` (2 fork workers, fresh cache directory)
    driven as a closed loop with 2 jobs outstanding over a stratified
    draw of seeded specs, so about 30% of the jobs repeat one already
    submitted.

Operation outcomes (export digests, bypass results) are checked against
``expected.json`` at seed 0, across passes, and between repeated
service jobs.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.export as export
from repro.apps import build_app
from repro.gpu.arch import KEPLER_K40C
from repro.gpu.device import Device
from repro.gpu.timing import TimingParams
from repro.host.runtime import CudaRuntime
from repro.optim.advisor import CUDAAdvisor

AppOp = Tuple[str, dict]  # (app name, size keywords)

# -- inputs -----------------------------------------------------------------

#: Registry inputs, except the three apps whose registry input alone
#: would take most of a pass (lavaMD, syrk, syr2k), which run smaller.
ADVISE_APPS: Tuple[AppOp, ...] = (
    ("backprop", {}), ("bfs", {}), ("hotspot", {}),
    ("lavaMD", {"par_per_box": 36}), ("nn", {}), ("nw", {}),
    ("srad_v2", {}), ("bicg", {}), ("syrk", {"n": 40, "m": 40}),
    ("syr2k", {"n": 40, "m": 40}),
)

#: bfs, hotspot and srad_v2 at the >=4x inputs of the RSS gate in
#: bench_simulator_speed.py; syrk at its registry size and nw at 2.25x
#: keep one pass inside the benchmark's run window.
TRACE_HEAVY_APPS: Tuple[AppOp, ...] = (
    ("bfs", {"num_nodes": 8192}), ("hotspot", {"n": 64, "steps": 16}),
    ("srad_v2", {"n": 64, "iterations": 8}), ("syrk", {"n": 64}),
    ("nw", {"n": 192}),
)
TRACE_HEAVY_CONFIG = dict(
    modes=("memory", "blocks", "arith"), heatmap=True, fused_drain=True,
    measure_overhead=False,
)

#: Figure 6's bypassing-favorable apps at registry inputs.
BYPASS_APPS: Tuple[AppOp, ...] = (
    ("bfs", {}), ("hotspot", {}), ("srad_v2", {}), ("syrk", {}),
    ("syr2k", {}),
)
#: The scaled GPU of the Figure 6 16 KB experiment (see
#: benchmarks/common.py): 2 SMs, L1 = 16 KB / 4, 16 MSHRs.
BYPASS_ARCH = dataclasses.replace(
    KEPLER_K40C, num_sms=2, l1_size=16 * 1024 // 4, mshr_entries=16
)
BYPASS_TIMING = TimingParams(mshr_fail_stall=60)
#: Seed-0 geomean of the predicted-threshold bars, as printed in
#: benchmarks/results/fig06_bypass_kepler.txt (16 KB table).
FIG06_PRED_GEOMEAN = 0.8209

#: Service job apps, at inputs small enough that one pass of the job
#: list fits the run window.
SERVICE_APPS: Tuple[AppOp, ...] = (
    ("nn", {}), ("bicg", {}), ("hotspot", {"n": 48}),
    ("bfs", {"num_nodes": 1024}), ("srad_v2", {"n": 48}),
    ("backprop", {"input_units": 512}), ("nw", {"n": 64}),
)
SERVICE_WORKERS = 2  # = nproc of the reference box; also jobs in flight
#: (specs in the pool, jobs submitted, distinct specs among them)
SERVICE_DRAW = (160, 128, 88)
#: client poll interval while both outstanding jobs are running
POLL_S = 0.002

#: One small app per workload shape, for the self-test.
TINY = {
    "advise-suite": ((("nn", {"num_records": 1024}),), None),
    "trace-heavy": ((("hotspot", {"n": 32, "steps": 2}),), None),
    "bypass-sweep": ((("hotspot", {"n": 32, "steps": 2}),), None),
    "service-mix": (
        (("nn", {"num_records": 1024}), ("srad_v2", {"n": 16})),
        (6, 8, 5),
    ),
}

NAMES = ("advise-suite", "trace-heavy", "bypass-sweep", "service-mix")


def _split(total: int, parts: int) -> List[int]:
    """``total`` as ``parts`` near-equal whole numbers, larger first."""
    base, extra = divmod(total, parts)
    return [base + (i < extra) for i in range(parts)]


def _bfs_depth(kwargs: dict) -> int:
    return int(build_app("bfs", **kwargs).graph.cpu_bfs_costs().max())


def _data_seeds(rng: random.Random, app: str, kwargs: dict,
                count: int) -> List[int]:
    """``count`` drawn ``seed=`` keywords that keep the app's work.

    Of these apps only bfs does data-dependent work: its graph seed sets
    the BFS depth and so the number of launches. bfs seeds are redrawn
    until the graph is exactly as deep as the registry graph of the same
    size, so the seed changes the data and not the amount of work.
    """
    depth = _bfs_depth(kwargs) if app == "bfs" else None
    seeds = []
    while len(seeds) < count:
        seed = rng.randrange(1, 2 ** 31)
        if depth is None or _bfs_depth(dict(kwargs, seed=seed)) == depth:
            seeds.append(seed)
    return seeds


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- results ----------------------------------------------------------------

@dataclass
class OpResult:
    """One operation: its label, host seconds and checked outcome."""

    label: str
    seconds: float
    outcome: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class PassResult:
    wall: float
    ops: List[OpResult]
    #: layer observations made outside spans (service handles)
    observed: Dict[str, float] = field(default_factory=dict)


def _maybe_span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


# -- sequential app workloads -----------------------------------------------

class _BypassAdvisor(CUDAAdvisor):
    """CUDAAdvisor on the Figure 6 scaled GPU's timing parameters."""

    def _fresh_runtime(self, profiler=None):
        device = Device(self.arch, timing_params=BYPASS_TIMING)
        device.backend = self.backend
        return CudaRuntime(device, profiler=profiler)


def _export_op(advisor_kwargs: dict):
    def op(program):
        report = CUDAAdvisor(**advisor_kwargs).profile(program)
        doc = export.profile_export(report)
        return doc, export.export_json(doc)

    def outcome(result) -> dict:
        doc, text = result
        export.validate(doc)
        return {"sha256": _sha256(text)}

    return op, outcome


def _bypass_op(program):
    advisor = _BypassAdvisor(
        arch=BYPASS_ARCH, modes=("memory",), measure_overhead=False,
        fused_drain=True, backend="batched",
    )
    report = advisor.profile(program)
    return advisor.evaluate_bypass(program, report.bypass_prediction)


def _bypass_outcome(result) -> dict:
    search, prediction = result
    return {
        "oracle_norm": search.oracle_normalized,
        "pred_norm": search.normalized(prediction.optimal_warps),
        "oracle_warps": search.best_warps,
        "pred_warps": prediction.optimal_warps,
    }


class AppWorkload:
    """One caller running one operation per app, in order."""

    def __init__(self, name: str, apps: Sequence[AppOp], seed: int):
        self.name = name
        rng = random.Random(seed)
        self.inputs = [
            (app, kwargs if seed == 0
             else dict(kwargs, seed=_data_seeds(rng, app, kwargs, 1)[0]))
            for app, kwargs in apps
        ]
        if name == "bypass-sweep":
            self.op, self.outcome = _bypass_op, _bypass_outcome
        elif name == "trace-heavy":
            self.op, self.outcome = _export_op(TRACE_HEAVY_CONFIG)
        else:
            self.op, self.outcome = _export_op({})
        self.programs: List[Tuple[str, object]] = []

    def setup(self) -> None:
        self.programs = [
            (app, build_app(app, **kwargs)) for app, kwargs in self.inputs
        ]

    def prepare_pass(self) -> None:
        pass

    def run_pass(self, tracer=None) -> PassResult:
        ops = []
        with _maybe_span(tracer, "bench.pass"):
            for label, program in self.programs:
                if tracer is not None:
                    tracer.request = label
                # garbage left by the previous operation is not this
                # one's cost, and collecting it keeps peak RSS repeatable
                gc.collect()
                start = time.perf_counter()
                try:
                    with _maybe_span(tracer, "bench.op"):
                        result = self.op(program)
                    seconds = time.perf_counter() - start
                    ops.append(OpResult(label, seconds, self.outcome(result)))
                except Exception as exc:  # noqa: BLE001 -- counted as failed
                    ops.append(OpResult(label, time.perf_counter() - start,
                                        error=_error(exc)))
        return PassResult(sum(op.seconds for op in ops), ops)

    def summary(self, first: PassResult) -> Dict[str, float]:
        """Workload-level outputs printed beside the metrics."""
        if self.name != "bypass-sweep":
            return {}
        outcomes = [op.outcome for op in first.ops if op.outcome]
        if len(outcomes) != len(first.ops):
            return {}
        return {
            "bypass_pred_norm": geomean([o["pred_norm"] for o in outcomes]),
            "bypass_oracle_norm": geomean(
                [o["oracle_norm"] for o in outcomes]
            ),
        }

    def close(self) -> None:
        pass


# -- the service workload ---------------------------------------------------

@dataclass
class _Job:
    """One submitted service job as the client observed it (host
    seconds, seen at poll granularity)."""

    label: str
    submit: float
    handle: object = None
    running: Optional[float] = None
    done: Optional[float] = None
    error: Optional[str] = None


class ServiceWorkload:
    """A closed loop of ``SERVICE_WORKERS`` clients over one service."""

    name = "service-mix"

    def __init__(self, apps: Sequence[AppOp], seed: int, draw, scratch: str):
        n_specs, n_jobs, n_distinct = draw
        rng = random.Random(seed)
        self.scratch = scratch
        self.specs: Dict[str, Tuple[str, dict]] = {}
        self.jobs: List[str] = []
        for (app, kwargs), n_var, n_job, n_new in zip(
            apps, _split(n_specs, len(apps)), _split(n_jobs, len(apps)),
            _split(n_distinct, len(apps)),
        ):
            for v, data_seed in enumerate(
                _data_seeds(rng, app, kwargs, n_var)
            ):
                self.specs[f"{app}#{v}"] = (app, dict(kwargs, seed=data_seed))
            fresh = rng.sample(range(n_var), n_new)
            repeats = [rng.choice(fresh) for _ in range(n_job - n_new)]
            self.jobs += [f"{app}#{v}" for v in fresh + repeats]
        rng.shuffle(self.jobs)
        self.service = None
        self._cache_dir: Optional[str] = None

    def setup(self) -> None:
        self.prepare_pass()

    def prepare_pass(self) -> None:
        """A fresh service and an empty cache, so every pass is alike."""
        from repro.service import ProfilingService

        gc.collect()
        self._cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        self.service = ProfilingService(
            workers=SERVICE_WORKERS, cache_dir=self._cache_dir
        )

    def run_pass(self, tracer=None) -> PassResult:
        from repro.service.jobs import FAILED, RUNNING

        svc = self.service
        jobs: List[_Job] = []
        outstanding: List[_Job] = []
        pending = list(self.jobs)
        with _maybe_span(tracer, "bench.pass"):
            start = time.perf_counter()
            while pending or outstanding:
                while pending and len(outstanding) < SERVICE_WORKERS:
                    job = _Job(pending.pop(0), time.perf_counter())
                    jobs.append(job)
                    app, kwargs = self.specs[job.label]
                    if tracer is not None:
                        tracer.request = f"job-{len(jobs)}:{job.label}"
                    try:
                        job.handle = svc.submit(app, None, kwargs)
                    except Exception as exc:  # noqa: BLE001 -- counted
                        job.error = _error(exc)
                    if job.handle is None or job.handle.done:
                        job.done = time.perf_counter()
                    else:
                        outstanding.append(job)
                if tracer is not None:
                    tracer.request = None
                progressed = False
                for job in list(outstanding):
                    job.handle.poll()
                    now = time.perf_counter()
                    if job.running is None and job.handle.state == RUNNING:
                        job.running = now
                    if job.handle.done:
                        job.done = now
                        outstanding.remove(job)
                        progressed = True
                if outstanding and not progressed:
                    time.sleep(POLL_S)
            wall = time.perf_counter() - start

        ops = []
        first_payload: Dict[str, str] = {}
        for job in jobs:
            op = OpResult(job.label, job.done - job.submit, error=job.error)
            ops.append(op)
            handle = job.handle
            if handle is None:
                continue
            if handle.state == FAILED:
                op.error = f"{handle.id} failed: {handle.error}"
                continue
            payload = handle.result_value.payload
            if job.label not in first_payload:
                first_payload[job.label] = payload
                try:
                    export.validate(json.loads(payload))
                except Exception as exc:  # noqa: BLE001 -- counted
                    op.error = _error(exc)
                    continue
            elif payload != first_payload[job.label]:
                op.error = (f"{handle.id}: payload differs from an earlier "
                            f"job of the same spec")
                continue
            op.outcome = {"sha256": _sha256(payload)}

        counters = svc.counters
        ran = [j for j in jobs if j.running is not None]
        repeats = counters["cache_hits"] + counters["coalesced"]
        observed = {
            "service.repeat_ratio": repeats / max(1, counters["submitted"]),
            "service.repeats": repeats,
            "service.submitted": counters["submitted"],
            "service.cache_hits": counters["cache_hits"],
            "service.coalesced": counters["coalesced"],
            "service.executed": counters["jobs_executed"],
            "service.retries": counters["retries"],
            "service.queue_wait_p50_s": _median(
                [j.running - j.submit for j in ran]
            ),
            "service.run_p50_s": _median([j.done - j.running for j in ran]),
            "service.degradations": sum(
                len(j.handle.reasons) for j in jobs if j.handle is not None
            ),
        }
        self.close()
        return PassResult(wall, ops, observed)

    def summary(self, first: PassResult) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def make(name: str, seed: int, tiny: bool, scratch: str):
    """Build a workload (no heavy work happens until ``setup``)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}: pick from "
                         f"{', '.join(NAMES)}")
    if name == "service-mix":
        apps, draw = TINY[name] if tiny else (SERVICE_APPS, SERVICE_DRAW)
        return ServiceWorkload(apps, seed, draw, scratch)
    if tiny:
        apps = TINY[name][0]
    else:
        apps = {"advise-suite": ADVISE_APPS, "trace-heavy": TRACE_HEAVY_APPS,
                "bypass-sweep": BYPASS_APPS}[name]
    return AppWorkload(name, apps, seed)


# -- checks -----------------------------------------------------------------

def check(workload, passes: List[PassResult], seed: int,
          expected: Optional[dict], tiny: bool) -> List[str]:
    """One line per failed operation, plus the Figure 6 check."""
    first = outcomes(passes[0])
    check_expected = seed == 0 and expected is not None
    failures = []
    for i, p in enumerate(passes, start=1):
        for op in p.ops:
            if op.error:
                failures.append(f"{op.label}: {op.error}")
            elif op.outcome != first.get(op.label):
                failures.append(f"{op.label}: pass {i} outcome differs "
                                f"from pass 1")
            elif check_expected and expected.get(op.label) != op.outcome:
                failures.append(f"{op.label}: outcome {op.outcome} != "
                                f"expected {expected.get(op.label)}")
    if check_expected:
        if workload.name == "bypass-sweep" and not tiny:
            pred = workload.summary(passes[0]).get("bypass_pred_norm")
            if pred is None or round(pred, 4) != FIG06_PRED_GEOMEAN:
                failures.append(f"bypass_pred_norm {pred} != "
                                f"{FIG06_PRED_GEOMEAN} (Figure 6, 16 KB)")
    return failures


def outcomes(first: PassResult) -> Dict[str, dict]:
    """Label -> outcome of one pass, for writing ``expected.json``."""
    return {op.label: op.outcome for op in first.ops if op.outcome}
