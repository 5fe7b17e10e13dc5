"""End-to-end profiling benchmark: one command, every metric, checked outputs.

Run from anywhere inside a checkout (the benchmark finds ``src/`` and
``BENCHMARK.json`` relative to this file)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace 0|1|PATH]

Each workload runs in a fresh ``python3`` child process, so set-up time
and peak RSS belong to that workload alone. Inside the child one *pass*
runs the workload's fixed operation list (see ``workloads.py``); passes
repeat while another one still fits in ``--seconds`` (at least one
runs). ``setup_s`` is the median, over five fresh processes, of the host
time from process start to ready (imports done, apps built, service pool
spawned).

``--trace 0`` (default) prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs a separate traced child and
prints the per-layer metrics instead, writing a Chrome trace-event file
under ``benchmarks/e2e/out/``; ``--trace PATH`` does both, writes the
trace to PATH and prints the tracing overhead (traced minus untraced
``wall_s``). Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Outputs are checked on every run: each export validates against the
bundled schema, every program's own ``check`` passes, repeated service
jobs return byte-identical payloads, every pass reproduces the first,
and at seed 0 every outcome matches ``expected.json``. A failed check
makes ``correct`` false and the exit code 1. Exit code 2 means the
benchmark could not run at all (for example, no ``src/`` next to it);
no result line is printed then.

``--write-expected`` re-records ``expected.json`` from a seed-0 run
(add ``--tiny`` for the self-test's small inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: fresh-process set-up measurements per untraced run (the median is
#: reported); the measuring child is one of them.
SETUP_SAMPLES = 5
#: hard limits on one child process, seconds (the whole invocation of
#: one workload must end within 180 s).
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
#: prefix of the protocol lines a child writes to standard output.
MARK = "e2e-bench:"
#: per-layer units whose values are timings (median over passes);
#: every other per-layer value is a count that must repeat exactly.
TIMED_UNITS = ("s", "us", "1/s")
#: service observations that fill the per-layer service.* metrics.
SERVICE_OBSERVED = (
    "service.repeat_ratio", "service.executed", "service.retries",
    "service.queue_wait_p50_s", "service.run_p50_s",
)


class BenchError(Exception):
    """The benchmark itself could not run (exit 2, no result line)."""


# -- child side -------------------------------------------------------------

def _emit(kind: str, payload=None) -> None:
    line = MARK + kind
    if payload is not None:
        line += " " + json.dumps(payload, sort_keys=True)
    print(line, flush=True)


def _peak_rss_kb() -> int:
    """Largest resident set of this process and its reaped children
    (service pool workers), in KiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _pass_layers(workload, tracer, own, bounds, result) -> Dict[str, float]:
    import spans

    layers = spans.layer_metrics(tracer.spans, own, *bounds)
    for key in SERVICE_OBSERVED:
        layers[key] = result.observed.get(key, 0)
    layers["reliability.degradations"] += result.observed.get(
        "service.degradations", 0
    )
    summary = workload.summary(result)
    layers["optim.bypass_pred_norm"] = summary.get("bypass_pred_norm", 0.0)
    layers["optim.bypass_oracle_norm"] = summary.get(
        "bypass_oracle_norm", 0.0
    )
    layers["trace.wall_s"] = result.wall
    return layers


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    workload = tracer = None
    try:
        workload = workloads.make(args.workload[0], args.seed, args.tiny,
                                  scratch)
        workload.setup()
        _emit("ready")
        if args.child == "setup":
            return 0

        if args.trace_out:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        passes, bounds = [], []
        start = time.perf_counter()
        while True:
            if passes:
                workload.prepare_pass()
            lo = len(tracer.spans) if tracer else 0
            passes.append(workload.run_pass(tracer))
            bounds.append((lo, len(tracer.spans) if tracer else 0))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall for p in passes) \
                    > args.seconds:
                break
        workload.close()

        expected = None
        if args.expected != "none":
            with open(args.expected) as f:
                sizes = json.load(f)
            expected = sizes.get("tiny" if args.tiny else "full", {}).get(
                workload.name, {}
            )
        result = {
            "workload": workload.name,
            "seed": args.seed,
            "passes": len(passes),
            "pass_wall_s": [p.wall for p in passes],
            "op_s": [op.seconds for p in passes for op in p.ops],
            "attempted": sum(len(p.ops) for p in passes),
            "failures": workloads.check(workload, passes, args.seed,
                                        expected, args.tiny),
            "peak_rss_kb": _peak_rss_kb(),
            "summary": workload.summary(passes[0]),
            "observed": passes[0].observed,
            "outcomes": workloads.outcomes(passes[0]),
        }
        if tracer is not None:
            own = spans.self_seconds(tracer.spans)
            result["layers"] = [
                _pass_layers(workload, tracer, own, b, p)
                for b, p in zip(bounds, passes)
            ]
            result["nesting_errors"] = spans.nesting_errors(tracer.spans)
            trace = spans.chrome_trace(
                tracer.spans, f"{workload.name} seed {args.seed}"
            )
            with open(args.trace_out, "w") as f:
                json.dump(trace, f)
        _emit("result", result)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


# -- parent side ------------------------------------------------------------

def _spawn(args, name: str, kind: str, trace_out: Optional[str] = None):
    """Start one child; returns (seconds to ready, result or None)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--expected", args.expected,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    timeout = SETUP_TIMEOUT_S if kind == "setup" else MEASURE_TIMEOUT_S
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith(MARK + "ready"):
                ready = time.perf_counter() - start
            elif line.startswith(MARK + "result "):
                result = json.loads(line[len(MARK + "result "):])
            else:
                sys.stderr.write(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready is None or (kind == "measure" and result is None):
        raise BenchError(f"{name} {kind} child exited with code {code}")
    return ready, result


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _end_to_end(run: dict, setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["pass_wall_s"]),
        "op_p50_s": statistics.median(run["op_s"]),
        "op_p90_s": _p90(run["op_s"]),
        "peak_rss_mb": run["peak_rss_kb"] * 1024 / 1e6,
    }


def _per_layer(run: dict, units: Dict[str, str]) -> Dict[str, float]:
    """Median over passes for timings; counts must repeat exactly."""
    per_pass = run["layers"]
    if set(per_pass[0]) != set(units):
        raise BenchError(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(per_pass[0]) ^ set(units))}"
        )
    layers = {}
    for name, unit in units.items():
        values = [p[name] for p in per_pass]
        if unit in TIMED_UNITS:
            layers[name] = statistics.median(values)
        else:
            layers[name] = values[0]
            if any(v != values[0] for v in values):
                run["failures"].append(f"{name} differs across passes: "
                                       f"{values}")
    return layers


def _print_metrics(title: str, metrics: Dict[str, float],
                   units: Dict[str, str], notes: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<26} {value:>16.6g} {units[name]:<6} {note}")


def _report_run(name: str, run: dict, metrics: Dict[str, float],
                units: Dict[str, str], traced: bool) -> None:
    mode = "traced" if traced else "untraced"
    title = (f"== {name}: seed {run['seed']}, {run['passes']} pass(es), "
             f"{len(run['op_s'])} operations, {mode} ==")
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh-process set-ups",
        "op_p50_s": f"{len(run['op_s'])} operation latencies",
        "op_p90_s": f"{len(run['op_s'])} operation latencies",
    }
    if traced:
        notes["profiler.hook_s"] = "instrumented minus baseline launch self time"
        if name == "service-mix":
            for key in units:
                if key.startswith("service."):
                    notes[key] = "parent-side spans/handle polls only"
    _print_metrics(title, metrics, units, notes)
    for key, value in run["summary"].items():
        print(f"  {key:<26} {value:>16.6g} ratio  geomean normalized "
              f"simulated cycles")
    observed = run["observed"]
    if "service.submitted" in observed:
        print(f"  service repeats: {observed['service.repeats']} of "
              f"{observed['service.submitted']} submitted "
              f"({observed['service.cache_hits']} cache hits, "
              f"{observed['service.coalesced']} coalesced), "
              f"{observed['service.executed']} executed")
    if traced and name == "service-mix":
        print("  note: service workers are separate processes; their spans "
              "never reach the parent, so service layer numbers come from "
              "parent-side spans and handle observations only")
    failures = run["failures"]
    failed = min(len(failures), run["attempted"])
    print(f"  failed_frac {failed / run['attempted']:.6g} ({failed} of "
          f"{run['attempted']} operations failed a check)")
    for line in failures:
        print(f"    FAIL {line}")


def _merge_traces(paths: List[str], target: str) -> None:
    events = []
    for path in paths:
        with open(path) as f:
            events += json.load(f)["traceEvents"]
        os.unlink(path)
    with open(target, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def parent_main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    spec = json.loads(SPEC.read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        raise BenchError(f"unknown workload(s): {', '.join(sorted(unknown))}")
    if args.write_expected:
        if args.seed != 0:
            raise BenchError("--write-expected records seed 0 only")
        args.expected, args.trace = "none", "0"
    modes = {"0": (False,), "1": (True,)}.get(args.trace, (False, True))
    trace_path = None if args.trace in ("0", "1") else args.trace
    OUT.mkdir(exist_ok=True)

    metrics: Dict[str, float] = {}
    attempted = failed = 0
    recorded: Dict[str, dict] = {}
    trace_files: List[str] = []

    def put(name: str, values: Dict[str, float]) -> None:
        for key, value in values.items():
            metrics[key if len(names) == 1 else f"{name}/{key}"] = value

    for name in names:
        wall = None
        for is_traced in modes:
            trace_out = None
            if is_traced:
                trace_out = str(OUT / f"trace-{name}-seed{args.seed}.json")
                trace_files.append(trace_out)
            setups = [] if is_traced else [
                _spawn(args, name, "setup")[0]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            ready, run = _spawn(args, name, "measure", trace_out)
            if is_traced:
                values = _per_layer(run, layer_units)
                units = layer_units
            else:
                setups.append(ready)
                values = _end_to_end(run, setups)
                units = e2e_units
                wall = values["wall_s"]
            _report_run(name, run, values, units, is_traced)
            if is_traced and wall is not None:
                print(f"  tracing overhead: "
                      f"{values['trace.wall_s'] - wall:+.4f} s "
                      f"(traced minus untraced wall_s)")
            put(name, values)
            attempted += run["attempted"]
            failed += min(len(run["failures"]), run["attempted"])
            if run.get("nesting_errors"):
                failed += 1
                print("  FAIL span nesting: "
                      + "; ".join(run["nesting_errors"][:5]))
            recorded[name] = run["outcomes"]

    if trace_path is not None:
        _merge_traces(trace_files, trace_path)
        print(f"wrote trace {trace_path}")
    if args.write_expected:
        sizes = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        sizes.setdefault("tiny" if args.tiny else "full", {}).update(recorded)
        EXPECTED.write_text(json.dumps(sizes, indent=1, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value,
                  "unit": (e2e_units.get(key.rsplit("/", 1)[-1])
                           or layer_units[key.rsplit("/", 1)[-1]])}
            for key, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 = registry data seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement window per workload")
    parser.add_argument("--trace", default="0",
                        help="0: end-to-end metrics; 1: traced per-layer "
                             "metrics; PATH: both, trace written to PATH")
    parser.add_argument("--tiny", action="store_true",
                        help="one small app per workload (self-test)")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="expected seed-0 outcomes ('none' skips)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record seed-0 outcomes into expected.json")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except BenchError as exc:
        print(f"e2e benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
