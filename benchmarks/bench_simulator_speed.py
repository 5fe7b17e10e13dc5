"""Simulator speed benchmark: the perf trajectory tracker.

Times an uninstrumented and a fully-instrumented (memory + blocks +
arith) run of every Table 2 app through the execute->trace pipeline and
writes ``benchmarks/results/BENCH_simulator.json`` with wall seconds,
dynamic instructions/second and trace records/second, per app and in
aggregate. Successive PRs re-run this harness so simulator-speed
regressions (or wins) are visible in one file.

Usage::

    PYTHONPATH=src python benchmarks/bench_simulator_speed.py [options]

    --quick             small-app subset with scaled-down inputs (CI)
    --update-baseline   store this run as the comparison baseline
    --backend NAME      execution backend ("interpreter" or "batched")
    --sample-rate N     trace sampling stride for the instrumented runs
    --repeat N          run each measurement N times and keep the
                        trimmed mean of the wall times (min and max
                        dropped when N >= 3, plain minimum otherwise):
                        robust against both one slow outlier and one
                        lucky cache-warm run on noisy shared machines;
                        event counts are deterministic and identical
                        across repeats
    --floor R           with a non-interpreter backend: exit nonzero if
                        any app's instrumented vs_interpreter speedup
                        falls below R (the CI regression guard; e.g.
                        --floor 0.95 means "no app may run more than 5%
                        slower than the interpreter")
    --rss               measure analysis peak RSS instead of speed:
                        each configuration runs in a forked child and
                        reports its instrumentation-attributable
                        ru_maxrss delta (instrumented minus an
                        uninstrumented run at the same input).
                        Exercises the paper-scale RSS_APPS inputs (>=4x
                        the registry defaults) and exits nonzero if
                        fused in-flight analysis exceeds its per-app
                        ceiling or fails to stay below the in-RAM path
                        at the *current* (unscaled) input sizes (the
                        O(segment) CI gate)

The JSON keeps two sections per configuration key: ``baseline``
(written once per era with --update-baseline, e.g. before a perf PR
lands) and ``current`` (every run); ``speedup`` is aggregate baseline
wall time / current wall time. Non-default backends/sample rates get
their own key (``quick-batched``, ``full-sampled8``, ...); a batched
run additionally records per-app ``vs_interpreter`` speedups against
the matching interpreter key's ``current`` section.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence

# All pipeline imports happen here, in the parent, so --rss fork
# children inherit them copy-on-write and a child's ru_maxrss delta
# measures the run, not the import of numpy.
from repro.analysis.aggregates import advisor_plan
from repro.apps import APP_NAMES, build_app
from repro.frontend.dsl import compile_kernels
from repro.gpu.arch import KEPLER_K40C
from repro.gpu.device import Device
from repro.host.runtime import CudaRuntime
from repro.passes.pipeline import instrumentation_pipeline, optimization_pipeline
from repro.profiler.session import ProfilingSession

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_simulator.json")

#: Reduced inputs for --quick (CI smoke): still end-to-end, just small.
#: syrk runs at 4x its previous quick trace (n 32 -> 64 quadruples the
#: C elements and so the event count) and syr2k joins the suite -- the
#: ROADMAP input-scaling rung the fused path makes affordable.
QUICK_APPS: Dict[str, dict] = {
    "bfs": {"num_nodes": 256},
    "hotspot": {"n": 32, "steps": 2},
    "syrk": {"n": 64},
    "syr2k": {"n": 48},
}

INSTRUMENT_MODES = ["memory", "blocks", "arith"]

#: Paper-scale RSS measurements (--rss). ``small`` is the registry
#: default input, ``scaled`` grows the *trace* by >= 4x (via steps /
#: iterations where the app supports it, so analyzer cursor state --
#: which is O(distinct footprint), not O(trace) -- stays comparable),
#: and ``ceiling_kb`` is the absolute backstop for fused in-flight
#: analysis' attributable RSS at the scaled input.
RSS_APPS: Dict[str, dict] = {
    "bfs": {
        "small": {"num_nodes": 2048},
        "scaled": {"num_nodes": 8192},
        "ceiling_kb": 16384,
    },
    "hotspot": {
        "small": {"n": 64, "steps": 4},
        "scaled": {"n": 64, "steps": 16},
        "ceiling_kb": 8192,
    },
    "srad_v2": {
        "small": {"n": 64, "iterations": 2},
        "scaled": {"n": 64, "iterations": 8},
        "ceiling_kb": 10240,
    },
    "backprop": {
        "small": {"input_units": 1024},
        "scaled": {"input_units": 4096},
        "ceiling_kb": 16384,
    },
    "nw": {
        "small": {"n": 128},
        "scaled": {"n": 256},  # 4x cells: work scales with n^2
        "ceiling_kb": 8192,
    },
    "syrk": {
        "small": {"n": 64},
        "scaled": {"n": 128},  # 4x trace: events scale with n^2 * m
        "ceiling_kb": 16384,
    },
    "syr2k": {
        "small": {"n": 64},
        "scaled": {"n": 128},  # 4x trace: events scale with n^2 * m
        "ceiling_kb": 16384,
    },
}

#: Cache-line size handed to the analyzers in --rss runs.
RSS_LINE_SIZE = 128

#: Fused flush size (rows) for --rss runs: big enough that
#: per-flush overhead is not the bottleneck, small enough that
#: O(segment) is visibly smaller than the full trace.
RSS_FLUSH_ROWS = 2048


def _run_app(
    app_name: str,
    app_kwargs: dict,
    instrumented: bool,
    backend: str = "interpreter",
    sample_rate: int = 1,
) -> dict:
    """One end-to-end execution; returns wall seconds + event counts."""
    app = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(app.kernels), app_name)
    optimization_pipeline().run(module)
    session = None
    if instrumented:
        instrumentation_pipeline(INSTRUMENT_MODES).run(module)
        session = ProfilingSession(sample_rate=sample_rate)
    device = Device(KEPLER_K40C)
    device.backend = backend
    rt = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = app.prepare(rt)

    start = time.perf_counter()
    results = app.run(rt, image, state)
    wall = time.perf_counter() - start

    instructions = sum(r.instructions for r in results)
    records = 0
    if session is not None:
        for profile in session.profiles:
            records += (
                len(profile.memory_records)
                + len(profile.block_records)
                + len(profile.arith_records)
            )
    return {
        "wall_s": wall,
        "instructions": instructions,
        "records": records,
    }


def _trimmed(samples: List[float]) -> float:
    """Trimmed mean: drop the min and max when N >= 3, else the min.

    The trimmed mean discards both the one-off scheduler hiccup (the
    max) and the suspiciously lucky fully-warm run (the min), which a
    plain minimum would happily report as "the" time.
    """
    if len(samples) >= 3:
        kept = sorted(samples)[1:-1]
        return sum(kept) / len(kept)
    return min(samples)


def _best_of(
    repeat: int,
    app_name: str,
    app_kwargs: dict,
    instrumented: bool,
    backend: str = "interpreter",
    sample_rate: int = 1,
) -> dict:
    """Trimmed-mean wall time over ``repeat`` runs (counts are
    deterministic and identical across repeats)."""
    runs = [
        _run_app(app_name, app_kwargs, instrumented, backend, sample_rate)
        for _ in range(max(1, repeat))
    ]
    result = dict(runs[0])
    result["wall_s"] = _trimmed([r["wall_s"] for r in runs])
    return result


def run_suite(
    apps: Dict[str, dict],
    repeat: int = 1,
    backend: str = "interpreter",
    sample_rate: int = 1,
) -> dict:
    per_app: Dict[str, dict] = {}
    for name, kwargs in apps.items():
        plain = _best_of(repeat, name, kwargs, False, backend)
        instr = _best_of(repeat, name, kwargs, True, backend, sample_rate)
        per_app[name] = {
            "uninstrumented_s": round(plain["wall_s"], 4),
            "instrumented_s": round(instr["wall_s"], 4),
            "instructions": instr["instructions"],
            "instructions_per_s": round(
                instr["instructions"] / instr["wall_s"]
            ) if instr["wall_s"] else 0,
            "records": instr["records"],
            "records_per_s": round(
                instr["records"] / instr["wall_s"]
            ) if instr["wall_s"] else 0,
        }
        print(
            f"{name:>10}: plain {plain['wall_s']:7.3f}s   "
            f"instrumented {instr['wall_s']:7.3f}s   "
            f"{per_app[name]['instructions_per_s']:>9,} instr/s   "
            f"{per_app[name]['records_per_s']:>9,} rec/s"
        )
    total_plain = sum(a["uninstrumented_s"] for a in per_app.values())
    total_instr = sum(a["instrumented_s"] for a in per_app.values())
    total_insn = sum(a["instructions"] for a in per_app.values())
    total_rec = sum(a["records"] for a in per_app.values())
    aggregate = {
        "uninstrumented_s": round(total_plain, 4),
        "instrumented_s": round(total_instr, 4),
        "instructions": total_insn,
        "instructions_per_s": round(total_insn / total_instr)
        if total_instr else 0,
        "records": total_rec,
        "records_per_s": round(total_rec / total_instr) if total_instr else 0,
    }
    print(
        f"{'TOTAL':>10}: plain {total_plain:7.3f}s   "
        f"instrumented {total_instr:7.3f}s"
    )
    return {"apps": per_app, "aggregate": aggregate}


def _rss_child(app_name: str, app_kwargs: dict, mode: str) -> int:
    """Peak-RSS delta (KB) of one configuration, run in a forked child.

    ``mode`` is ``plain`` (uninstrumented), ``inram`` (instrumented,
    the trace materialized, then analyzed) or ``fused``
    (instrumented, rows analyzed in flight by an :func:`advisor_plan`
    analyzer bank). The child records its
    ``ru_maxrss`` before and after the run; since maxrss is a
    high-water mark, the delta is exactly the memory the run grew the
    child by on top of the (copy-on-write, parent-resident) imports.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            app = build_app(app_name, **app_kwargs)
            module = compile_kernels(list(app.kernels), app_name)
            optimization_pipeline().run(module)
            session = None
            if mode != "plain":
                instrumentation_pipeline(INSTRUMENT_MODES).run(module)
                session = _analysis_session(mode)
            device = Device(KEPLER_K40C)
            rt = CudaRuntime(device, profiler=session)
            image = device.load_module(module)
            state = app.prepare(rt)
            app.run(rt, image, state)
            # Force the same analyses on both paths so the comparison
            # is analyzers-vs-analyzers, not analyzers-vs-nothing.
            if session is not None:
                _analyze(session, mode)
            end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with os.fdopen(write_fd, "w") as out:
                json.dump({"delta_kb": end - start}, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0 or not payload:
        raise RuntimeError(
            f"--rss child failed: {app_name} {app_kwargs} mode={mode}"
        )
    return json.loads(payload)["delta_kb"]


def run_rss_suite(repeat: int = 1) -> dict:
    """Attributable analysis RSS per app; the O(segment) acceptance gate.

    For each :data:`RSS_APPS` entry this measures, best-of-``repeat``:

    - ``attr_inram_small_kb``: in-RAM trace + its analyses at the
      *current* (registry-default) input, minus an uninstrumented run
      at the same input,
    - ``attr_fused_scaled_kb``: fused in-flight analysis at the >=4x
      input, minus uninstrumented at the >=4x input,
    - ``attr_inram_scaled_kb``: in-RAM at the >=4x input (the
      same-scale comparison, recorded for context).

    An app passes iff fused analysis at the scaled input stays under
    its absolute ceiling AND under the in-RAM path at the small input
    -- i.e. growing the trace 4x must not cost what the full-trace
    in-RAM path pays at 1x.
    """
    per_app: Dict[str, dict] = {}
    passed = True
    for name, spec in RSS_APPS.items():
        raw: Dict[str, int] = {}
        for label, kwargs, mode in (
            ("plain_small", spec["small"], "plain"),
            ("inram_small", spec["small"], "inram"),
            ("plain_scaled", spec["scaled"], "plain"),
            ("fused_scaled", spec["scaled"], "fused"),
            ("inram_scaled", spec["scaled"], "inram"),
        ):
            best = None
            for _ in range(max(1, repeat)):
                delta = _rss_child(name, kwargs, mode)
                if best is None or delta < best:
                    best = delta
            raw[label] = best
        attr_inram_small = raw["inram_small"] - raw["plain_small"]
        attr_fused_scaled = raw["fused_scaled"] - raw["plain_scaled"]
        attr_inram_scaled = raw["inram_scaled"] - raw["plain_scaled"]
        entry = {
            "small_kwargs": spec["small"],
            "scaled_kwargs": spec["scaled"],
            "attr_inram_small_kb": attr_inram_small,
            "attr_fused_scaled_kb": attr_fused_scaled,
            "attr_inram_scaled_kb": attr_inram_scaled,
            "ceiling_kb": spec["ceiling_kb"],
            "under_ceiling": attr_fused_scaled <= spec["ceiling_kb"],
            "beats_inram_at_small": attr_fused_scaled < attr_inram_small,
        }
        per_app[name] = entry
        ok = entry["under_ceiling"] and entry["beats_inram_at_small"]
        passed = passed and ok
        print(
            f"{name:>10}: in-RAM@1x {attr_inram_small:>7,} KB   "
            f"fused@4x {attr_fused_scaled:>7,} KB   "
            f"in-RAM@4x {attr_inram_scaled:>7,} KB   "
            f"ceiling {spec['ceiling_kb']:>6,} KB   "
            f"{'ok' if ok else 'FAIL'}"
        )
    return {"apps": per_app, "passed": passed}


def _analysis_session(mode: str) -> ProfilingSession:
    """The profiling session of one ``inram`` or ``fused`` run."""
    if mode == "inram":
        return ProfilingSession()
    return ProfilingSession(
        flush_rows=RSS_FLUSH_ROWS,
        fused=advisor_plan(RSS_LINE_SIZE, INSTRUMENT_MODES),
    )


def _analyze(session: ProfilingSession, mode: str) -> None:
    """Run every advisor analysis of ``session``: finalize the in-flight
    banks, or feed each kept trace through a fresh bank first."""
    plan = advisor_plan(RSS_LINE_SIZE, INSTRUMENT_MODES)
    for profile in session.profiles:
        bank = profile.aggregates if mode == "fused" else plan.analyze(profile)
        bank.results()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small-app subset smoke run (CI)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="store this run as the comparison baseline")
    parser.add_argument("--backend", choices=["interpreter", "batched"],
                        default="interpreter",
                        help="execution backend behind Device.launch")
    parser.add_argument("--sample-rate", type=int, default=1,
                        help="trace-sampling stride for instrumented runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat each measurement N times, keep the "
                        "trimmed mean (min+max dropped when N >= 3)")
    parser.add_argument("--floor", type=float, default=None,
                        help="fail (exit 1) if any app's instrumented "
                        "vs_interpreter speedup drops below this ratio "
                        "(needs a non-interpreter --backend and a prior "
                        "interpreter run of the same suite)")
    parser.add_argument("--rss", action="store_true",
                        help="measure attributable analysis peak RSS on "
                        "the paper-scale RSS_APPS inputs instead of "
                        "speed; exit 1 if fused analysis breaches its "
                        "ceiling or the in-RAM path's small-input RSS")
    args = parser.parse_args(argv)
    if args.floor is not None and args.backend == "interpreter":
        parser.error("--floor needs a non-interpreter --backend")
    if args.rss and (args.floor is not None or args.update_baseline):
        parser.error("--rss is standalone; drop --floor/--update-baseline")

    if args.rss:
        rss = run_rss_suite(repeat=args.repeat)
        rss["config"] = {
            "flush_rows": RSS_FLUSH_ROWS,
            "line_size": RSS_LINE_SIZE,
            "modes": INSTRUMENT_MODES,
            "repeat": args.repeat,
            "python": sys.version.split()[0],
        }
        existing_rss: dict = {}
        if os.path.exists(RESULT_FILE):
            with open(RESULT_FILE) as f:
                existing_rss = json.load(f)
        existing_rss["rss"] = rss
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(RESULT_FILE, "w") as f:
            json.dump(existing_rss, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {RESULT_FILE}")
        if not rss["passed"]:
            failing = [
                name for name, app in rss["apps"].items()
                if not (app["under_ceiling"] and app["beats_inram_at_small"])
            ]
            print("--rss: fused analysis RSS gate failed for: "
                  + ", ".join(sorted(failing)), file=sys.stderr)
            return 1
        print("--rss: fused analysis under every ceiling and below the "
              "in-RAM path at current input sizes")
        return 0

    apps = (
        QUICK_APPS if args.quick else {name: {} for name in APP_NAMES}
    )
    suite = run_suite(apps, repeat=args.repeat, backend=args.backend,
                      sample_rate=args.sample_rate)
    suite["config"] = {
        "quick": args.quick,
        "backend": args.backend,
        "sample_rate": args.sample_rate,
        "repeat": args.repeat,
        "python": sys.version.split()[0],
    }

    existing: dict = {}
    if os.path.exists(RESULT_FILE):
        with open(RESULT_FILE) as f:
            existing = json.load(f)

    base_key = "quick" if args.quick else "full"
    key = base_key
    if args.backend != "interpreter":
        key += f"-{args.backend}"
    if args.sample_rate != 1:
        key += f"-sampled{args.sample_rate}"
    section = existing.setdefault(key, {})
    if args.update_baseline or "baseline" not in section:
        section["baseline"] = suite
    section["current"] = suite

    base = section["baseline"]["aggregate"]
    cur = suite["aggregate"]
    section["speedup"] = {
        "uninstrumented": round(
            base["uninstrumented_s"] / cur["uninstrumented_s"], 3
        ) if cur["uninstrumented_s"] else None,
        "instrumented": round(
            base["instrumented_s"] / cur["instrumented_s"], 3
        ) if cur["instrumented_s"] else None,
    }
    print(f"speedup vs baseline: {section['speedup']}")

    # A non-interpreter backend also reports per-app speedups against
    # the matching interpreter run, so backend wins are visible per app.
    reference = existing.get(base_key, {}).get("current")
    if args.backend != "interpreter" and reference is not None:
        vs: dict = {"apps": {}}
        for name, app in suite["apps"].items():
            ref = reference["apps"].get(name)
            if not ref:
                continue
            vs["apps"][name] = {
                "uninstrumented": round(
                    ref["uninstrumented_s"] / app["uninstrumented_s"], 3
                ) if app["uninstrumented_s"] else None,
                "instrumented": round(
                    ref["instrumented_s"] / app["instrumented_s"], 3
                ) if app["instrumented_s"] else None,
            }
        vs["aggregate"] = {
            "uninstrumented": round(
                reference["aggregate"]["uninstrumented_s"]
                / suite["aggregate"]["uninstrumented_s"], 3
            ) if suite["aggregate"]["uninstrumented_s"] else None,
            "instrumented": round(
                reference["aggregate"]["instrumented_s"]
                / suite["aggregate"]["instrumented_s"], 3
            ) if suite["aggregate"]["instrumented_s"] else None,
        }
        section["vs_interpreter"] = vs
        print(f"vs interpreter ({base_key}): {vs['aggregate']}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULT_FILE, "w") as f:
        json.dump(existing, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {RESULT_FILE}")

    if args.floor is not None:
        vs = section.get("vs_interpreter")
        if vs is None:
            print(f"--floor {args.floor}: no interpreter reference for "
                  f"{base_key!r}; run the interpreter suite first",
                  file=sys.stderr)
            return 1
        slow = {
            name: ratios["instrumented"]
            for name, ratios in vs["apps"].items()
            if ratios["instrumented"] is not None
            and ratios["instrumented"] < args.floor
        }
        if slow:
            print(f"--floor {args.floor}: apps below the per-app "
                  f"instrumented floor: " + ", ".join(
                      f"{name} ({ratio:.3f}x)"
                      for name, ratio in sorted(slow.items())
                  ), file=sys.stderr)
            return 1
        print(f"--floor {args.floor}: all apps at or above the floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
