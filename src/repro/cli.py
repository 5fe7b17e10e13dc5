"""Command-line interface (the artifact's ``run.sh``/``showoutput.sh``).

The paper's artifact runs each benchmark in three analysis modes and
dumps text results into ``RD_mode`` (reuse distance), ``MD_mode``
(memory divergence) and ``BD_mode`` (branch divergence) directories;
this CLI reproduces that workflow::

    python -m repro list
    python -m repro profile bfs --arch kepler --modes memory,blocks
    python -m repro bypass syrk --l1 16
    python -m repro ptx hotspot

``profile`` and ``export`` analyze every launch in flight (fused
analysis: trace rows stream into the analyzer aggregates while the
kernel runs; see docs/architecture.md). Beyond the artifact: ``repro
serve`` drives the profiling service (a persistent worker pool +
content-addressed result cache; see docs/service.md), and
``--cache-dir`` memoizes ``profile --format json``/``export`` results
across invocations.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from typing import List, Optional

from repro.analysis.report import (
    render_branch_table,
    render_buffer_accounting,
    render_divergence_distribution,
    render_heatmap,
    render_jit_cache,
    render_reuse_histogram,
    render_stream_stats,
)
from repro.apps import APP_NAMES, TABLE2, build_app
from repro.backend import lower_module_to_ptx
from repro.errors import ReproError
from repro.frontend.dsl import compile_kernels
from repro.gpu.arch import KEPLER_K40C, PASCAL_P100, kepler_with_l1
from repro.optim.advisor import CUDAAdvisor
from repro.passes import optimization_pipeline
from repro.reliability import FAILURE_POLICIES

ARCHES = {"kepler": KEPLER_K40C, "pascal": PASCAL_P100}
BACKENDS = ("interpreter", "batched")
MODES = ("memory", "blocks", "arith")


class _UsageError(Exception):
    """A bad invocation; main() prints one friendly line and exits 2."""


def _check_app(name: str) -> str:
    if name not in APP_NAMES:
        known = ", ".join(sorted(APP_NAMES))
        raise _UsageError(f"unknown app {name!r}: pick one of {known}")
    return name


def _parse_modes(spec: str) -> tuple:
    modes = tuple(m.strip() for m in spec.split(",") if m.strip())
    if not modes:
        raise _UsageError("--modes needs at least one of: " + ", ".join(MODES))
    for mode in modes:
        if mode not in MODES:
            raise _UsageError(
                f"unknown analysis mode {mode!r}: expected a comma-separated "
                f"subset of {', '.join(MODES)}"
            )
    return modes


def _add_profiling_args(profile: argparse.ArgumentParser) -> None:
    """The knobs `profile` and `export` share (one advisor underneath)."""
    profile.add_argument("app")
    profile.add_argument("--arch", choices=sorted(ARCHES), default="kepler")
    profile.add_argument(
        "--modes", default="memory,blocks",
        help="comma-separated: memory, blocks, arith",
    )
    profile.add_argument(
        "--no-overhead", action="store_true",
        help="skip the baseline run (faster; no Figure 10 metric)",
    )
    profile.add_argument(
        "--backend", default=None,
        help="execution backend: interpreter or batched",
    )
    profile.add_argument(
        "--failure-policy", default=None, choices=FAILURE_POLICIES,
        help="how launches react when they cannot run as requested "
        "(default: degrade; see docs/reliability.md)",
    )
    profile.add_argument(
        "--sample-rate", type=int, default=1,
        help="keep every Nth trace record (drain-time stride sampling)",
    )
    profile.add_argument(
        "--buffer-capacity", type=int, default=None,
        help="cap per-launch trace records (oldest kept, rest dropped)",
    )
    profile.add_argument(
        "--heatmap-cell-rows", type=int, default=None,
        help="kept memory accesses per CTA per heat-map time cell "
        "(default 256; finer cells = finer time resolution)",
    )
    profile.add_argument(
        "--time-buckets", type=int, default=64,
        help="max display time buckets of the rendered/exported heat map",
    )
    profile.add_argument(
        "--cache-dir", default=None,
        help="memoize the export document in this content-addressed "
        "result cache; a repeated invocation with identical knobs "
        "serves the cached bytes without re-simulating "
        "(profile: needs --format json; see docs/service.md)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CUDAAdvisor reproduction: profile GPU kernels on a "
        "simulated NVIDIA GPU and derive optimization guidance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table 2 benchmark suite")

    profile = sub.add_parser("profile", help="run CUDAAdvisor on an app")
    _add_profiling_args(profile)
    profile.add_argument(
        "--json", action="store_true",
        help="emit the legacy report summary as JSON (report.to_dict(); "
        "for the stable schema-governed document use --format json)",
    )
    profile.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: rendered text (default) or the versioned "
        "profile-export document (docs/profile-format.md)",
    )
    profile.add_argument(
        "--heatmap", action="store_true",
        help="collect and render the per-allocation x time memory heat "
        "map (needs the 'memory' mode; see docs/heatmaps.md)",
    )
    profile.add_argument(
        "--verbose", action="store_true",
        help="print execution internals (JIT trace-cache counters, "
        "in-flight analysis statistics)",
    )

    export = sub.add_parser(
        "export",
        help="profile an app and write the versioned machine-readable "
        "profile document (docs/profile-format.md)",
    )
    _add_profiling_args(export)
    export.add_argument(
        "-o", "--output", default=None,
        help="output path ('-' or omitted: stdout)",
    )
    export.add_argument(
        "--columnar", action="store_true",
        help="emit the heat map as a sparse parallel-array cell table "
        "instead of per-allocation series (compact for large maps)",
    )
    export.add_argument(
        "--include-runtime", action="store_true",
        help="add the run-variant 'runtime' section (wall clock, drain "
        "stats, degradations); costs run-to-run byte-identity",
    )
    export.add_argument(
        "--ndjson", action="store_true",
        help="emit NDJSON: one record per top-level section, streamed "
        "as produced; the records reassemble into the canonical "
        "document (docs/profile-format.md)",
    )

    serve = sub.add_parser(
        "serve",
        help="run a profiling-service session: schedule the given apps "
        "as jobs on a persistent worker pool with a crash-safe result "
        "cache (docs/service.md)",
    )
    serve.add_argument("apps", nargs="+",
                       help="apps to profile (repeats allowed; repeats "
                       "hit the cache or coalesce)")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent pool workers (0: serial in-process)")
    serve.add_argument("--cache-dir", default=None,
                       help="content-addressed result cache directory")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       help="result-cache size budget: least-recently-"
                       "used entries are evicted once the on-disk "
                       "payloads exceed this many bytes")
    serve.add_argument("--repeat", type=int, default=1,
                       help="submit the whole app list N times")
    serve.add_argument("--job-timeout", type=float, default=30.0,
                       help="reap a worker that misses heartbeats for "
                       "this many seconds (default 30)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="pool attempts per job before the serial "
                       "fallback (default 3)")
    serve.add_argument("--failure-policy", default="degrade",
                       choices=FAILURE_POLICIES,
                       help="job-scope failure ladder (docs/service.md)")
    serve.add_argument("--arch", choices=sorted(ARCHES), default="kepler")
    serve.add_argument("--modes", default="memory,blocks",
                       help="comma-separated: memory, blocks, arith")
    serve.add_argument("--sample-rate", type=int, default=1)
    serve.add_argument("--no-overhead", action="store_true",
                       help="skip the baseline run inside each job")
    serve.add_argument("-o", "--output-dir", default=None,
                       help="also write each job's export document here "
                       "(atomic, one file per job)")

    bypass = sub.add_parser(
        "bypass", help="evaluate Eq.(1) horizontal bypassing vs the oracle"
    )
    bypass.add_argument("app")
    bypass.add_argument("--l1", type=int, default=16, choices=(16, 32, 48),
                        help="Kepler L1 size in KB")

    ptx = sub.add_parser("ptx", help="dump the PTX for an app's kernels")
    ptx.add_argument("app")
    ptx.add_argument("--cc", default="3.5", help="compute capability")

    instr = sub.add_parser(
        "instrument",
        help="dump an app's instrumented IR (the opt-pass view)",
    )
    instr.add_argument("app")
    instr.add_argument("--modes", default="memory",
                       help="comma-separated: memory, blocks, arith")
    instr.add_argument("--no-optimize", action="store_true",
                       help="instrument the -O0 bitcode")

    return parser


def _cmd_list() -> int:
    print(f"{'name':<10} {'warps/CTA':>9}  {'paper input':<28} "
          f"{'our input':<34} source")
    for info in TABLE2:
        print(f"{info.name:<10} {info.warps_per_cta:>9}  "
              f"{info.paper_input:<28} {info.our_input:<34} {info.source}")
    return 0


def _advisor_from_args(args, modes, heatmap: bool) -> CUDAAdvisor:
    """Validate the shared profiling knobs and build the advisor."""
    if args.backend is not None and args.backend not in BACKENDS:
        raise _UsageError(
            f"unknown backend {args.backend!r}: expected one of "
            f"{', '.join(BACKENDS)}"
        )
    if args.sample_rate < 1:
        raise _UsageError("--sample-rate must be >= 1")
    if args.heatmap_cell_rows is not None and args.heatmap_cell_rows < 1:
        raise _UsageError("--heatmap-cell-rows must be >= 1")
    if args.time_buckets < 1:
        raise _UsageError("--time-buckets must be >= 1")
    if heatmap and "memory" not in modes:
        raise _UsageError(
            "the heat map is built from memory instrumentation: "
            "include 'memory' in --modes"
        )
    kwargs = {}
    if args.heatmap_cell_rows is not None:
        kwargs["heatmap_cell_rows"] = args.heatmap_cell_rows
    return CUDAAdvisor(
        arch=ARCHES[args.arch],
        modes=modes,
        measure_overhead=not args.no_overhead,
        buffer_capacity=args.buffer_capacity,
        sample_rate=args.sample_rate,
        backend=args.backend,
        failure_policy=args.failure_policy,
        heatmap=heatmap,
        **kwargs,
    )


def _submit_config(args, modes, heatmap) -> dict:
    """submit() config equivalent to this invocation's advisor knobs."""
    config = {
        "arch": args.arch,
        "modes": modes,
        "sample_rate": args.sample_rate,
        "buffer_capacity": args.buffer_capacity,
        "measure_overhead": not args.no_overhead,
        "heatmap": heatmap,
        "time_buckets": args.time_buckets,
        "columnar": getattr(args, "columnar", False),
    }
    if args.heatmap_cell_rows is not None:
        config["heatmap_cell_rows"] = args.heatmap_cell_rows
    for hint, value in (
        ("backend", args.backend),
        ("failure_policy", args.failure_policy),
    ):
        if value is not None:
            config[hint] = value
    return config


def _cached_export_payload(args, modes, heatmap) -> str:
    """Serve (or simulate-and-fill) the export document via the cache."""
    from repro.service import ProfilingService

    with ProfilingService(workers=0, cache_dir=args.cache_dir) as svc:
        handle = svc.submit(
            _check_app(args.app), _submit_config(args, modes, heatmap)
        )
        result = handle.result()
        print(
            f"cache {result.source}: key {handle.key[:12]} "
            f"under {args.cache_dir}",
            file=sys.stderr,
        )
        return result.payload


def _cmd_profile(args) -> int:
    modes = _parse_modes(args.modes)
    advisor = _advisor_from_args(args, modes, heatmap=args.heatmap)
    if args.cache_dir is not None:
        if args.format != "json" or args.json:
            raise _UsageError(
                "--cache-dir memoizes the export document: combine it "
                "with --format json (text rendering needs a live report)"
            )
        sys.stdout.write(_cached_export_payload(args, modes, args.heatmap))
        return 0
    report = advisor.profile(build_app(_check_app(args.app)))

    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.format == "json":
        from repro.export import export_json, profile_export

        sys.stdout.write(export_json(
            profile_export(report, time_buckets=args.time_buckets)
        ))
        return 0

    if report.reuse_element is not None:
        print("### RD_mode (reuse distance)")
        print(render_reuse_histogram(args.app, report.reuse_element))
        print()
    if report.memory_divergence is not None:
        print("### MD_mode (memory divergence)")
        print(render_divergence_distribution(
            args.app, report.memory_divergence
        ))
        print()
    if report.branch_divergence is not None:
        print("### BD_mode (branch divergence)")
        print(render_branch_table({args.app: report.branch_divergence}))
        print()
    if report.heatmap is not None:
        print("### memory heat map")
        print(render_heatmap(
            args.app, report.resolved_heatmap(args.time_buckets)
        ))
        print()
    if report.overhead is not None:
        print("### overhead")
        print(report.overhead.render())
        print()
    profiles = report.session.profiles
    if any(p.dropped_records for p in profiles):
        print("### trace buffers")
        print(render_buffer_accounting(args.app, profiles))
        print()
    if args.verbose:
        # Both sections always render under --verbose -- empty ones as
        # explicit placeholders -- so the text view and the export
        # document agree on what was (and wasn't) collected.
        print("### jit trace cache")
        print(render_jit_cache(args.app, report.jit_cache))
        print()
        print("### in-flight analysis")
        print(render_stream_stats(args.app, profiles))
        print()
    if len(report.session.profiles) > 1:
        from repro.analysis.statistics import (
            aggregate_instances,
            metric_memory_events,
        )

        print("### per-call-path statistics (offline analyzer)")
        for stats in aggregate_instances(
            report.session.profiles, metric_memory_events
        ):
            print(f"  {stats.render()}")
        print()
    print("### advice")
    for tip in report.advice():
        print(f"  * {tip}")
    return 0


def _cmd_export(args) -> int:
    import json as json_mod

    from repro.export import (
        SCHEMA_VERSION,
        export_json,
        iter_ndjson,
        profile_export,
        validate,
    )

    modes = _parse_modes(args.modes)
    advisor = _advisor_from_args(args, modes, heatmap="memory" in modes)
    if args.cache_dir is not None and args.include_runtime:
        raise _UsageError(
            "--include-runtime adds run-variant data and cannot be "
            "served from the cache: drop one of the two flags"
        )
    if args.cache_dir is not None:
        doc = json_mod.loads(
            _cached_export_payload(args, modes, "memory" in modes)
        )
    else:
        report = advisor.profile(build_app(_check_app(args.app)))
        doc = profile_export(
            report,
            time_buckets=args.time_buckets,
            columnar=args.columnar,
            include_runtime=args.include_runtime,
        )
        # The bundled schema is the emitter's own contract: a document
        # that fails it is a bug, caught here rather than by a consumer.
        validate(doc)
    text = (
        "".join(iter_ndjson(doc)) if args.ndjson else export_json(doc)
    )
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.output, text)
        print(
            f"wrote {args.output}: schema {SCHEMA_VERSION}, "
            f"{len(text)} bytes",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    """A scripted profiling-service session over the given apps."""
    import os

    from repro.ioutil import atomic_write_text
    from repro.service import ProfilingService

    modes = _parse_modes(args.modes)
    if args.workers < 0:
        raise _UsageError("--workers must be >= 0")
    if args.repeat < 1:
        raise _UsageError("--repeat must be >= 1")
    apps = [_check_app(app) for app in args.apps]
    config = {
        "arch": args.arch,
        "modes": modes,
        "sample_rate": args.sample_rate,
        "measure_overhead": not args.no_overhead,
    }
    if args.cache_max_bytes is not None and args.cache_max_bytes < 1:
        raise _UsageError("--cache-max-bytes must be >= 1")
    with ProfilingService(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        job_timeout=args.job_timeout,
        max_attempts=args.max_attempts,
        failure_policy=args.failure_policy,
    ) as svc:
        handles = [
            svc.submit(app, dict(config))
            for _ in range(args.repeat)
            for app in apps
        ]
        failures = 0
        for handle in handles:
            for event in svc.stream(handle):
                detail = " ".join(
                    f"{k}={v}" for k, v in sorted(event.detail.items())
                )
                print(f"{handle.id:>8} {handle.spec.app:<10} "
                      f"{event.state:<18} {detail}")
            if handle.state == "failed":
                failures += 1
                print(f"{handle.id:>8} {handle.spec.app:<10} "
                      f"error: {handle.error}", file=sys.stderr)
            elif args.output_dir is not None:
                result = handle.result()
                os.makedirs(args.output_dir, exist_ok=True)
                path = os.path.join(
                    args.output_dir,
                    f"{handle.spec.app}-{handle.key[:12]}.json",
                )
                atomic_write_text(path, result.payload)
        print("counters: " + " ".join(
            f"{k}={v}" for k, v in sorted(svc.counters.items()) if v
        ))
        if svc.cache is not None:
            print("cache: " + " ".join(
                f"{k}={v}" for k, v in sorted(svc.cache.stats.items())
            ))
    return 1 if failures else 0


def _cmd_bypass(args) -> int:
    arch = kepler_with_l1(args.l1)
    advisor = CUDAAdvisor(arch=arch, modes=("memory",),
                          measure_overhead=False)
    app = build_app(_check_app(args.app))
    report = advisor.profile(app)
    prediction = report.bypass_prediction
    print(f"Eq.(1): raw = {prediction.raw_value:.4f} -> allow "
          f"{prediction.optimal_warps}/{prediction.warps_per_cta} warps "
          f"in L1")
    search, prediction = advisor.evaluate_bypass(app, prediction)
    for k in sorted(search.cycles_by_warps):
        marks = []
        if k == search.best_warps:
            marks.append("oracle")
        if k == prediction.optimal_warps:
            marks.append("predicted")
        suffix = f"   <- {', '.join(marks)}" if marks else ""
        print(f"  k={k:<2} norm time = {search.normalized(k):.3f}{suffix}")
    return 0


def _cmd_ptx(args) -> int:
    app = build_app(_check_app(args.app))
    module = compile_kernels(list(app.kernels), args.app)
    optimization_pipeline().run(module)
    print(lower_module_to_ptx(module, args.cc))
    return 0


def _cmd_instrument(args) -> int:
    from repro.ir import print_module
    from repro.passes import instrumentation_pipeline

    app = build_app(_check_app(args.app))
    module = compile_kernels(list(app.kernels), args.app)
    if not args.no_optimize:
        optimization_pipeline().run(module)
    modes = _parse_modes(args.modes)
    instrumentation_pipeline(modes).run(module)
    print(print_module(module))
    return 0


def _reap_workers() -> int:
    """Kill and join any live child processes (service pool workers, or
    the forked baseline run of an overhead-measuring profile)."""
    children = multiprocessing.active_children()
    for proc in children:
        proc.kill()
    for proc in children:
        proc.join(timeout=1.0)
    return len(children)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "list": lambda: _cmd_list(),
        "profile": lambda: _cmd_profile(args),
        "export": lambda: _cmd_export(args),
        "serve": lambda: _cmd_serve(args),
        "bypass": lambda: _cmd_bypass(args),
        "ptx": lambda: _cmd_ptx(args),
        "instrument": lambda: _cmd_instrument(args),
    }
    try:
        return commands[args.command]()
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # ^C must not dump a traceback or orphan forked workers: reap
        # them and exit with the conventional 128+SIGINT status.
        reaped = _reap_workers()
        suffix = f" (reaped {reaped} worker processes)" if reaped else ""
        print(f"interrupted{suffix}", file=sys.stderr)
        return 130
    except ReproError as exc:
        # Tool-level failures (bad launch, corrupt trace under strict,
        # failed validation) come out as one friendly line, never a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
