"""The versioned machine-readable profile export.

:func:`profile_export` turns an
:class:`~repro.optim.advisor.AdvisorReport` into a plain-JSON document
whose shape is fixed by the bundled schema
(``src/repro/export/schema/profile_export.schema.json``) and documented
field-by-field in ``docs/profile-format.md``. The document is the
tool's stable outward interface: downstream agents, dashboards and
autotuners consume it instead of scraping rendered text.

Determinism contract: the default document depends only on the program,
architecture and instrumentation knobs -- *not* on how the trace was
analyzed. Profiling the same app with fused in-flight analysis or with
the raw records kept (``fused_drain=False``) yields byte-identical
:func:`export_json` output (pinned by ``tests/test_goldens.py``).
Run-variant observations (wall-clock, trace-drain statistics) live in
the opt-in ``runtime`` section, which ``include_runtime=True`` adds at
the cost of that identity.

Versioning: ``schema_version`` is ``"<major>.<minor>"``. Within a major
version changes are strictly additive (new optional fields or sections);
removing or re-typing a field requires a major bump. Consumers should
accept any document whose major version they know.
"""

from __future__ import annotations

import json

from repro.optim.advisor import AdvisorReport

#: Contract version of the emitted document (see module docstring).
SCHEMA_VERSION = "1.0"

#: ``generator`` string stamped into every document.
GENERATOR = "cudaadvisor-repro"


def _kernel_entry(profile) -> dict:
    return {
        "name": profile.kernel,
        "launch_site": profile.launch_site,
        "grid": list(profile.grid),
        "block": list(profile.block),
        "num_ctas": profile.num_ctas,
        "warps_per_cta": profile.warps_per_cta,
        "records": {
            "memory": len(profile.memory_records),
            "block": len(profile.block_records),
            "arith": len(profile.arith_records),
        },
        "dropped_records": profile.dropped_records,
        # Always 0: the trace is never spilled to disk. Schema 1.0
        # requires both keys; they go at the next major schema bump.
        "spilled_records": 0,
        "corrupt_records": 0,
    }


def _reuse_entry(histogram) -> dict:
    return {
        "model": histogram.model.value,
        "samples": histogram.samples,
        "infinite": histogram.infinite,
        "finite_sum": histogram.finite_sum,
        "finite_count": histogram.finite_count,
        "no_reuse_fraction": histogram.no_reuse_fraction,
        "average_finite_distance": histogram.average_distance,
        "frequencies": dict(histogram.frequencies),
    }


def _metrics_section(report: AdvisorReport) -> dict:
    metrics: dict = {}
    if report.reuse_element is not None:
        metrics["reuse_element"] = _reuse_entry(report.reuse_element)
    if report.reuse_cache_line is not None:
        metrics["reuse_cache_line"] = _reuse_entry(report.reuse_cache_line)
    if report.memory_divergence is not None:
        md = report.memory_divergence
        metrics["memory_divergence"] = {
            "line_size": md.line_size,
            "instructions": md.instructions,
            "degree": md.divergence_degree,
            "distribution": {
                str(k): v for k, v in md.distribution.items()
            },
        }
    if report.branch_divergence is not None:
        bd = report.branch_divergence
        metrics["branch_divergence"] = {
            "total_blocks": bd.total_blocks,
            "divergent_blocks": bd.divergent_blocks,
            "percent": bd.divergence_percent,
            "per_block": {
                name: {
                    "line": stats.line,
                    "executions": stats.executions,
                    "divergent": stats.divergent,
                }
                for name, stats in bd.per_block.items()
            },
        }
    if report.arithmetic is not None:
        ar = report.arithmetic
        metrics["arithmetic"] = {
            "lane_flops": ar.lane_flops,
            "lane_intops": ar.lane_intops,
            "float_fraction": ar.float_fraction,
            "by_opcode": {k: int(v) for k, v in ar.by_opcode.items()},
            "by_line": {str(k): int(v) for k, v in ar.by_line.items()},
        }
    if report.bypass_prediction is not None:
        p = report.bypass_prediction
        metrics["bypass_prediction"] = {
            "optimal_warps": p.optimal_warps,
            "warps_per_cta": p.warps_per_cta,
            "raw_value": p.raw_value,
            "avg_reuse_distance": p.avg_reuse_distance,
            "divergence_degree": p.divergence_degree,
            "ctas_per_sm": p.ctas_per_sm,
            "l1_size": p.l1_size,
            "line_size": p.line_size,
            "recommended": p.bypassing_recommended,
        }
    if report.overhead is not None:
        ov = report.overhead
        metrics["overhead"] = {
            "baseline_cycles": ov.baseline_cycles,
            "instrumented_cycles": ov.instrumented_cycles,
            "baseline_instructions": ov.baseline_instructions,
            "instrumented_instructions": ov.instrumented_instructions,
            "cycle_overhead": ov.cycle_overhead,
            "instruction_overhead": ov.instruction_overhead,
        }
    return metrics


def _heatmap_section(report: AdvisorReport, time_buckets: int) -> dict:
    resolved = report.resolved_heatmap(time_buckets)
    return {
        "granule_bytes": resolved.granule_bytes,
        "cell_rows": resolved.cell_rows,
        "time_cells": resolved.time_cells,
        "time_buckets": resolved.time_buckets,
        "total_accesses": resolved.total_accesses,
        # the one layout; the key stays because schema 1.0 requires it
        "layout": "series",
        "allocations": [
            {
                "name": row.name,
                "base": row.base,
                "nbytes": row.nbytes,
                "site": row.site,
                "reads": list(row.reads),
                "writes": list(row.writes),
                "unique_bytes": list(row.unique_bytes),
            }
            for row in resolved.rows
        ],
    }


def _runtime_section(report: AdvisorReport) -> dict:
    # The trace drain of this run, summed over its launches: the rows
    # the keep-first buffer capacity discarded (the trace is never
    # written out, so nothing else can be lost), and the fused
    # in-flight analysis counters when a launch streamed.
    profiles = report.session.profiles
    runtime: dict = {
        "trace_buffers": {
            "dropped_records": sum(p.dropped_records for p in profiles),
            # constant 0, kept for schema 1.0 (see _kernel_entry)
            "spilled_records": 0,
            "corrupt_records": 0,
        },
    }
    stats = [p.stream_stats for p in profiles if p.stream_stats is not None]
    if stats:
        # the key keeps its schema 1.0 name
        runtime["streaming_drain"] = {
            "segments_streamed": sum(s["segments_streamed"] for s in stats),
            "peak_resident_rows": max(s["peak_resident_rows"] for s in stats),
            "rows_kept": sum(s["memory_rows"] + s["block_rows"]
                             + s["arith_rows"] for s in stats),
        }
    if report.overhead is not None:
        runtime["wall"] = {
            "baseline_seconds": report.overhead.baseline_wall,
            "instrumented_seconds": report.overhead.instrumented_wall,
        }
    return runtime


def profile_export(report: AdvisorReport, *, time_buckets: int = 64,
                   include_runtime: bool = False) -> dict:
    """Build the schema-governed export document for one report.

    ``time_buckets`` bounds the heat map's display time axis (ignored
    without a heat map); ``include_runtime`` adds the run-variant
    ``runtime`` section -- see the module docstring for the determinism
    trade-off.
    """
    session = report.session
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "generator": GENERATOR,
        "program": report.program,
        "arch": {
            "name": report.arch.name,
            "chip": report.arch.chip,
            "l1_size": report.arch.l1_size,
            "l1_line_size": report.arch.l1_line_size,
        },
        "modes": list(report.modes),
        "advice": report.advice(),
        "kernels": [_kernel_entry(p) for p in session.profiles],
        "data_objects": [
            {
                "name": r.name,
                "base": int(r.base),
                "nbytes": int(r.end - r.base),
                "site": r.site,
            }
            for r in session.device_allocations
        ],
        "memcpys": [
            {
                "kind": r.kind.value,
                "device_addr": r.device_addr,
                "nbytes": r.nbytes,
                "site": r.site,
            }
            for r in session.memcpys
        ],
        "metrics": _metrics_section(report),
    }
    if report.heatmap is not None:
        doc["heatmap"] = _heatmap_section(report, time_buckets)
    if include_runtime:
        doc["runtime"] = _runtime_section(report)
    return doc


def export_json(doc: dict) -> str:
    """Serialize a document canonically (sorted keys, two-space indent,
    trailing newline).

    Canonical form is what makes "byte-identical" a meaningful contract:
    two equal documents always produce the same bytes.
    """
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
