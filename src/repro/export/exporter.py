"""The versioned machine-readable profile export.

:func:`profile_export` turns an
:class:`~repro.optim.advisor.AdvisorReport` into a plain-JSON document
whose shape is fixed by the bundled schema
(``src/repro/export/schema/profile_export.schema.json``) and documented
field-by-field in ``docs/profile-format.md``. The document is the
tool's stable outward interface: downstream agents, dashboards and
autotuners consume it instead of scraping rendered text.

Determinism contract: the default document depends only on the program,
architecture, instrumentation knobs and execution backend -- *not* on
how the trace was analyzed. Profiling the same app with fused in-flight
analysis or with the raw records kept (``fused_drain=False``) yields
byte-identical :func:`export_json` output
(pinned by ``tests/test_goldens.py``). The batched backend adds a
``jit_cache`` section (its trace-cache counters), so its document
differs from the interpreter's by that section. Run-variant
observations (wall-clock, in-flight analysis statistics, degradation
events) live in the opt-in ``runtime`` section, which
``include_runtime=True`` adds at the cost of that identity.

Versioning: ``schema_version`` is ``"<major>.<minor>"``. Within a major
version changes are strictly additive (new optional fields or sections);
removing or re-typing a field requires a major bump. Consumers should
accept any document whose major version they know.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional

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


def _heatmap_section(report: AdvisorReport, time_buckets: int,
                     columnar: bool) -> dict:
    resolved = report.resolved_heatmap(time_buckets)
    allocations = []
    section = {
        "granule_bytes": resolved.granule_bytes,
        "cell_rows": resolved.cell_rows,
        "time_cells": resolved.time_cells,
        "time_buckets": resolved.time_buckets,
        "total_accesses": resolved.total_accesses,
        "layout": "columnar" if columnar else "series",
        "allocations": allocations,
    }
    if columnar:
        # Sparse cell table: one parallel-array entry per cell with
        # activity, in (allocation, bucket) order.
        cells = {
            "allocation": [], "bucket": [],
            "reads": [], "writes": [], "unique_bytes": [],
        }
        for i, row in enumerate(resolved.rows):
            allocations.append({
                "name": row.name,
                "base": row.base,
                "nbytes": row.nbytes,
                "site": row.site,
            })
            for b in range(resolved.time_buckets):
                if not (row.reads[b] or row.writes[b]
                        or row.unique_bytes[b]):
                    continue
                cells["allocation"].append(i)
                cells["bucket"].append(b)
                cells["reads"].append(row.reads[b])
                cells["writes"].append(row.writes[b])
                cells["unique_bytes"].append(row.unique_bytes[b])
        section["cells"] = cells
    else:
        for row in resolved.rows:
            allocations.append({
                "name": row.name,
                "base": row.base,
                "nbytes": row.nbytes,
                "site": row.site,
                "reads": list(row.reads),
                "writes": list(row.writes),
                "unique_bytes": list(row.unique_bytes),
            })
    return section


def _runtime_section(report: AdvisorReport) -> dict:
    session = report.session
    runtime: dict = {
        "trace_buffers": {
            "dropped_records": sum(
                p.dropped_records for p in session.profiles
            ),
            # constant 0, kept for schema 1.0 (see _kernel_entry)
            "spilled_records": 0,
            "corrupt_records": 0,
        },
    }
    stream_stats = [
        p.stream_stats for p in session.profiles
        if p.stream_stats is not None
    ]
    if stream_stats:
        # fused in-flight analysis counters; the key keeps its schema
        # 1.0 name
        runtime["streaming_drain"] = {
            "segments_streamed": sum(
                s["segments_streamed"] for s in stream_stats
            ),
            "peak_resident_rows": max(
                s["peak_resident_rows"] for s in stream_stats
            ),
            "rows_kept": sum(
                s["memory_rows"] + s["block_rows"] + s["arith_rows"]
                for s in stream_stats
            ),
        }
    supervisor = getattr(
        getattr(session.runtime, "device", None), "_supervisor", None
    )
    if supervisor is not None and supervisor.events:
        runtime["degradations"] = [
            {"reason": e.reason, "kernel": e.kernel, "message": e.message}
            for e in supervisor.events
        ]
    if report.overhead is not None:
        runtime["wall"] = {
            "baseline_seconds": report.overhead.baseline_wall,
            "instrumented_seconds": report.overhead.instrumented_wall,
        }
    return runtime


def profile_export(report: AdvisorReport, *, time_buckets: int = 64,
                   columnar: bool = False,
                   include_runtime: bool = False) -> dict:
    """Build the schema-governed export document for one report.

    ``time_buckets`` bounds the heat map's display time axis (ignored
    without a heat map); ``columnar`` switches the heat map to the
    sparse parallel-array cell table (compact for many allocations x
    many buckets); ``include_runtime`` adds the run-variant ``runtime``
    section -- see the module docstring for the determinism trade-off.
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
        doc["heatmap"] = _heatmap_section(report, time_buckets, columnar)
    if report.jit_cache is not None:
        doc["jit_cache"] = dict(report.jit_cache)
    if include_runtime:
        doc["runtime"] = _runtime_section(report)
    return doc


def export_json(doc: dict, indent: Optional[int] = 2) -> str:
    """Serialize a document canonically (sorted keys, trailing newline).

    Canonical form is what makes "byte-identical" a meaningful contract:
    two equal documents always produce the same bytes.
    """
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


# -- NDJSON streamed emission (the service tier's incremental path) ---------

def iter_ndjson(doc: dict) -> Iterator[str]:
    """Stream a document as NDJSON: one record per top-level section.

    Each yielded line is a compact JSON object
    ``{"section": <key>, "value": <doc[key]>}`` (sorted keys, ``\\n``
    terminated), emitted in sorted section order so the stream itself
    is canonical.  Concatenating the lines and feeding them back
    through :func:`assemble_ndjson` reproduces the document exactly --
    ``export_json(assemble_ndjson(iter_ndjson(doc)))`` is byte-equal
    to ``export_json(doc)`` (pinned by ``tests/test_export.py``).
    """
    for key in sorted(doc):
        yield json.dumps(
            {"section": key, "value": doc[key]},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"


def assemble_ndjson(lines: Iterable[str]) -> dict:
    """Reassemble NDJSON section records into the canonical document."""
    doc: dict = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        doc[record["section"]] = record["value"]
    return doc


def profile_export_stream(
    report: AdvisorReport, *, time_buckets: int = 64,
    columnar: bool = False, include_runtime: bool = False,
) -> Iterator[str]:
    """NDJSON emission of :func:`profile_export` (same arguments).

    One record leaves per top-level section, so a service result can
    stream out of the process incrementally instead of waiting for the
    full document to serialize.
    """
    return iter_ndjson(profile_export(
        report, time_buckets=time_buckets, columnar=columnar,
        include_runtime=include_runtime,
    ))
