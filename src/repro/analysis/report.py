"""Text renderings of analysis results (the tool's terminal output).

Formats every case-study result the way the artifact's
``showoutput.sh`` presents them: reuse-distance histograms (Figure 4),
memory-divergence distributions (Figure 5), the branch-divergence table
(Table 3) and bypass-evaluation tables (Figures 6-7).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.divergence_branch import BranchDivergenceProfile
from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.reuse_distance import PAPER_BUCKETS, ReuseDistanceHistogram

_BAR_WIDTH = 40


def _bar(fraction: float) -> str:
    filled = int(round(fraction * _BAR_WIDTH))
    return "#" * filled + "." * (_BAR_WIDTH - filled)


def render_reuse_histogram(app: str, hist: ReuseDistanceHistogram) -> str:
    lines = [
        f"Reuse distance ({hist.model.value} model) -- {app}, "
        f"{hist.samples} samples, avg finite R.D. = {hist.average_distance:.1f}"
    ]
    freqs = hist.frequencies
    for label, _, _ in PAPER_BUCKETS:
        f = freqs[label]
        lines.append(f"  {label:>7} | {_bar(f)} {100 * f:5.1f}%")
    f = freqs["inf"]
    lines.append(f"  {'inf':>7} | {_bar(f)} {100 * f:5.1f}%")
    return "\n".join(lines)


def render_divergence_distribution(
    app: str, profile: MemoryDivergenceProfile
) -> str:
    lines = [
        f"Memory divergence ({profile.line_size}B lines) -- {app}, "
        f"{profile.instructions} warp instructions, "
        f"degree = {profile.divergence_degree:.2f}"
    ]
    for lines_touched, fraction in profile.distribution.items():
        lines.append(
            f"  {lines_touched:>3} lines | {_bar(fraction)} {100 * fraction:5.1f}%"
        )
    return "\n".join(lines)


def render_branch_table(
    rows: Mapping[str, BranchDivergenceProfile]
) -> str:
    """The Table 3 layout."""
    lines = [
        f"{'Application':<12} {'# divergent blocks':>20} "
        f"{'# total blocks':>16} {'% divergence':>14}"
    ]
    for app, profile in rows.items():
        lines.append(
            f"{app:<12} {profile.divergent_blocks:>20} "
            f"{profile.total_blocks:>16} {profile.divergence_percent:>13.2f}%"
        )
    return "\n".join(lines)


def render_buffer_accounting(app: str, profiles: Sequence) -> str:
    """Per-launch trace-buffer accounting (kept and dropped rows).

    Only meaningful when a launch overflowed its buffer capacity; the
    CLI prints it only in that case.
    """
    lines = [
        f"Trace buffers -- {app}",
        f"{'kernel':<20} {'kept':>10} {'dropped':>9}",
    ]
    for p in profiles:
        kept = (
            len(p.memory_records) + len(p.block_records)
            + len(p.arith_records)
        )
        lines.append(
            f"{p.kernel:<20} {kept:>10} {p.dropped_records:>9}"
        )
    return "\n".join(lines)


def render_heatmap(app: str, heatmap) -> str:
    """The CUTHERMO-style terminal heat map (``repro profile --heatmap``).

    One row per device allocation, one character per display time
    bucket; character density encodes the bucket's access count scaled
    to the hottest cell of the whole map (space = untouched). Row
    totals (accesses, distinct bytes touched) follow each strip --
    ``heatmap`` is a resolved
    :class:`~repro.analysis.heatmap.MemoryHeatmap`.
    """
    shades = " .:-=+*#%@"
    lines = [
        f"Memory heat map -- {app}: {len(heatmap.rows)} allocations x "
        f"{heatmap.time_buckets} time buckets "
        f"({heatmap.granule_bytes}B granules, "
        f"{heatmap.cell_rows} accesses/CTA per cell)",
        f"  intensity: '{shades[1]}' low .. '{shades[-1]}' hot "
        f"(accesses per bucket, scaled to the hottest cell)",
    ]
    if not heatmap.time_buckets:
        lines.append("  (no memory accesses recorded)")
        return "\n".join(lines)
    peak = max(
        (r + w for row in heatmap.rows
         for r, w in zip(row.reads, row.writes)),
        default=0,
    )
    name_width = max(
        [len(row.name) for row in heatmap.rows] + [len("allocation")]
    )
    header = (
        f"  {'allocation':<{name_width}} |{'time ->':<{heatmap.time_buckets}}"
        f"| {'accesses':>9} {'bytes touched':>14}"
    )
    lines.append(header)
    for row in heatmap.rows:
        strip = []
        for r, w in zip(row.reads, row.writes):
            total = r + w
            if not total:
                strip.append(" ")
            else:
                # ceil-scale so any activity gets at least the faintest
                # shade and only the peak cell gets the hottest.
                idx = 1 + (total * (len(shades) - 2)) // max(peak, 1)
                strip.append(shades[min(idx, len(shades) - 1)])
        touched = sum(row.unique_bytes)
        lines.append(
            f"  {row.name:<{name_width}} |{''.join(strip)}| "
            f"{row.accesses:>9} {touched:>13}B"
        )
    return "\n".join(lines)


def render_stream_stats(app: str, profiles: Sequence) -> str:
    """Fused in-flight analysis counters for one profiled run.

    One row per kernel instance analyzed in flight: flush windows
    streamed, the peak number of trace rows resident at any flush (the
    O(segment) guarantee, vs total kept rows), and the rows dropped
    (capacity or sampling clip). Without any fused launch
    (``CUDAAdvisor(fused_drain=False)``, or every launch degraded to
    raw records) the section renders an explicit placeholder so verbose
    output always shows it.
    """
    if not any(p.stream_stats is not None for p in profiles):
        return (
            f"In-flight analysis -- {app}\n"
            f"  (none: traces were materialized and analyzed in RAM)"
        )
    lines = [
        f"In-flight analysis -- {app}",
        f"{'kernel':<20} {'segments':>9} {'peak rows':>10} "
        f"{'kept rows':>10} {'dropped':>9}",
    ]
    for p in profiles:
        if p.stream_stats is None:
            continue
        s = p.stream_stats
        kept = s["memory_rows"] + s["block_rows"] + s["arith_rows"]
        lines.append(
            f"{p.kernel:<20} {s['segments_streamed']:>9} "
            f"{s['peak_resident_rows']:>10} {kept:>10} "
            f"{p.dropped_records:>9}"
        )
    return "\n".join(lines)


def render_bypass_table(
    arch_label: str,
    rows: Sequence[Tuple[str, float, float, int, int]],
) -> str:
    """Figures 6/7 as a table.

    ``rows`` entries: (app, oracle_norm_time, predicted_norm_time,
    oracle_warps, predicted_warps); times normalized to the no-bypass
    baseline (1.0).
    """
    lines = [
        f"Horizontal bypassing on {arch_label} (normalized exec time, "
        f"baseline = 1.0)",
        f"{'Application':<12} {'oracle':>8} {'pred':>8} "
        f"{'oracle warps':>13} {'pred warps':>11}",
    ]
    for app, oracle_t, pred_t, oracle_w, pred_w in rows:
        lines.append(
            f"{app:<12} {oracle_t:>8.3f} {pred_t:>8.3f} "
            f"{oracle_w:>13} {pred_w:>11}"
        )
    return "\n".join(lines)
