"""Plain-text rendering of tables and risk plots.

Everything the benchmark harness prints flows through here, so bench output
reads like the paper's exhibits: a header, aligned columns, and the ASCII
risk plot with its policy legend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from repro.core.riskplot import RiskPlot


def format_table(rows: Sequence[Mapping], title: str = "") -> str:
    """Render dict rows as an aligned text table (column order from the
    first row)."""
    if not rows:
        return f"{title}\n(empty table)" if title else "(empty table)"
    columns = list(rows[0].keys())
    cells = [[_fmt(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        # NaN marks a gap cell of a degraded grid — render it explicitly
        # rather than as a confusing "nan" number.
        return "(gap)" if value != value else f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def summarize_plot(plot: RiskPlot, include_ascii: bool = True) -> str:
    """The full exhibit for one risk plot: summary statistics, both
    rankings, and the scatter."""
    from repro.core.ranking import rank_policies

    parts = [format_table(plot.summary_rows(), title=plot.title or "risk plot")]
    perf = rank_policies(plot, by="performance")
    parts.append(
        "ranking by best performance: "
        + " > ".join(r.policy for r in perf)
    )
    vol = rank_policies(plot, by="volatility")
    parts.append(
        "ranking by best volatility:  "
        + " > ".join(r.policy for r in vol)
    )
    if include_ascii:
        parts.append(plot.render_ascii())
    return "\n".join(parts)


def summarize_figure(panels: Mapping[str, RiskPlot], include_ascii: bool = False) -> str:
    """Render every panel of a multi-panel figure."""
    return "\n\n".join(
        summarize_plot(panels[k], include_ascii=include_ascii) for k in sorted(panels)
    )


def perf_summary(snapshot: Optional[Mapping] = None, title: str = "performance") -> str:
    """Human-readable rendering of a perf-registry snapshot.

    With no argument the live global registry is summarised
    (:data:`repro.perf.PERF`), so any experiment run executed under
    :func:`repro.perf.capture` can state its own throughput.  Returns an
    empty string when nothing was recorded.
    """
    if snapshot is None:
        from repro.perf import PERF

        snapshot = PERF.snapshot()
    counters: Mapping = snapshot.get("counters", {})
    timers: Mapping = snapshot.get("timers", {})
    histograms: Mapping = snapshot.get("histograms", {})
    if not counters and not timers and not histograms:
        return ""
    elapsed = max(float(snapshot.get("elapsed_s", 0.0)), 1e-12)
    parts = []
    if counters:
        rows = [
            {"counter": name, "value": int(value), "per_sec": value / elapsed}
            for name, value in sorted(counters.items())
        ]
        parts.append(format_table(rows, title=f"{title} — counters ({elapsed:.2f}s window)"))
    if timers:
        rows = [
            {
                "timer": name,
                "calls": stat["count"],
                "total_s": stat["total"],
                "mean_s": stat["mean"],
                "max_s": stat["max"],
            }
            for name, stat in sorted(timers.items())
        ]
        parts.append(format_table(rows, title=f"{title} — timers"))
    if histograms:
        rows = [
            {
                "histogram": name,
                "count": stat["count"],
                "mean": stat["mean"],
                "std": stat["std"],
                "min": stat["min"],
                "max": stat["max"],
            }
            for name, stat in sorted(histograms.items())
        ]
        parts.append(format_table(rows, title=f"{title} — histograms"))
    return "\n\n".join(parts)
