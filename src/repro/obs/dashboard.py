"""The live-observability views: terminal ``top`` and HTML dashboard.

Both views render the same inputs — one or more
:class:`~repro.obs.timeseries.MetricsScraper`\\ s (one per scrape
target: a single service, or gateway + every node), an optional
:class:`~repro.obs.slo.SLOMonitor` and the flight-recorder/trace
summaries — and both are stdlib-only.  The HTML page renders through
the shared kit :mod:`repro.obs.html` (no server, no JavaScript, no
external assets): inline CSS plus inline-SVG sparklines, so
``python -m repro obs dashboard`` writes one self-contained file that
renders from ``file://`` and archives next to the trace JSON it links
to.

``render_top`` is the text form ``python -m repro obs top`` reprints
on its poll interval (with ANSI home-and-clear when the terminal
supports it — no curses dependency, so it also works piped to a file).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence

from repro.obs.html import fmt, page, svg_tag, table
from repro.obs.slo import SLOMonitor
from repro.obs.timeseries import MetricsScraper

__all__ = ["render_obs_dashboard", "render_top", "sparkline_svg"]

#: Okabe-Ito picks shared with the campaign reports.
SPARK_COLOR = "#0072B2"
OK_COLOR = "#009E73"

_CSS = """
tr.firing td { background: #fdeee6; }
tr.resolved td { background: #eaf6f0; }
svg { vertical-align: middle; }
.badge { display: inline-block; padding: 0 6px; border-radius: 3px;
         color: #fff; font-size: 12px; }
.badge.firing { background: #D55E00; } .badge.ok { background: #009E73; }
"""


def sparkline_svg(points: Sequence[float], width: int = 220,
                  height: int = 36, color: str = SPARK_COLOR,
                  title: str = "") -> str:
    """An inline-SVG sparkline of *points* (empty series render flat)."""
    values = [float(v) for v in points]
    parts = [svg_tag(width, height)]
    if title:
        parts.append(f"<title>{html.escape(title)}</title>")
    if values:
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        pad = 3.0
        step = (width - 2 * pad) / max(1, len(values) - 1)
        coords = []
        for i, value in enumerate(values):
            x = pad + i * step
            y = height - pad - (height - 2 * pad) * (value - lo) / span
            coords.append(f"{x:.1f},{y:.1f}")
        if len(coords) == 1:
            y = coords[0].split(",")[1]
            coords.append(f"{width - pad:.1f},{y}")
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" />')
        parts.append(
            f'<text x="{width - 4}" y="12" text-anchor="end" '
            f'font-size="10" fill="#555">{html.escape(fmt(values[-1]))}'
            '</text>')
    parts.append("</svg>")
    return "".join(parts)


def _target_stats(scraper: MetricsScraper, window_s: float) -> dict:
    """The headline numbers of one scrape target."""
    newest = scraper.samples[-1] if len(scraper) else None
    cumulative = None
    if newest is not None:
        cumulative = (newest.histograms.get("latency_s") or {}).get("p95")
    return {
        "rps": scraper.rate("requests_submitted", window_s),
        "completed": scraper.delta("requests_completed", window_s),
        "failed": scraper.delta("requests_failed", window_s),
        "queue_depth": (newest.gauges.get("queue_depth")
                        if newest else None),
        "windowed_p95_s": scraper.windowed_percentile(
            "latency_s", 0.95, window_s),
        "cumulative_p95_s": cumulative,
        "rps_series": [v for _, v in
                       scraper.rate_series("requests_submitted")],
        "queue_series": [v for _, v in scraper.gauge_series("queue_depth")],
    }


# -- the text view -------------------------------------------------------


def render_top(scrapers: Dict[str, MetricsScraper],
               monitor: Optional[SLOMonitor] = None,
               window_s: float = 60.0) -> str:
    """The ``obs top`` screen as plain text (one frame)."""
    lines: List[str] = []
    header = (f"{'target':<12} {'rps':>8} {'done':>7} {'fail':>6} "
              f"{'queue':>6} {'win p95':>9} {'cum p95':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(scrapers):
        stats = _target_stats(scrapers[name], window_s)
        lines.append(
            f"{name:<12} {fmt(stats['rps'], 3):>8} "
            f"{fmt(stats['completed'], 3):>7} "
            f"{fmt(stats['failed'], 3):>6} "
            f"{fmt(stats['queue_depth'], 3):>6} "
            f"{fmt(stats['windowed_p95_s'], 3):>9} "
            f"{fmt(stats['cumulative_p95_s'], 3):>9}")
    if monitor is not None:
        lines.append("")
        state = monitor.state()
        for slo in state["slos"]:
            flag = "FIRING" if slo["firing"] else "ok"
            lines.append(
                f"slo {slo['name']:<24} [{flag:^6}] "
                f"fast burn {fmt(slo['fast_burn'], 3)}  "
                f"slow burn {fmt(slo['slow_burn'], 3)}")
    return "\n".join(lines)


# -- the HTML view -------------------------------------------------------


def render_obs_dashboard(scrapers: Dict[str, MetricsScraper],
                         monitor: Optional[SLOMonitor] = None,
                         flight: Optional[dict] = None,
                         trace_summary: Optional[dict] = None,
                         title: str = "repro observability",
                         window_s: float = 60.0) -> str:
    """The self-contained HTML dashboard (see module docstring).

    Args:
        scrapers: one scraper per target, keyed by display name.
        monitor: optional SLO monitor whose state becomes the SLO and
            alert tables.
        flight: optional flight-recorder dict
            (:meth:`~repro.obs.slo.FlightRecorder.to_json_dict`).
        trace_summary: optional dict describing the merged trace
            (``n_processes``, ``n_stitched_traces``, ``path``).
        title: page title.
        window_s: the window behind every rate/percentile column.
    """
    parts: List[str] = [
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="meta">windowed over the last {window_s:g}s; '
        "cumulative columns shown for contrast — during a cold warm-up "
        "the two diverge, and only the windowed one recovers.</p>",
    ]

    parts.append("<h2>Targets</h2>")
    rows = []
    for name in sorted(scrapers):
        stats = _target_stats(scrapers[name], window_s)
        rows.append((
            f"<code>{html.escape(name)}</code>",
            *(fmt(stats[key]) for key in (
                "rps", "completed", "failed", "queue_depth",
                "windowed_p95_s", "cumulative_p95_s")),
            sparkline_svg(stats["rps_series"], title=f"{name} req/s"),
            sparkline_svg(stats["queue_series"], color=OK_COLOR,
                          title=f"{name} queue depth")))
    parts.append(table(
        ("target", "req/s", "completed", "failed", "queue",
         "windowed p95 (s)", "cumulative p95 (s)", "req/s trend",
         "queue trend"), rows))

    if monitor is not None:
        state = monitor.state()
        parts.append("<h2>SLOs</h2>")
        parts.append(
            '<p class="meta">burn = error rate / error budget; an SLO '
            f"fires when the fast {state['policy']['fast_window_s']:g}s "
            f"window burns over "
            f"{state['policy']['fast_burn_threshold']:g}&times; and the "
            f"slow {state['policy']['slow_window_s']:g}s window over "
            f"{state['policy']['slow_burn_threshold']:g}&times;.</p>")
        parts.append(table(
            ("slo", "kind", "objective", "fast burn", "slow burn", "state"),
            [(f"<code>{html.escape(slo['name'])}</code>",
              html.escape(slo["kind"]), f"{slo['objective']:g}",
              fmt(slo["fast_burn"]), fmt(slo["slow_burn"]),
              '<span class="badge firing">FIRING</span>' if slo["firing"]
              else '<span class="badge ok">ok</span>')
             for slo in state["slos"]],
            ["firing" if slo["firing"] else "" for slo in state["slos"]]))
        if state["alerts"]:
            parts.append("<h2>Alert history</h2>")
            parts.append(table(
                ("slo", "fired at (s)", "resolved at (s)", "peak fast burn",
                 "exemplar traces"),
                [(f"<code>{html.escape(alert['slo'])}</code>",
                  fmt(alert["fired_at_s"]), fmt(alert["resolved_at_s"]),
                  fmt(alert["fast_burn"]),
                  ", ".join(f"<code>{html.escape(t)}</code>"
                            for t in alert["exemplar_trace_ids"]) or "—")
                 for alert in state["alerts"]],
                ["firing" if alert["firing"] else "resolved"
                 for alert in state["alerts"]]))

    if flight:
        parts.append("<h2>Flight recorder</h2>")
        parts.append('<p class="meta">the slowest and failed requests '
                     "retained with their trace ids — look these up in "
                     "the exported Chrome trace.</p>")
        entries = {}  # first entry per trace id: failures, then slowest
        for entry in (flight.get("failures") or []) + \
                (flight.get("slowest") or []):
            entries.setdefault(entry.get("trace_id", ""), entry)
        parts.append(table(
            ("trace id", "status", "latency (s)"),
            [(f"<code>{html.escape(str(trace_id))}</code>",
              html.escape(str(entry.get("status", "?"))),
              fmt(entry.get("latency_s")))
             for trace_id, entry in entries.items()]))

    if trace_summary:
        parts.append("<h2>Distributed traces</h2>")
        detail = []
        if trace_summary.get("n_processes") is not None:
            detail.append(f"{trace_summary['n_processes']} merged "
                          "process lanes")
        if trace_summary.get("n_stitched_traces") is not None:
            detail.append(f"{trace_summary['n_stitched_traces']} stitched "
                          "multi-process traces")
        if trace_summary.get("path"):
            detail.append("exported to "
                          f"<code>{html.escape(str(trace_summary['path']))}"
                          "</code>")
        parts.append(f'<p class="meta">{"; ".join(detail)}.</p>')

    return page(title, "\n".join(parts), _CSS)
