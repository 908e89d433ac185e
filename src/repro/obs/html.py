"""The one static-HTML kit behind every dashboard (stdlib only).

Campaign reports (:mod:`repro.campaigns.report`), DSE reports
(:mod:`repro.dse.report`) and the observability dashboard
(:mod:`repro.obs.dashboard`) all render through these helpers: one
standalone page shell with the base stylesheet, inline-SVG charts
(axes, polyline chart), legend swatches and number formatting.  No
server, no JavaScript, no external assets, so every page renders from
``file://`` and archives next to the JSON it was rendered from.
"""

from __future__ import annotations

import html
from itertools import chain, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

#: Shared by every page; each page appends its own rules.
BASE_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 68rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { border: 1px solid #ddd; padding: 4px 8px; text-align: left; }
th { background: #f4f4f4; }
.swatch { display: inline-block; width: 10px; height: 10px;
          margin-right: 4px; border-radius: 2px; }
.meta { color: #555; font-size: 13px; }
code { background: #f4f4f4; padding: 1px 4px; border-radius: 3px; }
svg { background: #fcfcfc; border: 1px solid #eee; }
""".strip()


def fmt(value, digits: int = 4) -> str:
    """Numeric cell text (``digits`` significant); em-dash for None."""
    if value is None:
        return "—"
    return f"{value:.{digits}g}"


def page(title: str, body: str, css: str) -> str:
    """A standalone HTML page: *body* under the base stylesheet plus
    the page's own *css* rules."""
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8" />
<title>{html.escape(title)}</title>
<style>
{BASE_CSS}
{css.strip()}
</style>
</head>
<body>
{body}
</body>
</html>
"""


def table(head: Sequence[str], rows: Iterable[Sequence],
          classes: Iterable[str] = ()) -> str:
    """A table of HTML cells under one header row; *classes* gives the
    rows' CSS classes in order (empty or missing: none)."""
    body = "".join(
        (f'<tr class="{cls}">' if cls else "<tr>")
        + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row, cls in zip(rows, chain(classes, repeat(""))))
    cols = "".join(f"<th>{name}</th>" for name in head)
    return (f"<table><thead><tr>{cols}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def svg_tag(width: int, height: int) -> str:
    """The opening tag of a *width* x *height* inline SVG."""
    return (f'<svg role="img" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" '
            'xmlns="http://www.w3.org/2000/svg">')


def swatch(color: str) -> str:
    """A small legend color square."""
    return f'<span class="swatch" style="background:{color}"></span>'


def legend(items: Sequence[Tuple[str, str]]) -> str:
    """A one-line legend paragraph of ``(color, label)`` swatches."""
    spans = " ".join(f"<span>{swatch(color)}{label}</span>"
                     for color, label in items)
    return f'<p class="meta">{spans}</p>'


def axes(width: int, height: int, pad: int,
         x_labels: Sequence[str], y_labels: Sequence[str]) -> List[str]:
    """Axis lines plus evenly spaced tick labels for one chart."""
    parts = [
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#333" stroke-width="1" />',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
        f'y2="{height - pad}" stroke="#333" stroke-width="1" />',
    ]
    span_x = width - 2 * pad
    for i, label in enumerate(x_labels):
        x = pad + (span_x * i / max(1, len(x_labels) - 1))
        parts.append(
            f'<text x="{x:.1f}" y="{height - pad + 16}" '
            f'text-anchor="middle" font-size="11">'
            f'{html.escape(label)}</text>')
    span_y = height - 2 * pad
    for i, label in enumerate(y_labels):
        y = height - pad - (span_y * i / max(1, len(y_labels) - 1))
        parts.append(
            f'<text x="{pad - 6}" y="{y:.1f}" text-anchor="end" '
            f'dominant-baseline="middle" font-size="11">'
            f'{html.escape(label)}</text>')
    return parts


def chart_frame(title: str, width: int, height: int, pad: int,
                x_labels: Sequence[str], y_labels: Sequence[str],
                x_caption: Optional[str] = None) -> List[str]:
    """The opening elements of a chart: SVG tag, title, axes and the
    optional x-axis caption.  Close the list with ``"</svg>"``."""
    parts = [svg_tag(width, height), f"<title>{html.escape(title)}</title>"]
    parts += axes(width, height, pad, x_labels, y_labels)
    if x_caption:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height - 8}" '
            f'text-anchor="middle" font-size="11">'
            f'{html.escape(x_caption)}</text>')
    return parts


def line_chart(title: str, x_labels: Sequence[str],
               y_labels: Sequence[str], x_caption: str,
               series: Sequence[Tuple[str, Sequence[float]]],
               width: int = 640, height: int = 240, pad: int = 46) -> str:
    """A polyline-with-markers chart over evenly spaced x positions.

    Args:
        series: ``(color, fractions)`` per line, one fraction of the
            y span (clamped to [0, 1]) per x label.
    """
    parts = chart_frame(title, width, height, pad, x_labels, y_labels,
                        x_caption)
    span_x, span_y = width - 2 * pad, height - 2 * pad
    for color, fractions in series:
        coords = [(pad + span_x * i / max(1, len(fractions) - 1),
                   height - pad - span_y * min(1.0, max(0.0, frac)))
                  for i, frac in enumerate(fractions)]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        parts.append(
            f'<polyline points="{path}" fill="none" '
            f'stroke="{color}" stroke-width="2" />')
        for x, y in coords:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" '
                f'fill="{color}" />')
    parts.append("</svg>")
    return "\n".join(parts)
