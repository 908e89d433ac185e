"""Static-HTML campaign dashboards, rendered through :mod:`repro.obs.html`.

:class:`ReportBuilder` turns a campaign report dict
(:meth:`repro.campaigns.runner.CampaignRunner.build_report`) into one
self-contained ``index.html``: no server, no JavaScript, no external
assets — inline CSS plus inline SVG charts, so the file renders from
``file://`` and archives losslessly next to ``campaign_report.json``.

Charts:

* **rate-vs-depth** — SDC / detected / crashed rate against undervolt
  depth (the campaign's headline curve: where does silence begin?);
* **outcome stack** — a 100%-stacked outcome bar per depth grid point;
* **drill-down** — the per-run table with injections and errors.

Colors are the Okabe-Ito colorblind-safe palette.
"""

from __future__ import annotations

import html
from typing import Dict, Tuple

from repro.campaigns.classify import OUTCOMES
from repro.obs.html import (chart_frame, fmt, legend, line_chart, page,
                            swatch, table)

#: Okabe-Ito assignments, most to least severe.
OUTCOME_COLORS: Dict[str, str] = {
    "crashed": "#000000",
    "detected": "#0072B2",
    "sdc": "#D55E00",
    "degraded": "#E69F00",
    "masked": "#999999",
}

_RATE_SERIES: Tuple[Tuple[str, str], ...] = (
    ("sdc_rate", "sdc"),
    ("detected_rate", "detected"),
    ("crashed_rate", "crashed"),
)

_CSS = """
tr.sdc td { background: #fdeee6; } tr.detected td { background: #e8f1f8; }
tr.crashed td { background: #eeeeee; }
"""


class ReportBuilder:
    """Renders one campaign report dict to a standalone HTML page."""

    def __init__(self, report: dict) -> None:
        if report.get("schema") != "repro.campaign-report.v1":
            raise ValueError(
                f"unsupported report schema {report.get('schema')!r}")
        self.report = report

    # -- charts ----------------------------------------------------------

    def _rate_chart(self) -> str:
        """SDC / detected / crashed rate vs undervolt depth (mV)."""
        rows = self.report["by_offset"]
        chart = line_chart(
            "Outcome rate vs undervolt depth",
            [f"{abs(row['offset_mv']):g}" for row in rows],
            ["0", "0.25", "0.5", "0.75", "1"], "undervolt depth (mV)",
            [(OUTCOME_COLORS[outcome], [row[key] for row in rows])
             for key, outcome in _RATE_SERIES],
            height=280)
        return chart + "\n" + legend(
            [(OUTCOME_COLORS[outcome], f"{outcome} rate")
             for _, outcome in _RATE_SERIES])

    def _stack_chart(self) -> str:
        """100%-stacked outcome bar per undervolt grid point."""
        rows = self.report["by_offset"]
        width, height, pad = 640, 240, 46
        bar_span = width - 2 * pad
        bar_w = bar_span / max(1, len(rows)) * 0.6
        parts = chart_frame(
            "Outcome breakdown per undervolt depth", width, height, pad,
            [f'{abs(row["offset_mv"]):g}' for row in rows],
            ["0%", "50%", "100%"])
        span_y = height - 2 * pad
        for i, row in enumerate(rows):
            total = max(1, sum(row["counts"].values()))
            x = pad + bar_span * i / max(1, len(rows) - 1) - bar_w / 2
            y = float(height - pad)
            for outcome in reversed(OUTCOMES):  # masked at the bottom
                h = span_y * row["counts"][outcome] / total
                if h <= 0:
                    continue
                y -= h
                parts.append(
                    f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                    f'height="{h:.1f}" fill="{OUTCOME_COLORS[outcome]}">'
                    f'<title>{outcome}: {row["counts"][outcome]}</title>'
                    '</rect>')
        parts.append("</svg>")
        parts.append(legend([(OUTCOME_COLORS[o], o) for o in OUTCOMES]))
        return "\n".join(parts)

    # -- tables ----------------------------------------------------------

    def _summary_table(self) -> str:
        outcomes = self.report["outcomes"]
        total = max(1, sum(outcomes.values()))
        return table(("outcome", "runs", "share"), [
            (swatch(OUTCOME_COLORS[o]) + o, outcomes[o],
             f"{fmt(outcomes[o] / total * 100)}%") for o in OUTCOMES])

    def _target_table(self) -> str:
        by_target = self.report.get("by_target", {})
        if not by_target:
            return ""
        return "<h2>Per-target breakdown</h2>" + table(
            ("target", *OUTCOMES),
            [(f"<code>{html.escape(target)}</code>",
              *(counts[o] for o in OUTCOMES))
             for target, counts in by_target.items()])

    def _runs_table(self) -> str:
        runs = self.report["runs"]
        return table(
            ("#", "offset (mV)", "outcome", "injections", "run seed",
             "error"),
            [(run["index"], f"{run['offset_mv']:g}", run["outcome"],
              "; ".join(html.escape(i) for i in run["injections"]),
              f"<code>{run['seed']}</code>", html.escape(run["error"] or ""))
             for run in runs],
            [run["outcome"] for run in runs])

    # -- page ------------------------------------------------------------

    def render(self) -> str:
        """The full standalone HTML page."""
        r = self.report
        spec = r["spec"]
        name = html.escape(r["campaign"])
        incomplete = ""
        if r["incomplete"]:
            incomplete = (
                f'<p class="meta"><strong>{len(r["incomplete"])} runs '
                'incomplete</strong> — resume the campaign to finish.</p>')
        return page(f"Campaign report: {r['campaign']}", f"""\
<h1>Fault-injection campaign: {name}</h1>
<p class="meta">scope <code>{html.escape(spec["scope"])}</code> ·
model <code>{html.escape(spec["fault_model"])}</code> ·
multiplicity {spec["multiplicity"]} ·
workload <code>{html.escape(spec["workload"])}</code> ·
CPU <code>{html.escape(spec["cpu"])}</code> ·
seed {spec["seed"]} ·
{r["n_completed"]}/{r["n_runs"]} runs ·
spec digest <code>{html.escape(r["spec_digest"][:12])}</code></p>
{incomplete}
<h2>Outcome totals</h2>
{self._summary_table()}
<h2>Outcome rate vs undervolt depth</h2>
{self._rate_chart()}
<h2>Outcome breakdown per depth</h2>
{self._stack_chart()}
{self._target_table()}
<h2>Per-run drill-down</h2>
{self._runs_table()}""", _CSS)
