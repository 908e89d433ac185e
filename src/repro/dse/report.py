"""Static-HTML DSE dashboards, rendered through :mod:`repro.obs.html`.

:class:`ReportBuilder` turns a search report dict
(:meth:`repro.dse.runner.DseRunner.build_report`) into one
self-contained ``index.html``: no server, no JavaScript, no external
assets — inline CSS plus inline SVG charts, so the file renders from
``file://`` and archives losslessly next to ``dse_report.json``.

Charts:

* **Pareto scatter** — every evaluated genome in (duration ratio,
  energy ratio) space, frontier members highlighted and the
  recommended operating point starred;
* **hypervolume trend** — dominated hypervolume per generation (is the
  search still finding better trade-offs?);
* **recommended-point card** and the ranked-frontier drill-down table.

Colors are the Okabe-Ito colorblind-safe palette.
"""

from __future__ import annotations

import html
import math
from typing import Tuple

from repro.dse.space import Genome
from repro.obs.html import (chart_frame, fmt, legend, line_chart, page,
                            table)

#: Okabe-Ito assignments for the scatter classes.
POINT_COLORS = {
    "dominated": "#999999",
    "front": "#0072B2",
    "violating": "#D55E00",
    "recommended": "#E69F00",
}

_CSS = """
tr.recommended td { background: #fdf3e0; }
.card { border: 1px solid #E69F00; border-radius: 6px; padding: 0.8rem
        1rem; background: #fdf8ef; margin: 1rem 0; }
.card b { font-size: 1.05rem; }
"""


class ReportBuilder:
    """Renders one DSE report dict to a standalone HTML page."""

    def __init__(self, report: dict) -> None:
        """Wrap *report* (schema-checked)."""
        if report.get("schema") != "repro.dse-report.v1":
            raise ValueError(
                f"unsupported report schema {report.get('schema')!r}")
        self.report = report

    # -- charts ----------------------------------------------------------

    def _scatter(self) -> str:
        """Every evaluated genome in (duration, energy) space."""
        records = self.report["all_evaluated"]
        if not records:
            return '<p class="meta">no genomes evaluated yet.</p>'
        front_keys = {r["key"] for r in self.report["front"]}
        recommended = self.report.get("recommendation") or {}
        rec_key = recommended.get("key")
        width, height, pad = 640, 360, 52
        xs = [r["duration_ratio"] for r in records]
        ys = [r["energy_ratio"] for r in records]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def place(r: dict) -> Tuple[float, float]:
            x = pad + (width - 2 * pad) * \
                (r["duration_ratio"] - x_lo) / x_span
            y = height - pad - (height - 2 * pad) * \
                (r["energy_ratio"] - y_lo) / y_span
            return x, y

        parts = chart_frame(
            "Pareto scatter: duration vs energy", width, height, pad,
            [fmt(x_lo), fmt((x_lo + x_hi) / 2), fmt(x_hi)],
            [fmt(y_lo), fmt((y_lo + y_hi) / 2), fmt(y_hi)],
            "duration ratio (lower = faster)")
        parts.append(
            f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
            f'font-size="11" transform="rotate(-90 14 {height / 2:.0f})">'
            'energy ratio (lower = leaner)</text>')
        starred = None
        for r in records:
            x, y = place(r)
            label = Genome.from_json_dict(r["genome"]).describe()
            title = (f'{html.escape(label)} — '
                     f'headroom {fmt(r["headroom_mv"])} mV')
            if r["key"] == rec_key:
                starred = (x, y, title)
                continue
            if r["violation_mv"] > 0.0:
                color, radius = POINT_COLORS["violating"], 3.0
            elif r["key"] in front_keys:
                color, radius = POINT_COLORS["front"], 4.0
            else:
                color, radius = POINT_COLORS["dominated"], 2.5
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius}" '
                f'fill="{color}" fill-opacity="0.85">'
                f'<title>{title}</title></circle>')
        if starred is not None:
            x, y, title = starred
            parts.append(
                f'<path d="{_star_path(x, y, 8.0)}" '
                f'fill="{POINT_COLORS["recommended"]}" stroke="#7a5200" '
                f'stroke-width="1"><title>recommended: {title}'
                '</title></path>')
        parts.append("</svg>")
        parts.append(legend(
            [(POINT_COLORS[k], label)
             for k, label in (("front", "Pareto front"),
                              ("dominated", "dominated"),
                              ("violating", "security violation"),
                              ("recommended", "recommended"))]))
        return "\n".join(parts)

    def _hypervolume_chart(self) -> str:
        """Dominated hypervolume per generation."""
        rows = self.report["generations"]
        if not rows:
            return ""
        values = [row["hypervolume"] for row in rows]
        hi = max(values) or 1.0
        return line_chart(
            "Hypervolume per generation",
            [str(row["index"]) for row in rows],
            ["0", fmt(hi / 2), fmt(hi)], "generation",
            [(POINT_COLORS["front"], [v / hi for v in values])], pad=52)

    # -- cards and tables ------------------------------------------------

    def _recommendation_card(self) -> str:
        """The recommended operating point, front and center."""
        rec = self.report.get("recommendation")
        if not rec:
            return ('<p class="meta">no recommendation — the search has '
                    'not completed a generation yet.</p>')
        objectives = rec["objectives"]
        return f"""<div class="card">
<b>{html.escape(rec["describe"])}</b>
<p class="meta">TOPSIS closeness {fmt(rec["topsis"])} ·
weighted-sum score {fmt(rec["weighted_sum"])}</p>
<table><tbody>
<tr><td>efficient-curve offset</td><td>{rec["offset_mv"]:g} mV</td></tr>
<tr><td>performance change</td><td>{fmt(rec["perf_change_pct"])}%</td></tr>
<tr><td>power change</td><td>{fmt(rec["power_change_pct"])}%</td></tr>
<tr><td>efficiency change</td>
<td>{fmt(rec["efficiency_change_pct"])}%</td></tr>
<tr><td>duration ratio</td>
<td>{fmt(objectives["duration_ratio"])}</td></tr>
<tr><td>energy ratio</td><td>{fmt(objectives["energy_ratio"])}</td></tr>
<tr><td>security headroom</td>
<td>{fmt(objectives["security_headroom_mv"])} mV</td></tr>
</tbody></table>
</div>"""

    def _generation_table(self) -> str:
        return table(
            ("generation", "evaluated", "feasible", "front size",
             "hypervolume"),
            [(row["index"], row["n_evaluated"], row["n_feasible"],
              row["front_size"], fmt(row["hypervolume"]))
             for row in self.report["generations"]])

    def _front_table(self) -> str:
        rec_key = (self.report.get("recommendation") or {}).get("key")
        by_key = {r["key"]: r for r in self.report["front"]}
        ordered = sorted(self.report["ranking"],
                         key=lambda r: r["topsis_rank"])
        rows = []
        for rank_row in ordered:
            record = by_key[rank_row["key"]]
            label = Genome.from_json_dict(record["genome"]).describe()
            rows.append((rank_row["topsis_rank"],
                         f"<code>{html.escape(label)}</code>",
                         fmt(record["duration_ratio"]),
                         fmt(record["energy_ratio"]),
                         fmt(record["headroom_mv"]), fmt(rank_row["topsis"]),
                         rank_row["weighted_sum_rank"]))
        return table(
            ("rank", "operating point", "duration", "energy",
             "headroom (mV)", "TOPSIS", "WS rank"), rows,
            ["recommended" if r["key"] == rec_key else "" for r in ordered])

    # -- page ------------------------------------------------------------

    def render(self) -> str:
        """The full standalone HTML page."""
        r = self.report
        spec = r["spec"]
        name = html.escape(r["search"])
        incomplete = ""
        if r["n_generations"] < r["generations_requested"]:
            incomplete = (
                f'<p class="meta"><strong>{r["n_generations"]}/'
                f'{r["generations_requested"]} generations complete'
                '</strong> — resume the search to finish.</p>')
        return page(f"DSE report: {r['search']}", f"""\
<h1>Design-space exploration: {name}</h1>
<p class="meta">workload <code>{html.escape(spec["workload"])}</code> ·
CPU <code>{html.escape(spec["cpu"])}</code> ·
seed {spec["seed"]} ·
{r["n_generations"]} generations × {spec["population"]} genomes ·
{r["n_distinct_genomes"]} distinct genomes /
{r["n_unique_sims"]} unique simulations ·
spec digest <code>{html.escape(r["spec_digest"][:12])}</code></p>
{incomplete}
<h2>Recommended operating point</h2>
{self._recommendation_card()}
<h2>Pareto scatter</h2>
{self._scatter()}
<h2>Hypervolume trend</h2>
{self._hypervolume_chart()}
<h2>Per-generation progress</h2>
{self._generation_table()}
<h2>Ranked frontier</h2>
{self._front_table()}""", _CSS)


def _star_path(cx: float, cy: float, radius: float) -> str:
    """SVG path of a five-pointed star centered on (*cx*, *cy*)."""
    points = []
    for i in range(10):
        r = radius if i % 2 == 0 else radius * 0.45
        angle = -math.pi / 2 + i * math.pi / 5
        points.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    verbs = [f"M {points[0][0]:.1f} {points[0][1]:.1f}"]
    verbs += [f"L {x:.1f} {y:.1f}" for x, y in points[1:]]
    return " ".join(verbs) + " Z"
