"""The observability smoke: one small fleet, every obs claim checked.

``python -m repro obs smoke`` (and ``make obs-smoke``) runs a complete
miniature of the observability story against a real in-process fleet —
gateway + N TCP nodes + thread workers — and asserts the three claims
``docs/observability.md`` makes:

1. **Distributed tracing** — a request forwarded by the gateway yields
   one stitched span tree whose spans live on at least three merged
   process lanes (gateway, node, worker), time-aligned by
   :func:`~repro.obs.context.merge_process_traces` and free of orphan
   spans.
2. **Windowed time-series** — after a slow warm-up burst followed by
   fast traffic, the windowed p95 of ``latency_s`` diverges from (sits
   below) the cumulative histogram's p95, which still remembers the
   warm-up.
3. **SLO burn-rate alerting** — a latency SLO fires while the injected
   slow burst burns both windows, carries flight-recorder exemplar
   trace ids, and resolves once the fast window cools.

The run writes three artefacts into ``out_dir``: the merged Chrome
trace (``fleet_trace.json``), the HTML dashboard (``dashboard.html``,
validated with :mod:`html.parser`) and the machine-readable verdict
(``report.json``).  Everything is stdlib + repro; the fleet is torn
down and the process-wide tracer restored no matter what failed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.context import (
    assert_span_containment,
    span_index,
    trace_ids_in,
)
from repro.obs.dashboard import render_obs_dashboard
from repro.obs.slo import SLO, BurnRatePolicy, SLOMonitor
from repro.obs.timeseries import MetricsScraper, ingest_metrics_answer
from repro.obs.tracer import Tracer, set_tracer

__all__ = ["ObsSmokeConfig", "run_obs_smoke"]


@dataclass
class ObsSmokeConfig:
    """Knobs of one observability smoke run.

    Attributes:
        out_dir: where the trace/dashboard/report artefacts land.
        n_nodes: in-process fleet size.
        n_slow / n_fast: request counts of the injected-latency burst
            and each of the two fast bursts.
        slow_sleep_s / fast_sleep_s: per-request worker hold times
            (``__sleep__:`` fault-injection workloads — deterministic
            latency without real simulations).
        latency_threshold_s: the latency SLO's "fast enough" bound;
            must separate the two sleep times.
        objective: the SLO's good fraction (0.95 → slow bursts burn at
            20x, over both default thresholds).
        fast_window_s / slow_window_s: the burn windows, compressed
            from 5m/1h onto the smoke's seconds-long timeline.
        settle_s: wait between the firing and resolving evaluations —
            long enough for the slow burst to leave the fast window.
    """

    out_dir: Path = Path("obs-smoke")
    n_nodes: int = 2
    n_slow: int = 12
    n_fast: int = 19
    slow_sleep_s: float = 0.2
    fast_sleep_s: float = 0.002
    latency_threshold_s: float = 0.05
    objective: float = 0.95
    fast_window_s: float = 0.6
    slow_window_s: float = 30.0
    settle_s: float = 0.7

    @property
    def n_requests(self) -> int:
        """Total requests the smoke drives (slow + two fast bursts)."""
        return self.n_slow + 2 * self.n_fast


#: CPU names cycled through so route keys spread across the fleet.
_CPUS = ("A", "B", "C", "i5")


class _DashboardCheck(HTMLParser):
    """Counts the structural tags a valid dashboard must contain."""

    def __init__(self) -> None:
        super().__init__()
        self.tags: Dict[str, int] = {}

    def handle_starttag(self, tag: str, attrs) -> None:
        self.tags[tag] = self.tags.get(tag, 0) + 1


def validate_dashboard_html(text: str) -> Dict[str, int]:
    """Parse dashboard HTML with :mod:`html.parser`; returns the tag
    counts after asserting the structural minimum (a title, at least
    one table, at least one SVG sparkline)."""
    parser = _DashboardCheck()
    parser.feed(text)
    parser.close()
    for required in ("title", "table", "svg"):
        if parser.tags.get(required, 0) < 1:
            raise AssertionError(
                f"dashboard HTML is missing a <{required}> element")
    return parser.tags


def _stitched_traces(events: List[dict], min_lanes: int = 3) -> List[dict]:
    """Traces whose spans cover >= *min_lanes* merged process lanes."""
    stitched = []
    for trace_id in trace_ids_in(events):
        spans = span_index(events, trace_id)
        if not spans:
            continue
        lanes = {event.get("pid") for event in spans.values()}
        if len(lanes) >= min_lanes:
            stitched.append({"trace_id": trace_id, "n_spans": len(spans),
                             "n_lanes": len(lanes)})
    return stitched


async def _drive(gateway, requests) -> List:
    return list(await asyncio.gather(
        *(gateway.submit(request) for request in requests)))


async def _run(cfg: ObsSmokeConfig) -> dict:
    from repro.fleet.gateway import FleetGateway, GatewayConfig
    from repro.fleet.node import NodeConfig, NodeSupervisor
    from repro.obs.context import orphan_spans
    from repro.service.request import SimRequest

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    previous = set_tracer(tracer)
    supervisor = NodeSupervisor(NodeConfig(in_process=True,
                                           use_processes=False))
    gateway = FleetGateway(GatewayConfig(health_interval_s=0.05))
    scrapers: Dict[str, MetricsScraper] = {
        "fleet": MetricsScraper(interval_s=0.05)}
    monitor = SLOMonitor(
        scrapers["fleet"],
        slos=[SLO(name="latency-p95", objective=cfg.objective,
                  latency_threshold_s=cfg.latency_threshold_s,
                  description=f"{cfg.objective:.0%} of requests within "
                              f"{cfg.latency_threshold_s * 1e3:.0f}ms")],
        policy=BurnRatePolicy(fast_window_s=cfg.fast_window_s,
                              slow_window_s=cfg.slow_window_s),
        flight=gateway.flight)

    async def scrape() -> None:
        ingest_metrics_answer(scrapers, await gateway.metrics(),
                              interval_s=0.05)

    def burst(n: int, sleep_s: float, tag: int) -> List[SimRequest]:
        return [SimRequest(cpu=_CPUS[i % len(_CPUS)],
                           workload=f"__sleep__:{sleep_s}",
                           seed=tag * 1000 + i)
                for i in range(n)]

    report: dict = {"config": {
        "n_nodes": cfg.n_nodes, "n_requests": cfg.n_requests,
        "slow_sleep_s": cfg.slow_sleep_s, "fast_sleep_s": cfg.fast_sleep_s,
        "latency_threshold_s": cfg.latency_threshold_s,
        "objective": cfg.objective}}
    checks: Dict[str, bool] = {}
    try:
        for _ in range(cfg.n_nodes):
            handle = await supervisor.spawn()
            gateway.add_node(handle.name, handle.host, handle.port)
        await gateway.start()
        await scrape()  # the delta baseline

        # Phase 1: injected latency — every request over the threshold.
        slow = await _drive(gateway, burst(cfg.n_slow, cfg.slow_sleep_s, 1))
        await scrape()
        fired = monitor.evaluate()
        checks["alert_fired"] = any(a.firing for a in fired)
        checks["alert_has_exemplars"] = any(a.exemplar_trace_ids
                                            for a in fired)

        # Phase 2: healthy traffic; wait the slow burst out of the fast
        # window, then prove the alert resolves on fresh evidence.
        fast1 = await _drive(gateway, burst(cfg.n_fast, cfg.fast_sleep_s, 2))
        await scrape()
        await asyncio.sleep(cfg.settle_s)
        fast2 = await _drive(gateway, burst(cfg.n_fast, cfg.fast_sleep_s, 3))
        await scrape()
        resolved = monitor.evaluate()
        checks["alert_resolved"] = (any(not a.firing for a in resolved)
                                    and not monitor.firing)
        checks["all_requests_ok"] = all(
            r.status == "ok" for r in slow + fast1 + fast2)

        # Windowed-vs-cumulative divergence: the cumulative histogram
        # still remembers the slow burst; the window has forgotten it.
        fleet = scrapers["fleet"]
        windowed_p95 = fleet.windowed_percentile("latency_s", 0.95,
                                                 cfg.fast_window_s)
        newest = fleet.samples[-1]
        cumulative_p95 = (newest.histograms.get("latency_s") or {}).get("p95")
        report["windowed_p95_s"] = windowed_p95
        report["cumulative_p95_s"] = cumulative_p95
        checks["windowed_p95_present"] = windowed_p95 is not None
        checks["windowed_below_cumulative"] = (
            windowed_p95 is not None and cumulative_p95 is not None
            and windowed_p95 < cumulative_p95)

        # The merged, time-aligned fleet trace.
        trace = await gateway.trace()
        merged = trace["merged"]
        trace_path = out_dir / "fleet_trace.json"
        trace_path.write_text(json.dumps(merged), encoding="utf-8")
        events = merged["traceEvents"]
        stitched = _stitched_traces(events)
        checks["stitched_trace"] = bool(stitched)
        checks["no_orphan_spans"] = all(
            not orphan_spans(events, t) for t in trace_ids_in(events))
        contained = 0
        for entry in stitched:
            contained += assert_span_containment(events, entry["trace_id"])
        checks["span_containment"] = contained > 0
        report["stitched_traces"] = stitched[:8]
        report["n_stitched_traces"] = len(stitched)
        report["n_process_lanes"] = merged["otherData"]["n_processes"]
        report["trace_path"] = str(trace_path)

        # The dashboard, validated structurally.
        page = render_obs_dashboard(
            scrapers, monitor=monitor, flight=trace.get("flight"),
            trace_summary={"n_processes": report["n_process_lanes"],
                           "n_stitched_traces": len(stitched),
                           "path": trace_path},
            title="repro obs smoke", window_s=cfg.fast_window_s)
        dashboard_path = out_dir / "dashboard.html"
        dashboard_path.write_text(page, encoding="utf-8")
        validate_dashboard_html(page)
        checks["dashboard_valid"] = True
        report["dashboard_path"] = str(dashboard_path)
    finally:
        await gateway.close()
        await supervisor.stop_all(drain=True)
        set_tracer(previous)

    report["alerts"] = [a.to_json_dict() for a in monitor.alerts]
    report["checks"] = checks
    report["passed"] = bool(checks) and all(checks.values())
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return report


def run_obs_smoke(config: Optional[ObsSmokeConfig] = None) -> dict:
    """Run the observability smoke synchronously; returns the report."""
    return asyncio.run(_run(config or ObsSmokeConfig()))
