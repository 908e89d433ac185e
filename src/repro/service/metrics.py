"""The service's observability surface: counters, gauges, histograms.

Everything the load generator and the operator dashboards need —
request/dedup/cache/rejection counters, queue-depth gauge, latency and
batch-occupancy histograms with approximate percentiles — collected
behind one :class:`ServiceMetrics` object and exported as a plain JSON
dict by :meth:`ServiceMetrics.snapshot` or as Prometheus text by
:meth:`ServiceMetrics.prometheus_text`.

Since the unified telemetry layer landed, this module is a thin facade
over :class:`repro.obs.MetricsRegistry`: every counter, gauge and
histogram lives in a (per-instance, injectable) registry, so the
service shares one metrics model with the engine and the simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.prometheus import render_prometheus
from repro.obs.registry import Histogram, MetricsRegistry, latency_bounds

__all__ = ["ServiceMetrics"]

#: Counter names the service increments, with their help strings.
#: Pre-registered at zero so a scrape of an idle service still shows
#: every counter the dashboards alert on.
SERVICE_COUNTERS = {
    "requests_submitted": "requests received by submit()",
    "requests_completed": "requests answered with status ok",
    "requests_failed": "requests answered with status failed",
    "requests_invalid": "requests rejected at validation",
    "requests_rejected": "requests rejected by admission control",
    "requests_timed_out": "requests that missed their deadline",
    "cache_hits": "requests answered from the result cache",
    "dedup_hits": "requests coalesced onto an in-flight twin",
    "simulations_executed": "simulations run on the worker tier",
    "batches_dispatched": "micro-batches handed to the worker tier",
    "batch_retries": "batch executions retried after worker crashes",
    "batch_failures": "batches that exhausted their retries",
    "worker_restarts": "worker pools rebuilt after a crash",
    "cache_put_failures": "result-cache writes that failed (non-fatal)",
}


class ServiceMetrics:
    """All counters, gauges and histograms of one service instance.

    The documented counter names are listed in :data:`SERVICE_COUNTERS`
    (all monotonic).  Thread-safe: the worker tier's executor callbacks
    and the asyncio loop may touch it from different threads.

    Args:
        registry: the backing :class:`~repro.obs.MetricsRegistry`; a
            private one is created when omitted, so two service
            instances never share series.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        """See class docstring."""
        self.registry = registry if registry is not None else MetricsRegistry()
        for name, help_text in SERVICE_COUNTERS.items():
            self.registry.counter(name, help_text)
        self.registry.gauge("queue_depth", "scheduler queue depth").set(0)
        self.latency: Histogram = self.registry.histogram(
            "latency_s", "request latency in seconds",
            bounds=latency_bounds()).child()
        self.batch_occupancy: Histogram = self.registry.histogram(
            "batch_occupancy", "requests per dispatched micro-batch",
            bounds=list(range(1, 33))).child()

    def inc(self, name: str, delta: int = 1) -> None:
        """Increment counter *name* by *delta*."""
        self.registry.counter(name, SERVICE_COUNTERS.get(name, "")).inc(delta)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        self.registry.gauge(name).set(value)

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 when never incremented)."""
        return self.registry.counter(name).value()

    def gauge(self, name: str) -> Optional[float]:
        """Current value of gauge *name*, or None when never set."""
        return self.registry.gauge(name).value()

    def observe_latency(self, seconds: float) -> None:
        """Record one request latency."""
        self.latency.observe(seconds)

    def observe_batch(self, occupancy: int) -> None:
        """Record one dispatched batch's occupancy."""
        self.batch_occupancy.observe(occupancy)

    def snapshot(self) -> dict:
        """The whole registry as a JSON-ready dict (stable key order)."""
        return self.registry.snapshot()

    def prometheus_text(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        return render_prometheus(self.registry)
