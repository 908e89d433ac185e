"""The thread-safe metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric of one component.  The
process-wide default registry (:func:`get_registry`) is what the
library's built-in instrumentation writes to; components that need
isolation (one registry per service instance, per test) construct and
inject their own.

All three metric kinds support labels::

    registry = MetricsRegistry()
    traps = registry.counter("do_traps_total", "SUIT #DO traps",
                             label_names=("cpu",))
    traps.inc(cpu="C")
    traps.value(cpu="C")        # -> 1

Metric creation is get-or-create and idempotent: asking twice for the
same name returns the same object, asking for the same name with a
different kind or label set raises ``ValueError``.  Everything is
guarded by per-metric locks, so executor callbacks, the asyncio loop
and worker threads may all write concurrently.

The bucket :class:`Histogram` keeps the semantics the service has
always used (fixed ascending bounds, one implicit overflow bucket,
percentiles read as the holding bucket's upper bound).  Windowed
reads over it live in :mod:`repro.obs.timeseries`
(:func:`~repro.obs.timeseries.histogram_delta`).
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Label-value tuple of an unlabelled metric's single series.
_NO_LABELS: Tuple[str, ...] = ()

#: Label value every series beyond a family's cardinality bound
#: collapses onto (see :class:`MetricsRegistry`).
OVERFLOW_LABEL_VALUE = "__overflow__"

#: Name of the registry counter that records collapsed writes.
OVERFLOW_COUNTER = "metrics_label_overflow_total"


def latency_bounds(lo: float = 1e-4, hi: float = 120.0) -> List[float]:
    """Geometric bucket bounds from *lo* to at least *hi* seconds."""
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * 2.0)
    return bounds


class Histogram:
    """Fixed-bucket histogram with approximate percentiles.

    Args:
        bounds: ascending bucket upper bounds; one implicit overflow
            bucket catches everything above the last bound.
    """

    def __init__(self, bounds: Sequence[float]) -> None:
        """See class docstring."""
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be non-empty and ascending")
        self.bounds: List[float] = [float(b) for b in bounds]
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.n = 0
        self.total = 0.0
        self.max_seen = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.n += 1
            self.total += value
            if value > self.max_seen:
                self.max_seen = value

    def percentile(self, p: float) -> Optional[float]:
        """Upper bound of the bucket holding rank ``p`` (0..1); None when empty.

        The overflow bucket reports the largest value seen, so a
        pathological tail is never under-reported.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.n == 0:
            return None
        rank = max(1, int(p * self.n + 0.5))
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max_seen
        return self.max_seen

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the observations; None when empty."""
        return self.total / self.n if self.n else None

    def to_json_dict(self) -> dict:
        """JSON form: counts per bucket plus the headline percentiles."""
        return {
            "n": self.n,
            "mean": self.mean,
            "max": self.max_seen if self.n else None,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.bounds + [None], self.counts)
            ],
        }


class _Metric:
    """Shared plumbing of one named metric family (all label series)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = threading.Lock()
        #: Cardinality bound and overflow callback, installed by the
        #: owning :class:`MetricsRegistry` (a bare metric is unbounded).
        self.max_series: Optional[int] = None
        self._on_overflow: Optional[Callable[[str], None]] = None

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        """Label values in declaration order; rejects unknown/missing keys."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.label_names)

    def _bounded_key(self, labels: Dict[str, str],
                     existing: Dict) -> Tuple[str, ...]:
        """The write-path key: like :meth:`_key`, but once *existing*
        holds ``max_series`` distinct series, any **new** series
        collapses onto the :data:`OVERFLOW_LABEL_VALUE` sentinel (and
        the overflow callback fires) so per-request label values can
        never grow the registry without bound.  Established series are
        unaffected — only the long tail is collapsed."""
        key = self._key(labels)
        if (not self.label_names or self.max_series is None
                or key in existing or len(existing) < self.max_series):
            return key
        if self._on_overflow is not None:
            self._on_overflow(self.name)
        return tuple(OVERFLOW_LABEL_VALUE for _ in self.label_names)


class Counter(_Metric):
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        """See :class:`_Metric`."""
        super().__init__(name, help_text, label_names)
        self._values: Dict[Tuple[str, ...], int] = {}
        self._exemplars: Dict[Tuple[str, ...], str] = {}
        if not self.label_names:
            self._values[_NO_LABELS] = 0

    def inc(self, delta: int = 1, exemplar: Optional[str] = None,
            **labels: str) -> None:
        """Increment the series selected by *labels* by *delta* (>= 0).

        *exemplar* optionally attaches a sample identity (a trace id)
        to the series — the most recent one wins, readable back via
        :meth:`exemplars` so an alert or a report can link a counted
        event to its full span tree.
        """
        if delta < 0:
            raise ValueError("counters only go up")
        key = self._bounded_key(labels, self._values)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + int(delta)
            if exemplar is not None:
                self._exemplars[key] = str(exemplar)

    def value(self, **labels: str) -> int:
        """Current value of the selected series (0 when never touched)."""
        with self._lock:
            return self._values.get(self._key(labels), 0)

    def series(self) -> Dict[Tuple[str, ...], int]:
        """Snapshot of every label series."""
        with self._lock:
            return dict(self._values)

    def exemplars(self) -> Dict[Tuple[str, ...], str]:
        """Snapshot of the latest exemplar per series (only series that
        ever received one appear)."""
        with self._lock:
            return dict(self._exemplars)


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        """See :class:`_Metric`."""
        super().__init__(name, help_text, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the selected series to *value*."""
        key = self._bounded_key(labels, self._values)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, delta: float = 1.0, **labels: str) -> None:
        """Add *delta* (may be negative) to the selected series."""
        key = self._bounded_key(labels, self._values)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(delta)

    def dec(self, delta: float = 1.0, **labels: str) -> None:
        """Subtract *delta* from the selected series."""
        self.inc(-delta, **labels)

    def value(self, **labels: str) -> Optional[float]:
        """Current value of the selected series, or None when never set."""
        with self._lock:
            return self._values.get(self._key(labels))

    def series(self) -> Dict[Tuple[str, ...], float]:
        """Snapshot of every label series."""
        with self._lock:
            return dict(self._values)


class HistogramFamily(_Metric):
    """A family of bucket :class:`Histogram`\\ s, one per label series."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 bounds: Optional[Sequence[float]] = None,
                 label_names: Sequence[str] = ()) -> None:
        """See :class:`_Metric`; *bounds* default to latency buckets."""
        super().__init__(name, help_text, label_names)
        self.bounds = list(bounds) if bounds is not None else latency_bounds()
        self._children: Dict[Tuple[str, ...], Histogram] = {}
        if not self.label_names:
            self._children[_NO_LABELS] = Histogram(self.bounds)

    def child(self, **labels: str) -> Histogram:
        """The (lazily created) histogram of the selected series."""
        key = self._bounded_key(labels, self._children)
        with self._lock:
            hist = self._children.get(key)
            if hist is None:
                hist = Histogram(self.bounds)
                self._children[key] = hist
            return hist

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation on the selected series."""
        self.child(**labels).observe(value)

    def percentile(self, p: float, **labels: str) -> Optional[float]:
        """Percentile of the selected series (None when empty)."""
        return self.child(**labels).percentile(p)

    def series(self) -> Dict[Tuple[str, ...], Histogram]:
        """Snapshot of every label series."""
        with self._lock:
            return dict(self._children)


def _series_name(name: str, label_names: Sequence[str],
                 label_values: Sequence[str]) -> str:
    """Snapshot key of one series: ``name`` or ``name{k="v",...}``."""
    if not label_names:
        return name
    rendered = ",".join(f'{k}="{v}"'
                        for k, v in zip(label_names, label_values))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    Args:
        max_series_per_metric: cardinality bound per metric family.
            Once a labelled family holds this many distinct series,
            further **new** label combinations collapse onto one
            ``__overflow__`` series and
            ``metrics_label_overflow_total{metric=...}`` counts every
            collapsed write — so a per-request label (a raw trace id,
            a client address) can degrade a family's resolution but
            never OOM the registry.
    """

    def __init__(self, max_series_per_metric: int = 256) -> None:
        """See class docstring."""
        if max_series_per_metric < 1:
            raise ValueError("max_series_per_metric must be >= 1")
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self.max_series_per_metric = max_series_per_metric
        self._overflow = Counter(
            OVERFLOW_COUNTER,
            "series writes collapsed by the cardinality bound, by metric",
            label_names=("metric",))
        self._overflow.max_series = max_series_per_metric
        self._metrics[OVERFLOW_COUNTER] = self._overflow

    def _note_overflow(self, metric_name: str) -> None:
        """Count one collapsed write against *metric_name*."""
        self._overflow.inc(metric=metric_name)

    def _get_or_create(self, cls, name: str, help_text: str,
                       label_names: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {cls.kind}")
                if tuple(label_names) != metric.label_names:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{metric.label_names}, not {tuple(label_names)}")
                return metric
            metric = cls(name, help_text, label_names=label_names, **kwargs)
            metric.max_series = self.max_series_per_metric
            metric._on_overflow = self._note_overflow
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, help_text, label_names)

    def histogram(self, name: str, help_text: str = "",
                  bounds: Optional[Sequence[float]] = None,
                  label_names: Sequence[str] = ()) -> HistogramFamily:
        """Get or create the histogram family *name*."""
        return self._get_or_create(HistogramFamily, name, help_text,
                                   label_names, bounds=bounds)

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric *name*, or None."""
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def clear(self) -> None:
        """Drop every metric (tests); the overflow counter is rebuilt."""
        with self._lock:
            self._metrics.clear()
            self._overflow = Counter(
                OVERFLOW_COUNTER,
                "series writes collapsed by the cardinality bound, by metric",
                label_names=("metric",))
            self._overflow.max_series = self.max_series_per_metric
            self._metrics[OVERFLOW_COUNTER] = self._overflow

    def snapshot(self) -> dict:
        """The whole registry as a JSON-ready dict (stable key order).

        Shape: ``{"counters": {series: int}, "gauges": {series: float},
        "histograms": {series: histogram-json}, "exemplars":
        {series: trace_id}}`` where an unlabelled metric's series key
        is its bare name and a labelled one renders as
        ``name{label="value",...}``.  ``exemplars`` only lists counter
        series that ever received one.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        exemplars: Dict[str, str] = {}
        for metric in self.collect():
            if isinstance(metric, Counter):
                for values, count in sorted(metric.series().items()):
                    counters[_series_name(metric.name, metric.label_names,
                                          values)] = count
                for values, exemplar in sorted(metric.exemplars().items()):
                    exemplars[_series_name(metric.name, metric.label_names,
                                           values)] = exemplar
            elif isinstance(metric, Gauge):
                for values, val in sorted(metric.series().items()):
                    gauges[_series_name(metric.name, metric.label_names,
                                        values)] = val
            elif isinstance(metric, HistogramFamily):
                for values, hist in sorted(metric.series().items()):
                    histograms[_series_name(metric.name, metric.label_names,
                                            values)] = hist.to_json_dict()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "exemplars": exemplars}


#: The process-wide default registry the built-in instrumentation uses.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default registry; returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
