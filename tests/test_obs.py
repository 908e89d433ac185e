"""Tests for the unified telemetry layer (``repro.obs``)."""

from __future__ import annotations

import asyncio
import json
import logging
import threading

import pytest

from repro.obs import (
    Counter,
    JsonLogFormatter,
    MetricsRegistry,
    NullTracer,
    Tracer,
    TRACK_SIM,
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
    logging_setup,
    parse_prometheus,
    profiled,
    render_prometheus,
    set_registry,
    set_tracer,
    validate_chrome_trace,
)
from repro.obs.registry import Histogram, latency_bounds


@pytest.fixture
def registry():
    """A fresh default registry, restored after the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def tracer():
    """A recording tracer installed for the test, removed after."""
    recording = enable_tracing(capacity=10_000)
    yield recording
    disable_tracing()


class TestRegistryConcurrency:
    def test_threaded_counter_increments(self, registry):
        counter = registry.counter("hits_total", "hits")
        n_threads, n_incs = 8, 1000

        def work():
            for _ in range(n_incs):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == n_threads * n_incs

    def test_threaded_histogram_observes(self, registry):
        hist = registry.histogram("lat", bounds=[0.1, 1.0, 10.0])

        def work():
            for i in range(500):
                hist.observe(0.05 * (1 + i % 3))

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.child().n == 3000


class TestRegistrySemantics:
    def test_get_or_create_idempotent(self, registry):
        a = registry.counter("x_total", "help")
        b = registry.counter("x_total")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_label_mismatch_raises(self, registry):
        registry.counter("x_total", label_names=("cpu",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("x_total", label_names=("strategy",))

    def test_labelled_series(self, registry):
        traps = registry.counter("traps_total", label_names=("cpu",))
        traps.inc(cpu="A")
        traps.inc(2, cpu="C")
        assert traps.value(cpu="A") == 1
        assert traps.value(cpu="C") == 2
        snap = registry.snapshot()
        assert snap["counters"]['traps_total{cpu="C"}'] == 2

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c_total").inc(-1)

    def test_invalid_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")

    def test_gauge_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        assert g.value() is None
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value() == 4


class TestHistogramPercentiles:
    def test_empty_returns_none(self):
        hist = Histogram([1.0, 2.0])
        assert hist.percentile(0.5) is None
        assert hist.mean is None

    def test_single_sample(self):
        hist = Histogram([1.0, 2.0, 4.0])
        hist.observe(1.5)
        assert hist.percentile(0.0) == 2.0
        assert hist.percentile(0.5) == 2.0
        assert hist.percentile(1.0) == 2.0

    def test_out_of_range_p_raises(self):
        hist = Histogram([1.0])
        hist.observe(0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hist.percentile(1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hist.percentile(-0.1)

    def test_overflow_bucket_reports_max_seen(self):
        hist = Histogram([1.0])
        hist.observe(50.0)
        assert hist.percentile(0.99) == 50.0

    def test_latency_bounds_ascending(self):
        bounds = latency_bounds()
        assert bounds == sorted(bounds)
        assert bounds[-1] >= 120.0


class TestTracer:
    def test_chrome_export_round_trips_with_monotonic_ts(self, tmp_path):
        tracer = Tracer(capacity=100)
        tracer.instant("b", "sim", ts_s=2.0, track=TRACK_SIM)
        tracer.instant("a", "sim", ts_s=1.0, track=TRACK_SIM)
        tracer.complete("span", "engine", ts_s=0.5, dur_s=0.25)
        path = tracer.export_chrome(tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == 3
        per_track: dict = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "M":
                continue
            per_track.setdefault(event["pid"], []).append(event["ts"])
        for track_ts in per_track.values():
            assert track_ts == sorted(track_ts)

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.instant(f"e{i}", "sim", ts_s=float(i))
        assert len(tracer) == 3
        assert tracer.n_dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]

    def test_null_tracer_records_nothing(self):
        null = NullTracer()
        assert null.enabled is False
        null.instant("x", "sim")
        null.complete("y", "sim", ts_s=0.0, dur_s=1.0)
        with null.span("z"):
            pass
        assert len(null) == 0

    def test_enable_disable_swaps_global(self):
        assert get_tracer().enabled is False
        tracer = enable_tracing(capacity=10)
        try:
            assert get_tracer() is tracer
            assert get_tracer().enabled is True
        finally:
            disable_tracing()
        assert get_tracer().enabled is False

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "?", "ts": 0}]})
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0}]})

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer(capacity=10)
        tracer.instant("a", "sim", ts_s=1.0)
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "a"


class TestProfiled:
    def test_records_histogram_and_span(self, registry, tracer):
        with profiled("step one", cat="engine"):
            pass
        hist = registry.get("step_one_seconds")
        assert hist is not None and hist.child().n == 1
        assert [e.name for e in tracer.events()] == ["step one"]

    def test_no_span_when_disabled(self, registry):
        with profiled("quiet step"):
            pass
        assert registry.get("quiet_step_seconds").child().n == 1
        assert len(get_tracer()) == 0


class TestPrometheus:
    def test_render_and_parse_round_trip(self, registry):
        registry.counter("hits_total", "hits").inc(3)
        registry.gauge("depth", "queue depth").set(7)
        registry.histogram("lat_s", "latency", bounds=[0.1, 1.0]).observe(0.5)
        text = render_prometheus(registry)
        assert "# TYPE hits_total counter" in text
        assert "# TYPE lat_s histogram" in text
        parsed = parse_prometheus(text)
        assert parsed["hits_total"] == 3
        assert parsed["depth"] == 7
        assert parsed['lat_s_bucket{le="1.0"}'] == 1
        assert parsed['lat_s_bucket{le="+Inf"}'] == 1
        assert parsed["lat_s_count"] == 1

    def test_counter_gets_total_suffix(self, registry):
        registry.counter("requests_submitted").inc()
        text = render_prometheus(registry)
        assert "requests_submitted_total 1" in text


class TestSimulatorTracing:
    def _run_one(self):
        from repro.core.suit import SuitSystem
        from repro.workloads.spec import SPEC_PROFILES

        suit = SuitSystem.for_cpu("C", strategy_name="fV",
                                  voltage_offset=-0.097, seed=0)
        return suit.run_profile(SPEC_PROFILES["502.gcc"])

    def test_trap_and_pstate_events_recorded(self, tracer):
        result = self._run_one()
        names = {e.name for e in tracer.events()}
        assert "#DO trap" in names
        assert "p-state change" in names
        assert result.n_exceptions > 0

    def test_disabled_tracer_unchanged_result(self, tracer):
        traced = self._run_one()
        disable_tracing()
        untraced = self._run_one()
        assert traced.duration_s == untraced.duration_s
        assert traced.energy_rel == untraced.energy_rel
        assert traced.n_exceptions == untraced.n_exceptions


class TestTimelineTruncation:
    def test_truncation_flag_set_when_cap_hit(self, monkeypatch):
        import repro.core.simulator as simulator
        from repro.core.suit import SuitSystem
        from repro.workloads.spec import SPEC_PROFILES

        monkeypatch.setattr(simulator, "_TIMELINE_CAP", 4)
        suit = SuitSystem.for_cpu("C", strategy_name="fV",
                                  voltage_offset=-0.097, seed=0)
        result = suit.run_profile(SPEC_PROFILES["502.gcc"],
                                  record_timeline=True)
        assert result.timeline_truncated is True
        assert len(result.timeline) == 4

    def test_flag_clear_without_cap(self):
        from repro.core.suit import SuitSystem
        from repro.workloads.spec import SPEC_PROFILES

        suit = SuitSystem.for_cpu("C", strategy_name="fV",
                                  voltage_offset=-0.097, seed=0)
        result = suit.run_profile(SPEC_PROFILES["520.omnetpp"],
                                  record_timeline=True)
        assert result.timeline_truncated is False


class TestServiceMetricsVerb:
    def test_metrics_verb_returns_prometheus_text(self):
        from repro.service import (
            ServiceConfig,
            SimulationService,
            start_tcp_server,
        )
        from repro.service.client import ServiceClient

        async def scenario():
            config = ServiceConfig(n_shards=1, workers_per_shard=1,
                                   use_processes=False)
            async with SimulationService(config) as service:
                server = await start_tcp_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    text = await client.metrics_text()
                    snap = await client.metrics()
                finally:
                    await client.close()
                server.close()
                await server.wait_closed()
                return text, snap

        text, snap = asyncio.run(scenario())
        parsed = parse_prometheus(text)
        assert parsed["requests_submitted_total"] == 0
        assert parsed["queue_depth"] == 0
        assert 'batch_occupancy_bucket{le="+Inf"}' in parsed
        assert snap["counters"]["requests_submitted"] == 0

    def test_trace_verb_reports_disabled(self):
        from repro.service import (
            ServiceConfig,
            SimulationService,
            start_tcp_server,
        )
        from repro.service.client import ServiceClient

        async def scenario():
            config = ServiceConfig(n_shards=1, workers_per_shard=1,
                                   use_processes=False)
            async with SimulationService(config) as service:
                server = await start_tcp_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    return await client.trace()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()

        trace = asyncio.run(scenario())
        assert trace["enabled"] is False
        assert trace["events"] == []


class TestLogging:
    def test_json_formatter_emits_json_lines(self):
        record = logging.LogRecord("repro.test", logging.INFO, __file__, 1,
                                   "hello %s", ("world",), None)
        line = JsonLogFormatter().format(record)
        payload = json.loads(line)
        assert payload["message"] == "hello world"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test"

    def test_setup_idempotent_and_level(self):
        logger = logging_setup("DEBUG")
        logger = logging_setup("INFO")
        assert len(logger.handlers) == 1
        assert logger.level == logging.INFO

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            logging_setup("LOUD")


class TestTraceCli:
    def test_trace_experiment_writes_valid_chrome_trace(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        code = main(["trace", "fig6_fv_timeline", "--out", str(out),
                     "--validate"])
        assert code == 0
        trace = json.loads(out.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "#DO trap" in names
        assert "p-state change" in names
        assert "trace validates" in capsys.readouterr().out
        # The CLI restores the no-op tracer afterwards.
        assert get_tracer().enabled is False

    def test_unknown_experiment_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["trace", "not_an_experiment", "--out", "/tmp/x.json"])


class TestCardinalityGuard:
    def test_new_series_collapse_onto_overflow(self):
        from repro.obs.registry import (
            OVERFLOW_COUNTER,
            OVERFLOW_LABEL_VALUE,
        )

        registry = MetricsRegistry(max_series_per_metric=3)
        counter = registry.counter("rpc_total", "rpcs",
                                   label_names=("peer",))
        for i in range(10):
            counter.inc(peer=f"peer-{i}")
        series = counter.series()
        assert len(series) <= 4  # 3 real + the overflow sentinel
        assert series[(OVERFLOW_LABEL_VALUE,)] == 7
        # Established series keep incrementing normally.
        counter.inc(peer="peer-0")
        assert counter.series()[("peer-0",)] == 2
        # ... and the overflow is observable as a metric itself.
        snapshot = registry.snapshot()
        overflow = [(k, v) for k, v in snapshot["counters"].items()
                    if k.startswith(OVERFLOW_COUNTER)]
        assert sum(v for _, v in overflow) == 7

    def test_unlabelled_metrics_unaffected(self):
        registry = MetricsRegistry(max_series_per_metric=1)
        counter = registry.counter("plain_total", "plain")
        for _ in range(5):
            counter.inc()
        assert counter.value() == 5

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_series_per_metric=0)


class TestCounterExemplars:
    def test_latest_exemplar_per_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("reroutes_total", "reroutes",
                                   label_names=("reason",))
        counter.inc(reason="timeout", exemplar="aaaa")
        counter.inc(reason="timeout", exemplar="bbbb")
        counter.inc(reason="connection")
        assert counter.exemplars()[("timeout",)] == "bbbb"
        assert ("connection",) not in counter.exemplars()

    def test_exemplars_in_snapshot(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "x", label_names=("k",))
        counter.inc(k="v", exemplar="cafe")
        assert "exemplars" in registry.snapshot()
