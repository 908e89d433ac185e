"""The parallel, cached experiment engine.

:class:`ExperimentEngine` runs the modules of
:data:`repro.experiments.runall.EXPERIMENT_MODULES` (or any other
registry of ``run(seed=..., fast=...)`` modules) and produces an
:class:`EngineReport`:

* **Parallel** — cache misses execute on a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` workers);
  ``jobs <= 1`` runs in-process with no pool overhead.
* **Deterministic** — each experiment's seed is
  :func:`~repro.runtime.seeding.derive_seed`\\ (base_seed, module), a
  pure function of the base seed and the module name, so the report's
  canonical form is byte-identical whatever the worker count or
  completion order.
* **Cached** — results are memoized in a
  :class:`~repro.runtime.cache.ResultCache` keyed by module source
  hash, package digest, version, seed and mode; unchanged experiments
  are instant on re-run.
* **Fault-isolated** — an experiment that raises is reported as a
  ``"failed"`` record (with its traceback) without killing the pool or
  the run, and failures are never cached.

The JSON report written by :meth:`EngineReport.write` has a stable
schema (see ``docs/experiment_engine.md``); its *canonical* form
(:meth:`EngineReport.canonical_json`) strips the volatile runtime
fields (wall times, worker ids, cache hits, job count) and is what the
determinism tests compare.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import logging
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.obs import get_registry, get_tracer
from repro.runtime.cache import (
    ResultCache,
    experiment_cache_key,
    package_digest,
    source_sha256,
)
from repro.runtime.seeding import derive_seed
from repro.runtime.serialization import deserialize_result, serialize_result
from repro.runtime.study import atomic_write_json, fan_out

logger = logging.getLogger(__name__)

#: Version of the report JSON schema.
REPORT_SCHEMA_VERSION = 1

#: The repro distribution version baked into cache keys and reports.
REPRO_VERSION = "1.0.0"

#: Default registry package holding the experiment modules.
DEFAULT_REGISTRY = "repro.experiments"


def _execute_experiment(registry: str, name: str, seed: int, fast: bool) -> dict:
    """Run one experiment (in a pool worker or in-process).

    Never raises: an experiment failure is returned as a
    ``status == "failed"`` outcome carrying the traceback, so one crash
    cannot take down the pool or the run.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    worker = multiprocessing.current_process().name
    tracer = get_tracer()
    try:
        with tracer.span(f"experiment:{name}", cat="engine",
                         args={"seed": seed, "fast": fast}):
            module = importlib.import_module(f"{registry}.{name}")
            result = module.run(seed=seed, fast=fast)
        payload: Optional[dict] = serialize_result(result)
        status, error = "ok", None
    except BaseException:  # noqa: BLE001 - the traceback is the report
        payload, status = None, "failed"
        error = traceback.format_exc()
    return {"module": name, "status": status, "error": error,
            "payload": payload, "wall_time_s": time.perf_counter() - start,
            "cpu_time_s": time.process_time() - cpu_start,
            "worker": worker}


@dataclass
class ExperimentRecord:
    """One experiment's entry in an :class:`EngineReport`.

    Attributes:
        module: experiment module name ("table6_main", ...).
        status: "ok" or "failed".
        seed: the derived seed the experiment ran with.
        payload: serialized result (None when failed) — see
            :func:`repro.runtime.serialization.serialize_result`.
        error: traceback text when failed.
        wall_time_s: execution time (0.0 for cache hits).
        cpu_time_s: process CPU time consumed (0.0 for cache hits).
        cache_hit: whether the result came from the cache.
        cache_key: content address used (None when caching is off).
        worker: name of the process that executed the experiment.
    """

    module: str
    status: str
    seed: int
    payload: Optional[dict] = None
    error: Optional[str] = None
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    cache_hit: bool = False
    cache_key: Optional[str] = None
    worker: str = "cache"

    @property
    def ok(self) -> bool:
        """True when the experiment completed."""
        return self.status == "ok"

    def to_result(self) -> ExperimentResult:
        """Rebuild the :class:`ExperimentResult` (raises if failed)."""
        if not self.ok or self.payload is None:
            raise RuntimeError(f"experiment {self.module} failed:\n{self.error}")
        return deserialize_result(self.payload)

    def to_json_dict(self) -> dict:
        """Full JSON form, including the volatile ``runtime`` section."""
        entry = self.canonical_dict()
        entry["runtime"] = {
            "wall_time_s": self.wall_time_s,
            "cpu_time_s": self.cpu_time_s,
            "cache_hit": self.cache_hit,
            "worker": self.worker,
        }
        return entry

    def canonical_dict(self) -> dict:
        """Deterministic JSON form (no timing / worker / cache fields)."""
        payload = self.payload or {}
        return {
            "module": self.module,
            "status": self.status,
            "seed": self.seed,
            "experiment_id": payload.get("experiment_id"),
            "title": payload.get("title"),
            "metrics": payload.get("metrics", []),
            "lines": payload.get("lines", []),
            "data": payload.get("data", {}),
            "error": self.error,
        }


@dataclass
class EngineReport:
    """Everything one engine run produced, in registry order.

    Attributes:
        base_seed: the seed the per-experiment seeds were derived from.
        fast: fast/full mode.
        jobs: worker count used (volatile; excluded from canonical form).
        cache_enabled: whether a result cache was attached.
        records: one :class:`ExperimentRecord` per selected experiment.
        total_wall_time_s: wall time of the whole engine run.
    """

    base_seed: int
    fast: bool
    jobs: int
    cache_enabled: bool
    records: List[ExperimentRecord] = field(default_factory=list)
    total_wall_time_s: float = 0.0

    @property
    def n_failed(self) -> int:
        """Number of failed experiments."""
        return sum(1 for r in self.records if not r.ok)

    @property
    def n_cache_hits(self) -> int:
        """Number of records served from the cache."""
        return sum(1 for r in self.records if r.cache_hit)

    def results(self) -> List[ExperimentResult]:
        """The successful results, rebuilt, in registry order."""
        return [r.to_result() for r in self.records if r.ok]

    def to_json_dict(self) -> dict:
        """Full report JSON (stable schema + volatile runtime fields)."""
        return {
            "schema": {"name": "repro.experiment-report",
                       "version": REPORT_SCHEMA_VERSION},
            "run": {
                "repro_version": REPRO_VERSION,
                "base_seed": self.base_seed,
                "fast": self.fast,
                "jobs": self.jobs,
                "cache_enabled": self.cache_enabled,
                "total_wall_time_s": self.total_wall_time_s,
                "n_failed": self.n_failed,
                "n_cache_hits": self.n_cache_hits,
            },
            "experiments": [r.to_json_dict() for r in self.records],
        }

    def canonical_dict(self) -> dict:
        """Report stripped of everything that may vary between equal runs."""
        return {
            "schema": {"name": "repro.experiment-report",
                       "version": REPORT_SCHEMA_VERSION},
            "run": {
                "repro_version": REPRO_VERSION,
                "base_seed": self.base_seed,
                "fast": self.fast,
            },
            "experiments": [r.canonical_dict() for r in self.records],
        }

    def canonical_json(self) -> str:
        """Canonical bytes: equal runs serialize byte-identically."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def write(self, path: Path) -> Path:
        """Write the full report JSON to *path*; returns the path."""
        path = Path(path)
        atomic_write_json(path, self.to_json_dict())
        return path


class ExperimentEngine:
    """Discovers, schedules, caches and reports the experiments.

    Args:
        modules: registry order of experiment module names; defaults to
            :data:`repro.experiments.runall.EXPERIMENT_MODULES`.
        registry: package the modules live in.
        jobs: process-pool width; ``<= 1`` executes in-process.
        cache: result cache, or None to disable memoization.
        share_traces: serve synthesised traces from a zero-copy shared
            store (:mod:`repro.workloads.tracestore`) for the duration
            of each :meth:`run`: pool workers attach read-only views by
            name instead of re-synthesising per process.  Cannot change
            results — the store is just another layer of the pure
            trace cache.
    """

    def __init__(self, modules: Optional[Sequence[str]] = None,
                 registry: str = DEFAULT_REGISTRY, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 share_traces: bool = False) -> None:
        """See class docstring."""
        if modules is None:
            from repro.experiments.runall import EXPERIMENT_MODULES

            modules = EXPERIMENT_MODULES
        self.modules: Tuple[str, ...] = tuple(modules)
        self.registry = registry
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.share_traces = share_traces

    def select(self, only: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
        """Registry-ordered selection; unknown names raise ValueError."""
        if not only:
            return self.modules
        unknown = sorted(set(only) - set(self.modules))
        if unknown:
            raise ValueError(
                f"unknown experiment module(s): {', '.join(unknown)}")
        wanted = set(only)
        return tuple(name for name in self.modules if name in wanted)

    def _module_source_hash(self, name: str) -> str:
        """Hash of the module's source file (read without importing it)."""
        spec = importlib.util.find_spec(f"{self.registry}.{name}")
        if spec is None or not spec.origin:
            raise ValueError(f"cannot locate source of {self.registry}.{name}")
        return source_sha256(Path(spec.origin))

    def cache_key_for(self, name: str, *, seed: int, fast: bool) -> str:
        """Content address of one (module, derived seed, mode) invocation."""
        return experiment_cache_key(
            module=name,
            module_sha256=self._module_source_hash(name),
            package_digest=package_digest(),
            version=REPRO_VERSION,
            seed=seed,
            fast=fast,
        )

    def run(self, seed: int = 0, fast: bool = False,
            only: Optional[Sequence[str]] = None) -> EngineReport:
        """Run the selected experiments; returns the report.

        Individual experiment failures are captured in their records;
        this method itself only raises on orchestration errors (unknown
        module names, a hard-killed worker process).
        """
        started = time.perf_counter()
        store = None
        if self.share_traces:
            from repro.workloads.tracestore import SharedTraceStore

            store = SharedTraceStore.create("engine")
            store.activate()
        try:
            return self._run_selected(started, seed, fast, only)
        finally:
            if store is not None:
                stats = store.stats()
                logger.info("engine: trace store drained (%d published)",
                            stats["published"])
                store.cleanup()

    def _run_selected(self, started: float, seed: int, fast: bool,
                      only: Optional[Sequence[str]]) -> EngineReport:
        metrics = get_registry()
        experiments = metrics.counter(
            "engine_experiments_total", "engine experiment outcomes",
            label_names=("status",))
        wall_hist = metrics.histogram(
            "engine_experiment_wall_seconds",
            "per-experiment wall time of cache misses")
        names = self.select(only)
        records: Dict[str, ExperimentRecord] = {}
        pending: List[Tuple[str, int, Optional[str]]] = []
        for name in names:
            derived = derive_seed(seed, name)
            key: Optional[str] = None
            if self.cache is not None:
                key = self.cache_key_for(name, seed=derived, fast=fast)
                payload = self.cache.get(key)
                if payload is not None:
                    metrics.counter("engine_cache_hits_total",
                                    "experiments served from the cache").inc()
                    experiments.inc(status="cached")
                    records[name] = ExperimentRecord(
                        module=name, status="ok", seed=derived,
                        payload=payload, cache_hit=True, cache_key=key)
                    continue
            pending.append((name, derived, key))

        logger.info("engine: %d experiment(s), %d cached, %d to run on "
                    "%d worker(s)", len(names), len(names) - len(pending),
                    len(pending), self.jobs)
        for outcome, (name, derived, key) in zip(
                self._execute(pending, fast), pending):
            record = ExperimentRecord(
                module=name, status=outcome["status"], seed=derived,
                payload=outcome["payload"], error=outcome["error"],
                wall_time_s=outcome["wall_time_s"], cache_hit=False,
                cpu_time_s=outcome.get("cpu_time_s", 0.0),
                cache_key=key, worker=outcome["worker"])
            experiments.inc(status=record.status)
            wall_hist.observe(record.wall_time_s)
            if not record.ok:
                logger.warning("engine: %s failed", name)
            if self.cache is not None and record.ok and key is not None:
                try:
                    self.cache.put(key, record.payload)
                except OSError:
                    # An unwritable cache must not fail the run; the
                    # next invocation simply recomputes.
                    logger.warning("engine: cache write failed for %s", name)
            records[name] = record

        report = EngineReport(
            base_seed=seed, fast=fast, jobs=self.jobs,
            cache_enabled=self.cache is not None,
            records=[records[name] for name in names])
        report.total_wall_time_s = time.perf_counter() - started
        if names:
            metrics.gauge("engine_cache_hit_ratio",
                          "cache hits / experiments of the last run").set(
                report.n_cache_hits / len(names))
        logger.info("engine: run complete in %.1fs (%d failed, %d cached)",
                    report.total_wall_time_s, report.n_failed,
                    report.n_cache_hits)
        return report

    def _execute(self, pending: Sequence[Tuple[str, int, Optional[str]]],
                 fast: bool) -> List[dict]:
        """Execute the cache misses, in-process or on a process pool."""
        outcomes = dict(fan_out(
            _execute_experiment,
            [(self.registry, name, derived, fast)
             for name, derived, _ in pending], self.jobs))
        return [outcomes[i] for i in range(len(pending))]
