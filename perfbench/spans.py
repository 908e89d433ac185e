"""In-memory spans around calls into the program's layers.

The benchmark never edits ``src/``: :func:`install` replaces each
layer's public entry point (a module function or a class method) with
a wrapper that records one span per call — layer name, start, end, the
span that was open when the call began, and a small per-call value
such as a trace's event count.  Spans stay in memory until
:meth:`SpanRecorder.dump`; :func:`layer_totals` turns them into
per-layer self time (a span's duration minus the union of its
children's intervals) and call counts.

Only the process that installed the wrappers records, and only while
the recorder is enabled: forked pool workers inherit the wrappers but
call straight through, so a worker layer is timed from its parent at
``ShardedWorkerTier.run_batch``.  A thread worker does record; its
``execute_batch`` call runs under the ``run_batch`` span that submitted
the batch (matched by the request list both receive), since a pool
thread does not inherit the submitter's context.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=-1)


def _n_events(args, kwargs, result):
    return result.n_events


def _stream_len(args, kwargs, result):
    return len(args[1])


def _n_configs(args, kwargs, result):
    return len(result)


def _hit(args, kwargs, result):
    return 0 if result is None else 1


def _response(args, kwargs, result):
    """(service latency seconds, answer source) of a SimResponse."""
    return result.latency_s, result.source


def _batch_width(args, kwargs, result):
    return len(args[2])


#: (module, attribute path, layer, per-call value).  A dotted attribute
#: names a method; anything else is a module-level function, which is
#: also rebound in every loaded ``repro`` module that imported it by name.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.workloads.generator", "generate_trace", "workloads.synth",
     _n_events),
    ("repro.workloads.tracecache", "cached_trace", "workloads.cached_trace",
     None),
    ("repro.core.multicore", "merged_multicore_trace", "multicore.merge",
     _n_events),
    ("repro.core.batchsim", "compile_episode", "batchsim.compile", None),
    ("repro.core.batchsim", "simulate_sweep", "batchsim.sweep", _n_configs),
    ("repro.core.simulator", "TraceSimulator.run", "simulator.run", None),
    ("repro.core.estimates", "emulation_estimate", "estimates.emulation",
     None),
    ("repro.pipeline.scoreboard", "OutOfOrderCore.run", "pipeline.scoreboard",
     _stream_len),
    ("repro.runtime.cache", "ResultCache.get", "cache.get", _hit),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", None),
    ("repro.service.server", "SimulationService.submit", "service.submit",
     _response),
    ("repro.service.workers", "ShardedWorkerTier.run_batch",
     "service.run_batch", _batch_width),
    ("repro.fleet.gateway", "FleetGateway.submit", "fleet.submit",
     _response),
)
#: The layer that hands batches to pool workers, and the function a
#: worker runs for a batch.
BATCH_LAYER = "service.run_batch"
BATCH_EXECUTOR = ("repro.service.workers", "execute_batch")


class SpanRecorder:
    """Spans of one process, kept in memory until :meth:`dump`.

    A span is ``[layer, start_s, end_s, parent_index, value]``; *value*
    is what the layer's value function returned for that call (or
    None).  Thread-safe; the open span is tracked per thread and per
    asyncio task through a context variable, so concurrent requests do
    not nest under each other.
    """

    def __init__(self) -> None:
        """An empty, enabled recorder owned by the current process;
        while :attr:`enabled` is false the wrappers call straight
        through."""
        self.enabled = True
        self.pid = os.getpid()
        self.spans: List[list] = []
        #: id() of a batch's request list -> its open run_batch span.
        self.batches: Dict[int, int] = {}
        self._lock = threading.Lock()

    def _open(self, layer: str) -> int:
        span = [layer, time.perf_counter(), 0.0, _CURRENT.get(), None]
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def adopt(self, fn: Callable) -> Callable:
        """*fn*, a batch executor, run with the open span of the
        :data:`BATCH_LAYER` call that was given the same request list."""
        recorder = self

        @functools.wraps(fn)
        def adopter(requests):
            parent = recorder.batches.get(id(requests))
            if parent is None or os.getpid() != recorder.pid:
                return fn(requests)
            token = _CURRENT.set(parent)
            try:
                return fn(requests)
            finally:
                _CURRENT.reset(token)
        return adopter

    def wrap(self, fn: Callable, layer: str,
             value: Optional[Callable]) -> Callable:
        """*fn* with a span recorded around every call in this process."""
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not recorder.enabled or os.getpid() != recorder.pid:
                    return await fn(*args, **kwargs)
                index = recorder._open(layer)
                token = _CURRENT.set(index)
                if layer == BATCH_LAYER:
                    recorder.batches[id(args[2])] = index
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    recorder.spans[index][2] = time.perf_counter()
                    if layer == BATCH_LAYER:
                        recorder.batches.pop(id(args[2]), None)
                if value is not None:
                    recorder.spans[index][4] = value(args, kwargs, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled or os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            index = recorder._open(layer)
            token = _CURRENT.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                recorder.spans[index][2] = time.perf_counter()
            if value is not None:
                recorder.spans[index][4] = value(args, kwargs, result)
            return result
        return wrapper

    def dump(self, path: str) -> None:
        """Write every span to *path* as JSON (unfinished: end 0)."""
        with self._lock:
            spans = list(self.spans)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
        os.replace(path + ".tmp", path)


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point of :data:`LAYERS` (imports their modules).

    Call after the modules whose callers should be traced are loaded:
    a module imported later keeps the unwrapped function it binds.
    """
    for module_name, attr, layer, value in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method,
                    recorder.wrap(getattr(cls, method), layer, value))
            continue
        _rebind(module, attr, recorder.wrap(getattr(module, attr), layer,
                                            value))
    module = importlib.import_module(BATCH_EXECUTOR[0])
    _rebind(module, BATCH_EXECUTOR[1],
            recorder.adopt(getattr(module, BATCH_EXECUTOR[1])))


def _rebind(module, attr: str, wrapped: Callable) -> None:
    """Replace *module*.*attr* by *wrapped* in every loaded ``repro``
    module that holds the original."""
    original = getattr(module, attr)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) \
                and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_totals(spans: List[list], window: Tuple[float, float]
                 ) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``self_s`` and ``total_s`` (inclusive) of
    the finished spans that lie inside *window* (start, end)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for layer, start, end, parent, _ in spans:
        if parent >= 0 and end:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, Dict[str, float]] = {}
    for index, (layer, start, end, _, _) in enumerate(spans):
        if not end or start < window[0] or end > window[1]:
            continue
        entry = totals.setdefault(layer,
                                  {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        covered = _union([(max(lo, start), min(hi, end))
                          for lo, hi in children.get(index, ())
                          if hi > start and lo < end])
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return totals
