"""Simulation-as-a-service: the serving layer over the SUIT simulator.

Fleet-scale undervolting needs large numbers of what-if queries — which
chip, which workload, which strategy, how deep an offset — answered
cheaply and concurrently.  This package turns the one-shot simulator
into a service:

* :class:`~repro.service.request.SimRequest` /
  :class:`~repro.service.request.SimResponse` — the canonicalized
  request/response model (identity excludes scheduling hints, so equal
  questions share one answer).
* :class:`~repro.service.server.SimulationService` — the asyncio job
  server: result-cache fast path, in-flight dedup, deadline-aware
  priority scheduling with bounded-queue admission control, micro-
  batching onto a sharded process-pool worker tier, bounded retries on
  worker crashes, per-request timeouts and graceful drain.
* :class:`~repro.service.client.ServiceClient` — pipelined JSON-lines
  TCP client for ``python -m repro serve``.
* :class:`~repro.service.metrics.ServiceMetrics` — counters, gauges and
  latency/occupancy histograms, exported as JSON.

See ``docs/service.md`` for the architecture and request lifecycle.
"""

from repro.service.batcher import Batch, MicroBatcher
from repro.service.client import ServiceClient, request_simulations
from repro.service.metrics import ServiceMetrics
from repro.service.request import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    PRIORITY_NORMAL,
    InvalidRequestError,
    SimRequest,
    SimResponse,
)
from repro.service.scheduler import (
    AdmissionError,
    DeadlineScheduler,
    ScheduledEntry,
)
from repro.service.server import ServiceConfig, SimulationService, start_tcp_server
from repro.service.workers import BatchExecutionError, ShardedWorkerTier

__all__ = [
    "AdmissionError",
    "Batch",
    "BatchExecutionError",
    "DeadlineScheduler",
    "InvalidRequestError",
    "MicroBatcher",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NORMAL",
    "ScheduledEntry",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ShardedWorkerTier",
    "SimRequest",
    "SimResponse",
    "SimulationService",
    "request_simulations",
    "start_tcp_server",
]
