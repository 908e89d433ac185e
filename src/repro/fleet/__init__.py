"""``repro.fleet``: N simulation services behind one logical front door.

A fixed set of asyncio
:class:`~repro.service.server.SimulationService` nodes behind one
routing gateway.  The fleet adds no simulation of its own: it is the
substrate of ``fleet serve``, the chaos-over-fleet soak, the
cross-node trace and the observability smoke.

* :class:`~repro.fleet.ring.ConsistentHashRing` — deterministic
  placement of canonical requests on nodes, keyed on
  ``(cpu, workload)`` so each node's per-process ``SuitSystem`` /
  trace / L1 caches stay hot; removing one of N nodes remaps only
  ~1/N of the key space.
* :class:`~repro.fleet.node.NodeSupervisor` — spawns and drains
  worker-service nodes, either in-process (tests, smoke) or as real
  ``python -m repro serve`` subprocesses.
* :class:`~repro.fleet.gateway.FleetGateway` — the asyncio front-end
  speaking the existing JSON-lines protocol: per-node health checks,
  pooled :class:`~repro.service.client.ServiceClient` connections,
  bounded retry-with-reroute on node failure, and fan-out aggregation
  for the ``metrics`` / ``trace`` verbs; served over TCP by the
  node's own loop, :func:`~repro.service.server.start_tcp_server`.
* :class:`~repro.fleet.soak.FleetSoak` — chaos-over-fleet: kill a
  live node mid-load and let the differential oracle assert the
  gateway rerouted with zero wrong answers.

See ``docs/fleet.md`` for the architecture and operating guide.
"""

from repro.fleet.gateway import FleetGateway, GatewayConfig
from repro.fleet.node import NodeConfig, NodeHandle, NodeSupervisor
from repro.fleet.ring import ConsistentHashRing, route_key
from repro.fleet.soak import FleetSoak, FleetSoakConfig, FleetSoakResult

__all__ = [
    "ConsistentHashRing",
    "FleetGateway",
    "FleetSoak",
    "FleetSoakConfig",
    "FleetSoakResult",
    "GatewayConfig",
    "NodeConfig",
    "NodeHandle",
    "NodeSupervisor",
    "route_key",
]
