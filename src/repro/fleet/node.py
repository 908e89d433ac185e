"""Fleet nodes and the supervisor that spawns and drains them.

A **node** is one :class:`~repro.service.server.SimulationService`
reachable over the JSON-lines TCP protocol.  The supervisor runs them
in either of two modes:

* **in-process** (``NodeConfig.in_process=True``) — the node's service
  and TCP server live on the supervisor's own event loop.  This is the
  mode of tests, ``make fleet-smoke`` and ``make obs-smoke``: zero
  spawn latency, and with ``use_processes=True`` the nodes still
  get real CPU parallelism from their worker *pools* even though their
  asyncio front-ends share one loop.
* **subprocess** — a real ``python -m repro serve --port 0`` child per
  node, its bound port read back from the startup banner.  This is
  what ``python -m repro fleet serve`` uses: node death is process
  death, exactly what the gateway's reroute path is built for.

Draining is polite in both modes: the node stops admitting, finishes
what it accepted, then goes away (the ``drain`` verb added to the
service protocol for exactly this).  :meth:`NodeSupervisor.kill` is
the impolite version — the chaos scenario's mid-load node loss.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.client import ServiceClient
from repro.service.server import (
    ServiceConfig,
    SimulationService,
    start_tcp_server,
)

#: Node lifecycle states.
STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"


@dataclass
class NodeConfig:
    """How the supervisor builds each worker node.

    Attributes:
        in_process: run nodes on the supervisor's event loop instead
            of spawning ``python -m repro serve`` children.
        use_processes: worker pools as processes (real parallelism)
            vs threads (fast tests); forwarded to the node's
            :class:`~repro.service.server.ServiceConfig`.
        n_shards / workers_per_shard: per-node worker-tier topology.
        max_queue_depth: per-node admission bound.
        max_batch_size / batch_window_s: per-node micro-batching.
        default_timeout_s: per-node request timeout.
        host: bind address of node TCP servers.
        spawn_timeout_s: how long to wait for a subprocess node's
            startup banner before declaring the spawn failed.
    """

    in_process: bool = True
    use_processes: bool = False
    n_shards: int = 1
    workers_per_shard: int = 1
    max_queue_depth: int = 256
    max_batch_size: int = 8
    batch_window_s: float = 0.002
    default_timeout_s: float = 30.0
    host: str = "127.0.0.1"
    spawn_timeout_s: float = 20.0

    def service_config(self) -> ServiceConfig:
        """The node-side :class:`ServiceConfig` this node config implies."""
        return ServiceConfig(
            n_shards=self.n_shards,
            workers_per_shard=self.workers_per_shard,
            use_processes=self.use_processes,
            max_queue_depth=self.max_queue_depth,
            max_batch_size=self.max_batch_size,
            batch_window_s=self.batch_window_s,
            default_timeout_s=self.default_timeout_s,
        )


@dataclass
class NodeHandle:
    """One live (or formerly live) node, however it is hosted.

    Attributes:
        name: stable node name ("node-0", ...) — the ring identity.
        host / port: where the node's JSON-lines server listens.
        state: :data:`STATE_UP` / :data:`STATE_DRAINING` /
            :data:`STATE_STOPPED`.
        service / server: the in-process objects (None for subprocess
            nodes).
        process: the child process (None for in-process nodes).
    """

    name: str
    host: str
    port: int
    state: str = STATE_UP
    service: Optional[SimulationService] = None
    server: Optional["asyncio.AbstractServer"] = None
    process: Optional["asyncio.subprocess.Process"] = None
    #: Live connection writers of an in-process node's TCP server;
    #: :meth:`NodeSupervisor.kill` aborts these so peers see resets.
    connections: set = field(default_factory=set)


class NodeSupervisor:
    """Spawns, drains and kills the fleet's worker nodes.

    The supervisor owns node *lifecycle* only; membership in the
    routing ring is the gateway's business (``fleet serve`` and the
    soak wire the two together).  Names are handed out sequentially and never
    reused, so a node that died and a node that replaced it are always
    distinguishable in logs and metrics.

    Args:
        config: per-node build recipe.
    """

    def __init__(self, config: Optional[NodeConfig] = None) -> None:
        """See class docstring."""
        self.config = config or NodeConfig()
        self._names = itertools.count()
        self._nodes: Dict[str, NodeHandle] = {}

    @property
    def nodes(self) -> List[NodeHandle]:
        """Handles of every non-stopped node, in spawn order."""
        return [h for h in self._nodes.values() if h.state != STATE_STOPPED]

    async def spawn(self) -> NodeHandle:
        """Start one new node and return its handle once reachable."""
        name = f"node-{next(self._names)}"
        if self.config.in_process:
            handle = await self._spawn_in_process(name)
        else:
            handle = await self._spawn_subprocess(name)
        self._nodes[name] = handle
        return handle

    async def _spawn_in_process(self, name: str) -> NodeHandle:
        """An event-loop-resident node: service + ephemeral TCP server."""
        service = SimulationService(self.config.service_config())
        # In-process nodes share the supervisor's global tracer; the
        # node name as the span lane label is what keeps each node a
        # distinct Chrome process in the merged fleet trace.
        service.proc_name = name
        await service.start()
        connections: set = set()
        server = await start_tcp_server(service, host=self.config.host,
                                        port=0, connections=connections)
        port = server.sockets[0].getsockname()[1]
        return NodeHandle(name=name, host=self.config.host, port=port,
                          service=service, server=server,
                          connections=connections)

    async def _spawn_subprocess(self, name: str) -> NodeHandle:
        """A ``python -m repro serve`` child; port read from its banner."""
        cfg = self.config
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", cfg.host, "--port", "0",
                "--shards", str(cfg.n_shards),
                "--workers-per-shard", str(cfg.workers_per_shard),
                "--max-queue", str(cfg.max_queue_depth),
                "--batch-size", str(cfg.max_batch_size),
                "--batch-window-ms", str(cfg.batch_window_s * 1e3),
                "--timeout", str(cfg.default_timeout_s),
                "--no-cache"]
        if not cfg.use_processes:
            argv.append("--inline")
        process = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL)
        try:
            assert process.stdout is not None
            banner = await asyncio.wait_for(process.stdout.readline(),
                                            cfg.spawn_timeout_s)
            # "repro service listening on 127.0.0.1:PORT  [...]"
            text = banner.decode("utf-8", "replace")
            marker = "listening on "
            start = text.index(marker) + len(marker)
            address = text[start:].split()[0]
            port = int(address.rsplit(":", 1)[1])
        except (asyncio.TimeoutError, ValueError, IndexError) as exc:
            process.kill()
            raise RuntimeError(
                f"node {name} failed to start: no banner ({exc})") from exc
        return NodeHandle(name=name, host=cfg.host, port=port,
                          process=process)

    async def drain(self, name: str, timeout_s: float = 30.0) -> None:
        """Politely retire node *name*: stop admitting, finish, stop.

        Safe to call on an already stopped node (no-op).
        """
        handle = self._nodes.get(name)
        if handle is None or handle.state == STATE_STOPPED:
            return
        handle.state = STATE_DRAINING
        if handle.service is not None:
            handle.server.close()
            await handle.server.wait_closed()
            await handle.service.stop(drain=True, timeout_s=timeout_s)
        elif handle.process is not None:
            try:
                async with await ServiceClient.connect(
                        handle.host, handle.port) as client:
                    await asyncio.wait_for(client.drain(), timeout_s)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass  # unreachable node: escalate to termination below
            handle.process.terminate()
            try:
                await asyncio.wait_for(handle.process.wait(), timeout_s)
            except asyncio.TimeoutError:
                handle.process.kill()
                await handle.process.wait()
        handle.state = STATE_STOPPED

    async def kill(self, name: str) -> None:
        """Abruptly take node *name* down — the chaos scenario.

        In-process nodes lose their TCP server and their service
        without a drain (in-flight work is failed, exactly what an
        OS-level kill does to connections); subprocess nodes get
        SIGKILL.
        """
        handle = self._nodes.get(name)
        if handle is None or handle.state == STATE_STOPPED:
            return
        if handle.service is not None:
            # Reset established connections the way a process death
            # would — peers must see ConnectionResetError, not a
            # polite shutdown answer.  Abort them before waiting on the
            # server: from python 3.12.1 on, wait_closed() also waits
            # for every open connection.
            handle.server.close()
            for writer in list(handle.connections):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            handle.connections.clear()
            await handle.server.wait_closed()
            await handle.service.stop(drain=False, timeout_s=1.0)
        elif handle.process is not None:
            handle.process.kill()
            await handle.process.wait()
        handle.state = STATE_STOPPED

    async def stop_all(self, drain: bool = True) -> None:
        """Retire every node (politely by default)."""
        for handle in list(self._nodes.values()):
            if handle.state == STATE_STOPPED:
                continue
            if drain:
                await self.drain(handle.name)
            else:
                await self.kill(handle.name)
