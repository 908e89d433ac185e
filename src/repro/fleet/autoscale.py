"""The fleet's autoscaling control loop.

A small, boring controller — deliberately.  Every decision is made in
:meth:`Autoscaler.step` from one scrape of the nodes'
:mod:`repro.obs` signals (queue depth, in-flight count, p95 latency),
so tests drive it step by step with a
:class:`~repro.testkit.clock.FakeClock` and assert exact decisions;
``run()`` just calls ``step()`` on an interval.

Stability comes from three guards, all tunable:

* **hysteresis** — a single hot (or idle) sample never scales; the
  condition must hold for ``up_breaches`` (``down_breaches``)
  consecutive evaluations.  Scale-down is much slower than scale-up
  by default: under-provisioning costs latency now, over-provisioning
  costs only idle workers.
* **cooldown** — after any action the controller holds still for
  ``cooldown_s``, giving the fleet time to absorb the change before
  it is measured again (otherwise one burst triggers a spawn *per
  evaluation* while the backlog drains).
* **bounds** — ``min_nodes``/``max_nodes`` are enforced structurally
  before any signal is consulted.

Scaling up spawns through the
:class:`~repro.fleet.node.NodeSupervisor` and registers with the
:class:`~repro.fleet.gateway.FleetGateway`; scaling down removes the
victim from the gateway **first** (no new traffic), then drains it
politely so accepted work still completes.  Every action lands in
:attr:`Autoscaler.events` — the scaling-event record the
breaking-point report embeds — and in the gateway registry's
``fleet_scale_events_total{action}`` counter.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.fleet.gateway import FleetGateway
from repro.fleet.node import NodeSupervisor
from repro.service.client import ServiceClient
from repro.service.request import SimRequest
from repro.testkit.clock import SYSTEM_CLOCK, cancel_and_wait


@dataclass
class AutoscalerConfig:
    """Tunables of one :class:`Autoscaler`.

    Attributes:
        min_nodes / max_nodes: hard fleet-size bounds.
        interval_s: delay between ``run()`` evaluations.
        scale_up_queue_depth: mean healthy-node queue depth above
            which the fleet counts as hot.
        scale_up_p95_s: p95 latency (any node) above which the fleet
            counts as hot — the autoscaler's SLO signal.
        scale_down_queue_depth: mean queue depth below which (with no
            meaningful in-flight work) the fleet counts as idle.
        up_breaches: consecutive hot evaluations before scaling up.
        down_breaches: consecutive idle evaluations before scaling
            down (defaults slower than up — see module docstring).
        cooldown_s: hold-still time after any scaling action.
    """

    min_nodes: int = 1
    max_nodes: int = 8
    interval_s: float = 0.5
    scale_up_queue_depth: float = 8.0
    scale_up_p95_s: float = 2.0
    scale_down_queue_depth: float = 0.5
    up_breaches: int = 2
    down_breaches: int = 6
    cooldown_s: float = 3.0


@dataclass
class ScalingEvent:
    """One autoscaler action, as recorded in reports."""

    action: str            # "scale_up" | "scale_down"
    reason: str
    node: str
    fleet_size: int        # size *after* the action
    t_s: float             # seconds since the autoscaler started

    def to_json_dict(self) -> dict:
        """JSON form (breaking-point report)."""
        return {"action": self.action, "reason": self.reason,
                "node": self.node, "fleet_size": self.fleet_size,
                "t_s": round(self.t_s, 3)}


@dataclass
class _Signals:
    """One evaluation's distilled fleet signals."""

    n_reporting: int = 0
    mean_queue_depth: float = 0.0
    total_inflight: float = 0.0
    worst_p95_s: Optional[float] = None


class Autoscaler:
    """Grows and shrinks the fleet from its observed load.

    Args:
        gateway: the fleet's gateway (routing membership + signals).
        supervisor: the node supervisor (spawn/drain).
        config: tunables.
        clock: time source (tests inject a FakeClock).
        warmers: requests driven through every scale-up node *before*
            it joins the ring — production slow-start.  A fresh node's
            first trace syntheses cost seconds each; served cold, they
            read as serving latency on whatever keys remapped to it.
    """

    def __init__(self, gateway: FleetGateway, supervisor: NodeSupervisor,
                 config: Optional[AutoscalerConfig] = None,
                 clock=SYSTEM_CLOCK,
                 warmers: Optional[Sequence[SimRequest]] = None) -> None:
        """See class docstring."""
        self.gateway = gateway
        self.supervisor = supervisor
        self.config = config or AutoscalerConfig()
        self.warmers: List[SimRequest] = list(warmers or [])
        if self.config.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.config.max_nodes < self.config.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        self.clock = clock
        self.events: List[ScalingEvent] = []
        self._m_events = gateway.registry.counter(
            "fleet_scale_events_total", "autoscaler actions, by kind",
            label_names=("action",))
        self._started_at = clock.monotonic()
        self._last_action_at: Optional[float] = None
        self._hot_streak = 0
        self._idle_streak = 0
        self._task: Optional["asyncio.Task"] = None

    # -- decisions ------------------------------------------------------

    def _collect(self, raw: dict) -> _Signals:
        """Distil one fan-out scrape into the decision signals.

        Latency prefers the gateway's ``windowed_p95_latency_s`` when
        that key is reported: the windowed p95 forgets a cold node's
        warm-up as soon as the warm-up leaves the window, where the
        cumulative ``p95_latency_s`` remembers it forever (and held the
        fleet permanently "hot").  A present-but-``None`` windowed
        value means the last window saw no traffic — no latency signal
        at all, rather than a stale cumulative one.
        """
        signals = _Signals()
        depths: List[float] = []
        for entry in raw.values():
            if not isinstance(entry, dict) or "error" in entry:
                continue
            if entry.get("draining"):
                continue
            signals.n_reporting += 1
            depths.append(float(entry.get("queue_depth", 0.0)))
            signals.total_inflight += float(entry.get("inflight", 0.0))
            if "windowed_p95_latency_s" in entry:
                p95 = entry.get("windowed_p95_latency_s")
            else:
                p95 = entry.get("p95_latency_s")
            if p95 is not None and (signals.worst_p95_s is None
                                    or p95 > signals.worst_p95_s):
                signals.worst_p95_s = float(p95)
        if depths:
            signals.mean_queue_depth = sum(depths) / len(depths)
        return signals

    def _in_cooldown(self) -> bool:
        return (self._last_action_at is not None
                and self.clock.monotonic() - self._last_action_at
                < self.config.cooldown_s)

    async def step(self) -> Optional[ScalingEvent]:
        """One evaluation: scrape, decide, (maybe) act.

        Returns the action taken, or None.  Structural bound
        enforcement (below ``min_nodes``) acts even during cooldown —
        replacing dead capacity is not a tuning decision.
        """
        cfg = self.config
        size = len(self.gateway.node_names)
        if size < cfg.min_nodes:
            return await self._scale_up("below min_nodes")
        signals = self._collect(await self.gateway.node_signals())
        hot = (signals.mean_queue_depth > cfg.scale_up_queue_depth
               or (signals.worst_p95_s is not None
                   and signals.worst_p95_s > cfg.scale_up_p95_s))
        idle = (signals.mean_queue_depth <= cfg.scale_down_queue_depth
                and signals.total_inflight < 1.0)
        self._hot_streak = self._hot_streak + 1 if hot else 0
        self._idle_streak = self._idle_streak + 1 if idle else 0
        if self._in_cooldown():
            return None
        if (hot and self._hot_streak >= cfg.up_breaches
                and size < cfg.max_nodes):
            reason = (f"mean queue depth {signals.mean_queue_depth:.1f}"
                      if signals.mean_queue_depth > cfg.scale_up_queue_depth
                      else f"p95 {signals.worst_p95_s:.3f}s over SLO")
            return await self._scale_up(reason)
        if (idle and self._idle_streak >= cfg.down_breaches
                and size > cfg.min_nodes):
            return await self._scale_down(
                f"idle for {self._idle_streak} evaluations")
        return None

    async def _scale_up(self, reason: str) -> ScalingEvent:
        handle = await self.supervisor.spawn()
        if self.warmers:
            await self._warm(handle.host, handle.port)
        self.gateway.add_node(handle.name, handle.host, handle.port)
        return self._record("scale_up", reason, handle.name)

    async def _warm(self, host: str, port: int) -> None:
        """Drive the warm-up population through a node not yet in the
        ring; a node that cannot be warmed still joins (the gateway's
        health loop owns reachability verdicts)."""
        try:
            async with await ServiceClient.connect(host, port) as client:
                await asyncio.gather(
                    *(client.submit(request) for request in self.warmers))
        except (ConnectionError, OSError, ValueError):
            pass

    async def _scale_down(self, reason: str) -> Optional[ScalingEvent]:
        victim = self._pick_victim()
        if victim is None:
            return None
        # Out of the ring first — no new traffic — then a polite
        # drain so everything the node accepted still completes.
        await self.gateway.remove_node(victim)
        await self.supervisor.drain(victim)
        return self._record("scale_down", reason, victim)

    def _pick_victim(self) -> Optional[str]:
        """Retire the youngest healthy node (LIFO keeps the veterans'
        caches, which are the warmest, in service)."""
        healthy = self.gateway.healthy_nodes
        if not healthy:
            return None
        live = [h.name for h in self.supervisor.nodes
                if h.name in healthy]
        return live[-1] if live else healthy[-1]

    def _record(self, action: str, reason: str, node: str) -> ScalingEvent:
        self._last_action_at = self.clock.monotonic()
        self._hot_streak = 0
        self._idle_streak = 0
        event = ScalingEvent(
            action=action, reason=reason, node=node,
            fleet_size=len(self.gateway.node_names),
            t_s=self.clock.monotonic() - self._started_at)
        self.events.append(event)
        self._m_events.inc(action=action)
        return event

    # -- lifecycle ------------------------------------------------------

    async def run(self) -> None:
        """Evaluate forever on the configured interval (cancellable)."""
        while True:
            await self.clock.sleep(self.config.interval_s)
            await self.step()

    async def start(self) -> "Autoscaler":
        """Run the control loop as a background task; idempotent."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())
        return self

    async def stop(self) -> None:
        """Cancel the background control loop."""
        await cancel_and_wait(self._task)
        self._task = None
