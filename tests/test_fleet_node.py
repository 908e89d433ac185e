"""The node supervisor's subprocess mode: a real ``python -m repro
serve`` child with a process pool, drained politely.
"""

import asyncio
import os
import time

from repro.fleet import NodeConfig, NodeSupervisor
from repro.service import ServiceClient, SimRequest


def _children(pid):
    """Live (non-zombie) pids whose parent is *pid*, from ``/proc``."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _ppid_if_live(int(entry)) == pid:
            found.add(int(entry))
    return found


def _ppid_if_live(pid):
    """Parent pid of *pid*, or None once it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in ("Z", "X") else int(fields[1])


def test_drain_reaps_pool_workers_promptly():
    async def scenario():
        supervisor = NodeSupervisor(NodeConfig(
            in_process=False, use_processes=True, workers_per_shard=2))
        handle = await supervisor.spawn()
        try:
            async with await ServiceClient.connect(
                    handle.host, handle.port) as client:
                response = await client.submit(
                    SimRequest("C", "557.xz", strategy="e"))
            workers = _children(handle.process.pid)
            start = time.perf_counter()
            await supervisor.drain(handle.name)
            return response, workers, time.perf_counter() - start
        finally:
            await supervisor.stop_all(drain=False)

    response, workers, drain_s = asyncio.run(scenario())
    assert response.ok, response.error
    assert workers
    assert drain_s < 5.0
    assert not [pid for pid in workers if _ppid_if_live(pid) is not None]
